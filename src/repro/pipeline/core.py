"""The composed pipeline: gauge → predict → plan → deploy.

:class:`Pipeline` is the public one-shot API (and the object the
runtime service is rebuilt on).  It owns one instance of each stage —
any of which may be swapped for a custom implementation satisfying the
:mod:`~repro.pipeline.stages` protocols::

    from repro.pipeline import Pipeline, PipelineConfig

    pipe = Pipeline(topology, FluctuationModel(seed=42))
    pipe.train()                              # offline module
    bw = pipe.predict(at_time=3600.0)         # snapshot → runtime BWs
    plan = pipe.plan(bw)                      # Eq. 2/3 optimizer
    deployment = pipe.deployment("wanify-tc", bw=bw)

Deployment variants resolve through
:data:`~repro.pipeline.registry.variant_registry`, so variants
registered anywhere — including test code — are constructible here by
name with zero core edits.
"""

from __future__ import annotations

from typing import Optional

from repro.core.globalopt import GlobalPlan
from repro.net.dynamics import StaticModel
from repro.net.matrix import BandwidthMatrix
from repro.net.measurement import MeasurementReport
from repro.net.topology import Topology
from repro.pipeline.config import PipelineConfig
from repro.pipeline.deploy import Deployment
from repro.pipeline.registry import (
    build_stage,
    gauger_registry,
    planner_registry,
    predictor_registry,
    variant_registry,
)
from repro.pipeline.stages import Gauger, Planner, Predictor


class Pipeline:
    """End-to-end WANify: offline training + online optimization."""

    def __init__(
        self,
        topology: Topology,
        weather: Optional[object] = None,
        config: Optional[PipelineConfig] = None,
        *,
        gauger: Optional[Gauger] = None,
        predictor: Optional[Predictor] = None,
        planner: Optional[Planner] = None,
    ) -> None:
        self.topology = topology
        self.weather = weather if weather is not None else StaticModel()
        # A fresh config per instance — a shared default instance would
        # alias state across pipelines if a mutable field ever lands.
        self.config = config if config is not None else PipelineConfig()
        # Explicit stage objects win; otherwise the config's stage
        # names resolve through the registries (so ``--gauger
        # passive-telemetry`` and sweep cells reach every seam).
        context = {
            "topology": topology,
            "weather": self.weather,
            "config": self.config,
        }
        self.gauger: Gauger = (
            gauger
            if gauger is not None
            else build_stage(gauger_registry, self.config.gauger, **context)
        )
        self.predictor: Predictor = (
            predictor
            if predictor is not None
            else build_stage(predictor_registry, self.config.predictor, **context)
        )
        self.planner: Planner = (
            planner
            if planner is not None
            else build_stage(planner_registry, self.config.planner, **context)
        )

    # ------------------------------------------------------------------
    # Offline module
    # ------------------------------------------------------------------

    def train(self) -> dict[str, float]:
        """Run the offline campaign and fit the prediction model.

        Returns a summary: rows, target SD (paper: ~184 Mbps), training
        accuracy (paper: 98.51%), and collection cost in dollars.
        """
        return self.predictor.train(self.topology, self.weather, self.config)

    @property
    def is_trained(self) -> bool:
        """Whether the prediction model has been fitted."""
        return self.predictor.is_trained

    # ------------------------------------------------------------------
    # Online module
    # ------------------------------------------------------------------

    def gauge(self, at_time: float = 0.0, topology: Optional[Topology] = None) -> MeasurementReport:
        """Measure the current network state (1-second snapshot)."""
        return self.gauger.gauge(topology or self.topology, self.weather, at_time)

    def predict(
        self,
        at_time: float = 0.0,
        report: Optional[MeasurementReport] = None,
        topology: Optional[Topology] = None,
    ) -> BandwidthMatrix:
        """Gauge (or use ``report``) and predict stable runtime BWs.

        ``topology`` may be a subset of the training topology — the
        model is trained across cluster sizes (§3.3.2).
        """
        if not self.predictor.is_trained:
            raise RuntimeError("call train() before predicting")
        topology = topology or self.topology
        if report is None:
            report = self.gauge(at_time, topology)
        return self.predictor.predict(report, topology)

    def plan(
        self,
        bw: BandwidthMatrix,
        skew_weights: Optional[dict[str, float]] = None,
        rvec: Optional[dict[str, float]] = None,
    ) -> GlobalPlan:
        """Global optimization on a (predicted) runtime BW matrix."""
        return self.planner.plan(bw, self.config, skew_weights, rvec)

    def deployment(
        self,
        variant: Optional[str] = None,
        bw: Optional[BandwidthMatrix] = None,
        at_time: float = 0.0,
        skew_weights: Optional[dict[str, float]] = None,
        rvec: Optional[dict[str, float]] = None,
        **build_kwargs: object,
    ) -> Deployment:
        """Build a deployment via a registered variant strategy.

        ``variant`` defaults to the config's ``variant`` field; the
        name resolves through the variant registry, so anything
        registered with ``@register_variant`` works here.  Extra
        keyword arguments (the service's ``telemetry`` sink, or custom
        strategy options) are forwarded to the strategy's ``build``.
        """
        name = variant if variant is not None else self.config.variant
        try:
            strategy = variant_registry.get(name)
        except KeyError:
            known = variant_registry.names()
            raise ValueError(f"unknown variant {name!r}; choose from {known}") from None
        if isinstance(strategy, type):
            strategy = strategy()
        return strategy.build(
            self,
            bw,
            at_time=at_time,
            skew_weights=skew_weights,
            rvec=rvec,
            **build_kwargs,
        )
