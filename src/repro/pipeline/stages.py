"""Typed stage contracts for the gauge → predict → plan → deploy pipeline.

Each stage of Fig. 3's architecture is a :class:`~typing.Protocol`, so
any object with the right shape plugs in — no inheritance required:

* :class:`Gauger` — measure the live network (a snapshot probe by
  default; swap in a passive-telemetry gauger, a cached gauger, …);
* :class:`Predictor` — turn a measurement into stable runtime BWs
  (the paper's Random Forest by default);
* :class:`Planner` — turn predicted BWs into a
  :class:`~repro.core.globalopt.GlobalPlan` (Eq. 2/3 by default);
* :class:`DeploymentStrategy` — turn a plan into a
  :class:`~repro.pipeline.deploy.Deployment` (the six evaluation
  variants live in :mod:`repro.pipeline.variants`).

The default implementations live here too, as plain classes satisfying
the protocols — they are what :class:`~repro.pipeline.core.Pipeline`
builds when no stage override is supplied.  Each default registers
itself in the matching stage registry (``snapshot`` / ``forest`` /
``window``), so config files and CLI flags can name them; the alternate
implementations live in :mod:`repro.pipeline.alternates`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Protocol, runtime_checkable

from repro.core.analyzer import BandwidthAnalyzer
from repro.core.globalopt import GlobalPlan, optimize_connections
from repro.core.predictor import WanPredictionModel
from repro.net.dynamics import FluctuationModel
from repro.net.matrix import BandwidthMatrix
from repro.net.measurement import MeasurementReport, snapshot
from repro.net.monitor import SampleSink
from repro.net.topology import Topology
from repro.pipeline.config import PipelineConfig
from repro.pipeline.deploy import Deployment
from repro.pipeline.registry import (
    register_gauger,
    register_planner,
    register_predictor,
)

if TYPE_CHECKING:
    from repro.pipeline.core import Pipeline


@runtime_checkable
class Gauger(Protocol):
    """Measures the current network state (the online module's probe)."""

    def gauge(
        self,
        topology: Topology,
        weather: object,
        at_time: float,
    ) -> MeasurementReport:
        """A bandwidth measurement of ``topology`` at ``at_time``."""
        ...


@runtime_checkable
class Predictor(Protocol):
    """Maps a measurement to stable runtime bandwidths."""

    @property
    def is_trained(self) -> bool:
        """Whether :meth:`train` has run."""
        ...

    def train(
        self,
        topology: Topology,
        weather: object,
        config: PipelineConfig,
    ) -> dict[str, float]:
        """Run the offline campaign; returns a training summary."""
        ...

    def predict(self, report: MeasurementReport, topology: Topology) -> BandwidthMatrix:
        """Predicted stable runtime BWs for ``topology``."""
        ...


@runtime_checkable
class Planner(Protocol):
    """Maps predicted bandwidths to a connection plan."""

    def plan(
        self,
        bw: BandwidthMatrix,
        config: PipelineConfig,
        skew_weights: Optional[dict[str, float]] = None,
        rvec: Optional[dict[str, float]] = None,
    ) -> GlobalPlan:
        """A connection plan for the (predicted) matrix ``bw``."""
        ...


@runtime_checkable
class DeploymentStrategy(Protocol):
    """Builds a deployment from the pipeline's current state.

    ``telemetry`` is the sample sink the runtime service forwards; a
    strategy that deploys agents must wire it into them (the built-ins
    inherit handling from ``VariantStrategy``).
    """

    def build(
        self,
        pipeline: "Pipeline",
        bw: Optional[BandwidthMatrix],
        at_time: float = 0.0,
        skew_weights: Optional[dict[str, float]] = None,
        rvec: Optional[dict[str, float]] = None,
        telemetry: Optional[SampleSink] = None,
    ) -> Deployment:
        """A ready-to-install deployment for the pipeline's state."""
        ...


# ----------------------------------------------------------------------
# Probe-cost accounting
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GaugeEvent:
    """One gauge call's cost-accounting entry.

    ``transfers`` counts probe flows actually launched on the WAN —
    zero for passive gauging; ``gigabytes``/``dollars`` mirror the
    report's Eq. 1-style :class:`~repro.net.measurement.MeasurementCost`.
    """

    time: float
    mode: str
    transfers: int
    gigabytes: float
    dollars: float


class GaugeLedger:
    """Mixin: per-gauger accounting of what measurement actually cost.

    Every built-in gauger records one :class:`GaugeEvent` per
    :meth:`~Gauger.gauge` call; the runtime service and the sweep
    runner read the totals so probe cost shows up next to completion
    time in comparison tables (the passive gauger's whole point).
    """

    def __init__(self) -> None:
        self.events: list[GaugeEvent] = []
        #: Observability hook: called with each appended
        #: :class:`GaugeEvent`.  Observation-only.
        self.on_gauge: Optional[Callable[[GaugeEvent], None]] = None

    def log_gauge(self, report: MeasurementReport, transfers: int) -> MeasurementReport:
        """Append one accounting entry for ``report``; returns it."""
        event = GaugeEvent(
            time=report.time,
            mode=report.mode,
            transfers=transfers,
            gigabytes=report.cost.gigabytes,
            dollars=report.cost.dollars,
        )
        self.events.append(event)
        # getattr, not a bare attribute read: a registered gauger that
        # mixes the ledger in without calling this ``__init__`` still
        # gauges fine, it just cannot be observed.
        hook = getattr(self, "on_gauge", None)
        if hook is not None:
            hook(event)
        return report

    @property
    def probe_transfers(self) -> int:
        """Total probe flows launched across all gauges."""
        return sum(event.transfers for event in self.events)

    @property
    def probe_gb(self) -> float:
        """Total probe traffic (GB) across all gauges."""
        return sum(event.gigabytes for event in self.events)

    @property
    def probe_cost_usd(self) -> float:
        """Total probe cost (USD) across all gauges."""
        return sum(event.dollars for event in self.events)


# ----------------------------------------------------------------------
# Default implementations
# ----------------------------------------------------------------------


class SnapshotGauger(GaugeLedger):
    """The paper's 1-second active probe (§3.2, runtime monitoring)."""

    def gauge(
        self,
        topology: Topology,
        weather: object,
        at_time: float,
    ) -> MeasurementReport:
        """Probe every ordered pair simultaneously for one second."""
        report = snapshot(topology, weather, at_time)
        return self.log_gauge(report, transfers=topology.n * (topology.n - 1))


class ForestPredictor:
    """Bandwidth Analyzer + Random-Forest WAN Prediction Model (§3.1)."""

    def __init__(
        self,
        topology: Topology,
        weather: object,
        config: PipelineConfig,
    ) -> None:
        self.model = WanPredictionModel(n_estimators=config.n_estimators, random_state=config.seed)
        # The analyzer's training campaign needs a real fluctuation
        # model; a StaticModel weather falls back to a seeded one.
        if not isinstance(weather, FluctuationModel):
            weather = FluctuationModel(seed=config.seed)
        self.analyzer = BandwidthAnalyzer(
            topology,
            weather,
            n_datasets=config.n_training_datasets,
            seed=config.seed,
        )
        self._trained = False

    @property
    def is_trained(self) -> bool:
        """Whether the forest has been fitted."""
        return self._trained

    def train(
        self,
        topology: Topology,
        weather: object,
        config: PipelineConfig,
    ) -> dict[str, float]:
        """Run the offline campaign and fit the forest on its rows."""
        training = self.analyzer.collect()
        self.model.fit(training)
        self._trained = True
        return {
            "rows": float(len(training)),
            "target_std_mbps": training.target_std(),
            "train_accuracy_pct": self.model.train_accuracy,
            "collection_cost_usd": self.analyzer.last_cost.dollars,
        }

    def predict(self, report: MeasurementReport, topology: Topology) -> BandwidthMatrix:
        """Stable runtime BWs for every ordered pair in ``report``."""
        return self.model.predict_matrix(report, topology)

    def __getattr__(self, name: str):
        # Delegate to the wrapped model so legacy callers that held the
        # raw WanPredictionModel (``predict_rows``, ``train_accuracy``,
        # ``refit`` …) keep working against the stage.
        if name == "model":
            raise AttributeError(name)
        return getattr(self.model, name)


class WindowPlanner:
    """The Eq. 2/3 global optimizer producing min–max windows."""

    def plan(
        self,
        bw: BandwidthMatrix,
        config: PipelineConfig,
        skew_weights: Optional[dict[str, float]] = None,
        rvec: Optional[dict[str, float]] = None,
    ) -> GlobalPlan:
        """Optimize per-pair connection windows for ``bw``."""
        return optimize_connections(
            bw,
            max_connections=config.max_connections,
            min_difference=config.min_difference_mbps,
            skew_weights=skew_weights,
            rvec=rvec,
        )


# Registered after the class definitions (not as decorators): the first
# registration bootstraps the registries, which imports the alternates
# module, which imports these classes — a decorator would fire before
# its own class exists.
register_gauger("snapshot")(SnapshotGauger)
register_predictor("forest")(ForestPredictor)
register_planner("window")(WindowPlanner)
