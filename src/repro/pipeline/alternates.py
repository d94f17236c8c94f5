"""Alternate stage implementations behind the pipeline seams.

PR 2 made every stage of the gauge → predict → plan pipeline a typed
:class:`~typing.Protocol`; this module fills those seams with the
implementations the paper's cost/accuracy trade-off argument needs to
be *measured* rather than asserted:

* :class:`PassiveTelemetryGauger` (``passive-telemetry``, alias
  ``passive``) — reads the runtime
  :class:`~repro.runtime.telemetry.TelemetryStore` instead of paying
  for active probe flows.  Zero probe transfers, zero probe dollars;
  accuracy bounded by what the links happened to carry;
* :class:`CachedPredictor` (``cached``) — memoizes model inference
  across jobs, invalidating on TTL expiry or when the incoming
  snapshot drifts from the one the cached prediction was made from;
* :class:`MultiBackendPlanner` (``multi-backend``) — dispatches a
  representative shuffle to every registered GDA placement backend
  (iridium / tetrium / kimchi by default), scores each by predicted
  completion time, and records the winner for the scheduler to use.

All three are selectable by name from config files, ``WANIFY_*`` env
vars, CLI flags (``--gauger passive-telemetry``), and the sweep
runner's ``[sweep]`` matrix — the registries make them reachable from
every entry point with zero core edits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.net.matrix import BandwidthMatrix
from repro.net.measurement import (
    SNAPSHOT_WINDOW_S,
    MeasurementCost,
    MeasurementReport,
)
from repro.net.topology import Topology
from repro.pipeline.config import PipelineConfig
from repro.pipeline.registry import (
    placement_policy,
    register_gauger,
    register_planner,
    register_predictor,
)
from repro.pipeline.stages import (
    ForestPredictor,
    GaugeLedger,
    Gauger,
    Predictor,
    SnapshotGauger,
    WindowPlanner,
)

if TYPE_CHECKING:
    from repro.core.globalopt import GlobalPlan
    from repro.runtime.telemetry import TelemetryStore


# ----------------------------------------------------------------------
# Passive-telemetry gauging
# ----------------------------------------------------------------------


@register_gauger("passive")
@register_gauger("passive-telemetry")
class PassiveTelemetryGauger(GaugeLedger):
    """Gauges from the shared telemetry store — no probe flows at all.

    The snapshot gauger launches ``n·(n−1)`` probe flows per gauge and
    pays Table 2's monitoring cost every time.  Agents already publish
    per-link achieved rates to the runtime service's
    :class:`~repro.runtime.telemetry.TelemetryStore`; this gauger
    reuses those sliding-window estimates as the measurement, making
    every gauge free.

    The store arrives through :meth:`bind_telemetry` (the runtime
    service calls it at construction — the telemetry handoff).  Until
    the store covers ``min_coverage`` of the ordered pairs, gauges
    fall back to ``cold_start``:

    * ``"static"`` (default) — the topology's modelled uncontended
      single-connection caps.  Free, so a passive run truly records
      zero probe transfers; inaccurate until telemetry warms up and
      the first drift-triggered re-plan corrects it;
    * ``"probe"`` — one active snapshot through ``fallback``
      (accurate, but the run's probe count is no longer zero).
    """

    def __init__(
        self,
        store: Optional["TelemetryStore"] = None,
        percentile: float = 50.0,
        min_coverage: float = 0.5,
        cold_start: str = "static",
        fallback: Optional[Gauger] = None,
    ) -> None:
        if cold_start not in ("static", "probe"):
            raise ValueError(f"cold_start must be 'static' or 'probe': {cold_start!r}")
        super().__init__()
        self.store = store
        self.percentile = percentile
        self.min_coverage = min_coverage
        self.cold_start = cold_start
        self.fallback = fallback if fallback is not None else SnapshotGauger()
        #: Gauges served purely from telemetry.
        self.passive_gauges = 0
        #: Gauges that had to fall back (cold store).
        self.cold_gauges = 0

    def bind_telemetry(self, store: "TelemetryStore") -> None:
        """Attach the shared store (called by the runtime service)."""
        self.store = store

    def gauge(
        self,
        topology: Topology,
        weather: object,
        at_time: float,
    ) -> MeasurementReport:
        """A free measurement from telemetry (or the cold-start path)."""
        matrix = self._telemetry_matrix(topology)
        if matrix is not None:
            self.passive_gauges += 1
            report = MeasurementReport(
                "passive-telemetry",
                matrix,
                window_s=self.store.window_s,
                time=at_time,
                cost=MeasurementCost(),
            )
            return self.log_gauge(report, transfers=0)
        self.cold_gauges += 1
        if self.cold_start == "probe":
            report = self.fallback.gauge(topology, weather, at_time)
            # Mirror what the fallback actually launched (its own
            # ledger has the true count); only a ledger-less custom
            # fallback is assumed to have probed the full mesh.
            fallback_events = getattr(self.fallback, "events", None)
            if fallback_events:
                transfers = fallback_events[-1].transfers
            else:
                transfers = topology.n * (topology.n - 1)
            return self.log_gauge(report, transfers=transfers)
        report = MeasurementReport(
            "passive-static",
            self._static_matrix(topology),
            window_s=SNAPSHOT_WINDOW_S,
            time=at_time,
            cost=MeasurementCost(),
        )
        return self.log_gauge(report, transfers=0)

    def _telemetry_matrix(self, topology: Topology) -> Optional[BandwidthMatrix]:
        """Percentile estimates per pair; ``None`` while under-covered.

        Pairs idle inside the window fall back to their EWMA; pairs the
        store has never seen get the mean of the known estimates (the
        predictor refines all of it anyway).
        """
        store = self.store
        if store is None:
            return None
        out = BandwidthMatrix.zeros(topology.keys)
        pairs = list(out.pairs())
        sampled_links = set(store.links())
        known: list[tuple[str, str, float]] = []
        for src, dst in pairs:
            if (src, dst) not in sampled_links:
                continue
            estimate = store.estimate(src, dst)
            if estimate.samples > 0:
                value = store.capacity_mbps(src, dst, self.percentile)
            elif estimate.ewma > 0.0:
                value = estimate.ewma
            else:
                continue
            known.append((src, dst, value))
        if not pairs or len(known) < self.min_coverage * len(pairs):
            return None
        fill = float(np.mean([value for _, _, value in known]))
        for src, dst in pairs:
            out.set(src, dst, fill)
        for src, dst, value in known:
            out.set(src, dst, value)
        return out

    @staticmethod
    def _static_matrix(topology: Topology) -> BandwidthMatrix:
        """Modelled uncontended caps — the free cold-start estimate."""
        out = BandwidthMatrix.zeros(topology.keys)
        for src, dst in out.pairs():
            out.set(src, dst, topology.single_connection_cap(src, dst))
        return out


# ----------------------------------------------------------------------
# Cached prediction
# ----------------------------------------------------------------------

#: Simulated seconds a cached prediction stays reusable.
CACHE_TTL_S = 600.0
#: Mean relative snapshot drift at which a cached prediction re-infers.
CACHE_DRIFT_TOLERANCE = 0.15


@dataclass
class _CacheEntry:
    """What a cached inference remembers: when, from what, and what."""

    time: float
    snapshot: BandwidthMatrix
    predicted: BandwidthMatrix


@register_predictor("cached")
class CachedPredictor:
    """Memoizes model inference across jobs, with TTL + drift invalidation.

    Wraps an inner :class:`~repro.pipeline.stages.Predictor` (a
    :class:`~repro.pipeline.stages.ForestPredictor` built from the
    construction context by default).  A cached matrix is reused while
    both hold:

    * **TTL** — the new report is at most ``ttl_s`` simulated seconds
      newer than the cached one (:data:`CACHE_TTL_S` by default);
    * **drift** — the new snapshot's mean relative delta from the
      cached snapshot stays under ``drift_tolerance``
      (:data:`CACHE_DRIFT_TOLERANCE` by default).  A drifted snapshot means
      the network moved, and a re-plan fed a stale prediction would
      re-install exactly the plan that just failed.

    ``hits``/``misses`` feed the sweep report's cache column.
    """

    def __init__(
        self,
        topology: Optional[Topology] = None,
        weather: Optional[object] = None,
        config: Optional[PipelineConfig] = None,
        inner: Optional[Predictor] = None,
        ttl_s: float = CACHE_TTL_S,
        drift_tolerance: float = CACHE_DRIFT_TOLERANCE,
    ) -> None:
        if inner is None:
            if topology is None or config is None:
                raise ValueError(
                    "CachedPredictor needs an inner predictor or a "
                    "(topology, config) construction context"
                )
            inner = ForestPredictor(topology, weather, config)
        self.inner = inner
        self.ttl_s = float(ttl_s)
        self.drift_tolerance = float(drift_tolerance)
        self.hits = 0
        self.misses = 0
        self._cache: dict[tuple[str, ...], _CacheEntry] = {}

    @property
    def is_trained(self) -> bool:
        """Whether the wrapped model has been fitted."""
        return self.inner.is_trained

    def train(
        self,
        topology: Topology,
        weather: object,
        config: PipelineConfig,
    ) -> dict[str, float]:
        """Delegate training; a fresh model invalidates everything."""
        self.invalidate()
        return self.inner.train(topology, weather, config)

    def predict(self, report: MeasurementReport, topology: Topology) -> BandwidthMatrix:
        """Cached inference keyed on the topology's DC set."""
        key = topology.keys
        entry = self._cache.get(key)
        if entry is not None and self._fresh(entry, report):
            self.hits += 1
            return entry.predicted.copy()
        self.misses += 1
        predicted = self.inner.predict(report, topology)
        self._cache[key] = _CacheEntry(
            time=report.time,
            snapshot=report.matrix.copy(),
            predicted=predicted.copy(),
        )
        return predicted

    def invalidate(self) -> None:
        """Drop every cached inference."""
        self._cache.clear()

    def snapshot_drift(self, entry_matrix: BandwidthMatrix, matrix: BandwidthMatrix) -> float:
        """Mean relative per-pair delta between two snapshot matrices."""
        cached = entry_matrix.off_diagonal()
        fresh = matrix.off_diagonal()
        return float(np.mean(np.abs(fresh - cached) / np.maximum(cached, 1.0)))

    def _fresh(self, entry: _CacheEntry, report: MeasurementReport) -> bool:
        age = report.time - entry.time
        if age < 0.0 or age > self.ttl_s:
            return False
        return self.snapshot_drift(entry.snapshot, report.matrix) <= self.drift_tolerance

    def __getattr__(self, name: str):
        # Delegate to the wrapped predictor so callers holding the raw
        # ForestPredictor surface (``analyzer``, ``train_accuracy``,
        # ``refit`` …) keep working against the cached stage.
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)


# ----------------------------------------------------------------------
# Multi-backend planning
# ----------------------------------------------------------------------


@register_planner("multi-backend")
class MultiBackendPlanner:
    """Scores registered GDA backends by predicted completion time.

    The PAPERS.md cross-layer sweeps (Terra, the SDN dynamic-allocation
    line) show allocation strategies trading places as conditions
    change; this planner makes that a runtime decision.  On every
    :meth:`plan` it asks each backend policy to place a representative
    shuffle against the predicted BWs, estimates the stage's completion
    time (bottleneck transfer + compute barrier), and records the
    fastest backend in :attr:`chosen_policy` — the runtime service
    points its scheduler at the winner after each (re-)plan, so jobs
    submitted after a drift event run under the backend that is best
    *now*.  Connection planning itself delegates to ``inner`` (the
    Eq. 2/3 window optimizer by default).
    """

    #: Default backends scored on every plan.
    DEFAULT_BACKENDS: tuple[str, ...] = ("iridium", "tetrium", "kimchi")

    #: Representative shuffle volume (MB) used for scoring.
    SCORING_SHUFFLE_MB = 2000.0

    #: Representative reduce-stage compute intensity (vCPU-s per MB).
    SCORING_CPU_S_PER_MB = 0.05

    def __init__(
        self,
        topology: Optional[Topology] = None,
        config: Optional[PipelineConfig] = None,
        backends: Optional[Sequence[str]] = None,
        inner: Optional[WindowPlanner] = None,
    ) -> None:
        self.topology = topology
        self.backends = tuple(backends or self.DEFAULT_BACKENDS)
        self.inner = inner if inner is not None else WindowPlanner()
        #: Winner of every scoring round, in order.
        self.choices: list[str] = []
        #: ``{backend: estimated completion seconds}`` of the last round.
        self.last_scores: dict[str, float] = {}
        self._cluster = None

    @property
    def chosen_policy(self) -> Optional[str]:
        """The backend the most recent plan picked (``None`` before)."""
        return self.choices[-1] if self.choices else None

    def plan(
        self,
        bw: BandwidthMatrix,
        config: PipelineConfig,
        skew_weights: Optional[dict[str, float]] = None,
        rvec: Optional[dict[str, float]] = None,
    ) -> "GlobalPlan":
        """Score the backends, then delegate connection planning."""
        self._choose(bw, skew_weights)
        return self.inner.plan(bw, config, skew_weights, rvec)

    # -- backend scoring ------------------------------------------------

    def _choose(self, bw: BandwidthMatrix, skew_weights: Optional[dict[str, float]]) -> None:
        cluster = self._scoring_cluster(bw.keys)
        if cluster is None:
            return
        from repro.gda.engine.dag import StageSpec
        from repro.gda.systems.iridium import bottleneck_transfer_s

        stage = StageSpec(
            "scoring-reduce",
            cpu_s_per_mb=self.SCORING_CPU_S_PER_MB,
            output_ratio=1.0,
            shuffle=True,
        )
        data = self._representative_data(bw.keys, skew_weights)
        total = sum(data.values())
        scores: dict[str, float] = {}
        for name in self.backends:
            policy = placement_policy(name)
            fractions = policy.place_stage(stage, data, bw, cluster)
            network_s = bottleneck_transfer_s(data, fractions, bw)
            compute_s = max(
                cluster.compute_seconds(dc, total * frac, stage.cpu_s_per_mb)
                for dc, frac in fractions.items()
            )
            scores[name] = network_s + compute_s
        self.last_scores = scores
        self.choices.append(min(scores, key=scores.get))

    def _representative_data(
        self,
        keys: tuple[str, ...],
        skew_weights: Optional[dict[str, float]],
    ) -> dict[str, float]:
        """Per-DC input for the scoring shuffle (skewed when known)."""
        if skew_weights:
            total_weight = sum(max(0.0, skew_weights.get(dc, 0.0)) for dc in keys)
            if total_weight > 0:
                scale = self.SCORING_SHUFFLE_MB / total_weight
                return {dc: scale * max(0.0, skew_weights.get(dc, 0.0)) for dc in keys}
        share = self.SCORING_SHUFFLE_MB / len(keys)
        return {dc: share for dc in keys}

    def _scoring_cluster(self, keys: tuple[str, ...]):
        """A slots/prices view of the topology for the placement LPs.

        Built lazily (the GDA engine is a heavy import the light
        pipeline package should not pay for) and only when the
        construction context supplied a matching topology.
        """
        if self.topology is None or self.topology.keys != keys:
            return None
        if self._cluster is None:
            from repro.gda.engine.cluster import GeoCluster

            self._cluster = GeoCluster.from_topology(self.topology)
        return self._cluster
