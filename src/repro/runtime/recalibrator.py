"""Continuous capacity recalibration: a background gauger for links.

Between drift re-plans the service trusts whatever bandwidth matrix
the predictor produced at plan time.  Production WAN tooling does not:
the CloudGenix controller re-derives each circuit's usable capacity
from the p95 of *observed* throughput over a trailing window, on an
interval, clamped by fixed ceilings.  This module is that loop
for the WANify runtime.

:class:`CapacityRecalibrator` sits between the shared
:class:`~repro.runtime.telemetry.TelemetryStore` and the service's
published capacity matrix.  Each tick it:

1. reads, for every link of the baseline matrix, the
   ``RECAL_PERCENTILE`` of observed throughput over the trailing
   ``RECAL_WINDOW_S`` — with idle/outage zero samples **counted**
   (``active_only=False``), so a window dominated by outage ticks
   drags the estimate down instead of replaying the stale pre-outage
   capacity;
2. skips links with fewer than ``RECAL_MIN_SAMPLES`` *active* samples
   in the window (a link that carried nothing says nothing — idle
   links stay at baseline rather than being crushed toward the floor);
3. clamps the move to ``±RECAL_MAX_STEP_FRACTION`` of the baseline per
   tick (one corrupt window cannot teleport a link), then clamps the
   result into ``[RECAL_FLOOR_FRACTION, RECAL_CEILING_FRACTION] ×
   baseline`` and below the topology link ceiling when one is known;
4. publishes the updated matrix through ``on_publish`` — the service
   installs it as its decision matrix, which is what the scheduler's
   placement scoring, the control plane's slack estimator, and the
   :class:`~repro.runtime.control.governor.BandwidthGovernor`'s cap
   clamp all read.

The recalibrator is deliberately *not* a re-planner: it never tears
down deployments or re-runs the pipeline.  It keeps the numbers the
planner's artifacts are judged against honest, and leaves structural
reactions to the drift detector (which keeps its own baseline and is
rebased on every re-plan, exactly as before).

Operational escape hatch: :meth:`CapacityRecalibrator.stall` skips the
next N ticks — the knob an operator (or the chaos harness) uses to
freeze recalibration during a maintenance window without tearing the
process down.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.matrix import BandwidthMatrix
from repro.net.stats import percentile
from repro.runtime.telemetry import TelemetryStore

__all__ = ["CapacityRecalibrator"]

#: Moves smaller than this (Mbps) are not counted as adjustments —
#: percentile jitter on a healthy link is not a recalibration.
ADJUST_EPSILON_MBPS = 1e-6

#: Tick period (s).  Off the 30 s drift grid and the 45 s control
#: grid so the three loops interleave on the simulator rather than
#: stacking on one instant.
RECAL_INTERVAL_S = 60.0

#: Trailing telemetry window (s) each tick derives capacity from.
#: Longer than the drift window: recalibration tracks the sustained
#: level, drift detection the fresh break.
RECAL_WINDOW_S = 240.0

#: Percentile of observed throughput read as usable capacity
#: (p95 = "capacity when the link was pushed").
RECAL_PERCENTILE = 95.0

#: Floor guard: capacity never drops below this fraction of the
#: planned baseline.
RECAL_FLOOR_FRACTION = 0.2

#: Ceiling guard: capacity never exceeds this fraction of the planned
#: baseline (and never the topology link ceiling).
RECAL_CEILING_FRACTION = 1.2

#: Maximum move per tick, as a fraction of the baseline — one corrupt
#: window cannot teleport a link's capacity.
RECAL_MAX_STEP_FRACTION = 0.25

#: Active samples required in the window before a link is
#: recalibrated at all (idle links are left at their baseline).
RECAL_MIN_SAMPLES = 3


class CapacityRecalibrator:
    """Periodically re-derive per-link usable capacity from telemetry.

    ``baseline`` is the matrix the current plan was built on: floors,
    ceilings, and step sizes are all fractions of it, so the guards are
    stable even as the published matrix wanders.  ``link_ceiling``
    (when given) maps ``(src, dst)`` to the topology's hard capacity —
    the recalibrated value never exceeds it regardless of
    ``RECAL_CEILING_FRACTION``.
    """

    def __init__(
        self,
        store: TelemetryStore,
        baseline: BandwidthMatrix,
        *,
        link_ceiling: Optional[Callable[[str, str], float]] = None,
        on_publish: Optional[Callable[[BandwidthMatrix], None]] = None,
    ) -> None:
        self.store = store
        self.link_ceiling = link_ceiling
        self.on_publish = on_publish
        self.baseline = baseline.copy()
        self.current = baseline.copy()
        #: Recalibration ticks actually executed (stalled ticks are
        #: counted separately).
        self.ticks = 0
        #: Ticks swallowed by :meth:`stall`.
        self.stalled_ticks = 0
        #: Cumulative links moved across all ticks.
        self.adjustments = 0
        #: Links moved by the most recent executed tick.
        self.last_adjusted = 0
        #: Simulator time of the most recent executed tick.
        self.last_tick_s: Optional[float] = None
        self._stall_remaining = 0

    # -- guard arithmetic ----------------------------------------------

    def floor_mbps(self, src: str, dst: str) -> float:
        """Lower guard for one link."""
        return RECAL_FLOOR_FRACTION * self.baseline.get(src, dst)

    def ceiling_mbps(self, src: str, dst: str) -> float:
        """Upper guard for one link (never above the topology)."""
        ceiling = RECAL_CEILING_FRACTION * self.baseline.get(src, dst)
        if self.link_ceiling is not None:
            hard = self.link_ceiling(src, dst)
            if hard > 0.0:
                ceiling = min(ceiling, hard)
        return max(ceiling, self.floor_mbps(src, dst))

    def within_bounds(self) -> list[tuple[str, str, float]]:
        """Links whose current value violates the guards (empty = OK).

        The chaos harness's executable invariant: whatever faults were
        injected, every published capacity sits in
        ``[floor, ceiling]`` (ceiling already topology-clamped).
        """
        violations = []
        for src, dst in self.current.pairs():
            value = self.current.get(src, dst)
            low = self.floor_mbps(src, dst) - ADJUST_EPSILON_MBPS
            high = self.ceiling_mbps(src, dst) + ADJUST_EPSILON_MBPS
            if not low <= value <= high:
                violations.append((src, dst, value))
        return violations

    # -- control -------------------------------------------------------

    def stall(self, ticks: int = 1) -> None:
        """Skip the next ``ticks`` recalibration ticks."""
        if ticks < 0:
            raise ValueError(f"ticks must be >= 0: {ticks}")
        self._stall_remaining += ticks

    def rebase(self, baseline: BandwidthMatrix) -> None:
        """Adopt a fresh plan's matrix as baseline *and* current.

        Called after a drift re-plan, mirroring
        :meth:`~repro.runtime.drift.DriftDetector.rebase`: the new
        plan's numbers are the new truth, and recalibration restarts
        its walk from them.
        """
        self.baseline = baseline.copy()
        self.current = baseline.copy()

    def matrix(self) -> BandwidthMatrix:
        """A copy of the current recalibrated matrix."""
        return self.current.copy()

    # -- the tick ------------------------------------------------------

    def tick(self, now: float) -> Optional[BandwidthMatrix]:
        """One recalibration pass; returns the published matrix.

        Returns ``None`` (and publishes nothing) when stalled.  Links
        without enough active telemetry keep their current value.
        """
        if self._stall_remaining > 0:
            self._stall_remaining -= 1
            self.stalled_ticks += 1
            return None
        self.ticks += 1
        self.last_tick_s = now
        moved = 0
        for src, dst in self.current.pairs():
            _, rates = self.store.read_window(src, dst, RECAL_WINDOW_S)
            if len([r for r in rates if r > 0.0]) < RECAL_MIN_SAMPLES:
                continue
            observed = percentile(rates, RECAL_PERCENTILE)
            previous = self.current.get(src, dst)
            step = RECAL_MAX_STEP_FRACTION * self.baseline.get(src, dst)
            target = min(max(observed, previous - step), previous + step)
            target = min(
                max(target, self.floor_mbps(src, dst)),
                self.ceiling_mbps(src, dst),
            )
            if abs(target - previous) > ADJUST_EPSILON_MBPS:
                self.current.set(src, dst, target)
                moved += 1
        self.last_adjusted = moved
        self.adjustments += moved
        published = self.matrix()
        if self.on_publish is not None:
            self.on_publish(published)
        return published
