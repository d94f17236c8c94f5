"""Drift detection: telemetry vs. the trained prediction.

The offline model predicts stable runtime BWs from a snapshot; the
telemetry store reports what links actually carry.  When the two
diverge beyond a threshold the network has drifted away from the
conditions the current :class:`~repro.core.globalopt.GlobalPlan` was
computed for, and the service should re-gauge and re-plan *mid-job* —
the online counterpart of the paper's submit-time pipeline.

The detector is deliberately conservative:

* only links with enough *fresh, active* samples are considered — an
  idle link tells us nothing, and application-limited trickles would
  otherwise read as collapse;
* it watches for **degradation** (capacity estimate far below the
  prediction).  A lightly-loaded link legitimately exceeds its
  predicted *contended* stable BW, so "improvement" is ambiguous and is
  off by default;
* a cooldown suppresses event storms — one re-plan per drift episode,
  not one per check tick.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.net.matrix import BandwidthMatrix
from repro.runtime.telemetry import TelemetryStore

#: Default relative-error threshold before a re-plan fires.
DEFAULT_THRESHOLD = 0.45

#: Default minimum active samples in the window per considered link.
DEFAULT_MIN_SAMPLES = 3

#: Default minimum seconds between fired events.
DEFAULT_COOLDOWN_S = 240.0

#: Links predicted below this are ignored — relative error on a
#: near-dead link is noise.
DEFAULT_MIN_PREDICTED_MBPS = 50.0

#: A link's newest sample must be at most this old to count.
DEFAULT_FRESHNESS_S = 60.0


@dataclass(frozen=True)
class ReplanEvent:
    """One fired drift event: the worst offending link and its error.

    Acting on an event is not free — the service re-gauges before it
    re-plans, and an active gauger launches real probe flows.  The
    service charges that cost back onto the event (via :meth:`charged`,
    from the gauger's :class:`~repro.pipeline.stages.GaugeLedger`
    delta), so every recorded re-plan carries what it cost to make.
    """

    time: float
    src: str
    dst: str
    observed_mbps: float
    predicted_mbps: float
    rel_error: float
    #: Probe flows the re-gauge launched (0 until charged, and for
    #: passive gaugers always).
    probe_transfers: int = 0
    #: Probe traffic (GB) the re-gauge moved.
    probe_gb: float = 0.0
    #: Probe dollars the re-gauge cost (Eq. 1-style accounting).
    probe_cost_usd: float = 0.0

    def charged(
        self, transfers: int, gigabytes: float, dollars: float
    ) -> "ReplanEvent":
        """A copy of this event carrying its re-gauge probe cost."""
        return dataclasses.replace(
            self,
            probe_transfers=transfers,
            probe_gb=gigabytes,
            probe_cost_usd=dollars,
        )

    def describe(self) -> str:
        """One-line human-readable summary."""
        line = (
            f"t={self.time:.0f}s {self.src}→{self.dst}: "
            f"observed {self.observed_mbps:.0f} vs predicted "
            f"{self.predicted_mbps:.0f} Mbps "
            f"({self.rel_error * 100.0:.0f}% drift)"
        )
        if self.probe_transfers or self.probe_cost_usd:
            line += (
                f" [re-gauge: {self.probe_transfers} probes, "
                f"${self.probe_cost_usd:.4f}]"
            )
        return line


def check_threshold(threshold: float) -> None:
    """Reject a :class:`DriftDetector` threshold that is not positive.

    A non-positive threshold fires on every assessable link (an error
    is never below 0), so every check would re-plan.
    """
    if threshold <= 0.0:
        raise ValueError(f"threshold must be positive: {threshold}")


@dataclass
class DriftDetector:
    """Compares telemetry capacity estimates against a reference matrix."""

    store: TelemetryStore
    predicted: BandwidthMatrix
    threshold: float = DEFAULT_THRESHOLD
    min_samples: int = DEFAULT_MIN_SAMPLES
    cooldown_s: float = DEFAULT_COOLDOWN_S
    min_predicted_mbps: float = DEFAULT_MIN_PREDICTED_MBPS
    freshness_s: float = DEFAULT_FRESHNESS_S
    #: Detection percentile.  The *median* (not a high percentile):
    #: after a persistent capacity drop, p_k over a sliding window only
    #: flips once (100-k)% of the window post-dates the drop, so p90
    #: would lag by ~0.9 windows while p50 reacts in half a window.
    percentile: float = 50.0
    #: Observability hook: called with each fired event, after it is
    #: appended to :attr:`events` and before the caller sees it.
    on_fire: Optional[Callable[[ReplanEvent], None]] = None
    events: list[ReplanEvent] = field(default_factory=list)
    _last_fire: float = field(default=float("-inf"), init=False)

    def __post_init__(self) -> None:
        check_threshold(self.threshold)

    def link_error(self, src: str, dst: str, now: float) -> float | None:
        """Relative degradation of one link, ``None`` if not assessable."""
        estimate = self.store.estimate(src, dst)
        if estimate.samples < self.min_samples:
            return None
        if now - estimate.last_time > self.freshness_s:
            return None
        predicted = self.predicted.get(src, dst)
        if predicted < self.min_predicted_mbps:
            return None
        observed = self.store.capacity_mbps(src, dst, self.percentile)
        return max(0.0, (predicted - observed) / predicted)

    def check(self, now: float) -> ReplanEvent | None:
        """Fire a :class:`ReplanEvent` if drift exceeds the threshold.

        Returns the event (also appended to :attr:`events`) or ``None``.
        Respects the cooldown even when drift persists.
        """
        if now - self._last_fire < self.cooldown_s:
            return None
        worst: ReplanEvent | None = None
        for src, dst in self.store.links():
            error = self.link_error(src, dst, now)
            if error is None or error < self.threshold:
                continue
            if worst is None or error > worst.rel_error:
                worst = ReplanEvent(
                    time=now,
                    src=src,
                    dst=dst,
                    observed_mbps=self.store.capacity_mbps(
                        src, dst, self.percentile
                    ),
                    predicted_mbps=self.predicted.get(src, dst),
                    rel_error=error,
                )
        if worst is not None:
            self.events.append(worst)
            self._last_fire = now
            if self.on_fire is not None:
                self.on_fire(worst)
        return worst

    def rebase(self, predicted: BandwidthMatrix, now: float) -> None:
        """Install a fresh reference after a re-gauge/re-plan.

        Also re-arms the cooldown from ``now`` so the next check
        evaluates the *new* plan's accuracy, not the old episode.
        """
        self.predicted = predicted
        self._last_fire = now
