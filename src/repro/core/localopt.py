"""Dynamic local optimization — AIMD fine-tuning (§3.2.2).

Each VM runs a local optimizer per destination DC.  Targets start at the
*maximum* of the global optimizer's window ("the initial state ... begins
from maximum throughput and gradually reduces with congestion, thereby
reducing the RTT bias"), then every epoch (5 s):

* **multiplicative decrease** when the monitored BW is significantly
  (> 100 Mbps) below the target — congestion: connections and target BW
  drop to ``max(minimum, previous/2)``;
* **additive increase** when monitored ≈ target — the network has head
  room: connections += 1 and the target BW grows linearly
  (``predicted per-connection BW × connections``), up to the maximum;
* pairs that moved < 1 MB since the last epoch skip the toggle entirely
  (their monitored rate says nothing about the network).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

#: The paper's significance boundary, Mbps.
CONGESTION_DELTA_MBPS = 100.0

#: "similar" band for entering additive-increase mode, Mbps.
SIMILARITY_BAND_MBPS = 100.0

#: AIMD epoch: "a 5-second interval at which the local optimizer updates
#: the target BWs" (§5.7).
EPOCH_S = 5.0

#: Minimum per-epoch transferred volume for mode toggles (§3.2.2).
MIN_TRANSFER_MB = 1.0

_INF = float("inf")

#: Epochs of :attr:`LocalOptimizer.history` kept per destination: about
#: 85 minutes at :data:`EPOCH_S`.  Fig. 9's run records about 250; a
#: long-lived deployment drops the oldest instead of growing forever.
HISTORY_EPOCHS = 1024


@dataclass
class AimdState:
    """Per-destination AIMD state within the global window."""

    min_connections: int
    max_connections: int
    min_bw: float
    max_bw: float
    per_connection_bw: float
    connections: int = field(default=0)
    target_bw: float = field(default=0.0)
    mode: str = field(default="steady")

    def __post_init__(self) -> None:
        if self.min_connections > self.max_connections:
            raise ValueError(
                f"window inverted: {self.min_connections} > "
                f"{self.max_connections}"
            )
        if self.connections == 0:
            self.connections = self.max_connections
        if self.target_bw == 0.0:
            self.target_bw = self.max_bw

    def decrease(self) -> None:
        """Multiplicative decrease: half or window minimum, whichever is
        higher."""
        self.connections = max(self.min_connections, self.connections // 2)
        self.target_bw = max(self.min_bw, self.target_bw / 2.0)
        self.mode = "decrease"

    def increase(self) -> None:
        """Additive increase: one more connection, linear BW growth."""
        self.connections = min(self.max_connections, self.connections + 1)
        self.target_bw = min(
            self.max_bw, self.per_connection_bw * self.connections
        )
        self.mode = "increase"

    def hold(self) -> None:
        """No change this epoch."""
        self.mode = "steady"


@dataclass(slots=True)
class EpochRecord:
    """One epoch's observation for one destination (Fig. 9 data);
    slotted, as a long run keeps thousands."""

    time: float
    dst: str
    monitored_mbps: float
    target_mbps: float
    connections: int
    mode: str


class LocalOptimizer:
    """AIMD controller for one source DC toward all destinations."""

    def __init__(
        self,
        src: str,
        windows: dict[str, AimdState],
        congestion_delta: float = CONGESTION_DELTA_MBPS,
        similarity_band: float = SIMILARITY_BAND_MBPS,
        min_transfer_mb: float = MIN_TRANSFER_MB,
    ) -> None:
        self.src = src
        self.states = windows
        self.congestion_delta = congestion_delta
        self.similarity_band = similarity_band
        self.min_transfer_mb = min_transfer_mb
        # Every epoch appends one record per destination, so this keeps
        # the last HISTORY_EPOCHS epochs of each.
        self.history: deque[EpochRecord] = deque(
            maxlen=HISTORY_EPOCHS * len(windows)
        )

    @classmethod
    def from_plan(cls, src: str, plan: "GlobalPlan") -> "LocalOptimizer":
        """Build states for every destination from a global plan."""
        from repro.core.globalopt import GlobalPlan  # noqa: F401 (typing)

        states: dict[str, AimdState] = {}
        for dst in plan.keys:
            if dst == src:
                continue
            lo_c, hi_c = plan.connection_window(src, dst)
            lo_b, hi_b = plan.bw_window(src, dst)
            per_conn = hi_b / hi_c if hi_c > 0 else 0.0
            states[dst] = AimdState(
                min_connections=lo_c,
                max_connections=hi_c,
                min_bw=lo_b,
                max_bw=hi_b,
                per_connection_bw=per_conn,
            )
        return cls(src, states)

    def epoch(
        self,
        now: float,
        monitored_mbps: dict[str, float],
        window_volume_mb: dict[str, float] | None = None,
    ) -> dict[str, int]:
        """Run one AIMD epoch; returns the new per-destination counts.

        ``monitored_mbps`` is the ifTop-style reading per destination;
        ``window_volume_mb`` the data moved since the previous epoch
        (None → assume large, i.e. always eligible).
        """
        decisions: dict[str, int] = {}
        record = self.history.append
        for dst, state in self.states.items():
            monitored = monitored_mbps.get(dst, 0.0)
            volume = (
                window_volume_mb.get(dst, _INF)
                if window_volume_mb is not None
                else _INF
            )
            if volume < self.min_transfer_mb:
                state.hold()
            elif state.target_bw - monitored > self.congestion_delta:
                state.decrease()
            elif (
                monitored > 0.0
                and monitored >= state.target_bw - self.similarity_band
            ):
                # "Similar" requires a live link: a dead link sitting
                # exactly at the window floor is not improved headroom.
                state.increase()
            else:
                state.hold()
            decisions[dst] = state.connections
            record(
                EpochRecord(
                    now, dst, monitored, state.target_bw,
                    state.connections, state.mode,
                )
            )
        return decisions

    def targets(self) -> dict[str, float]:
        """Current target BW per destination."""
        return {dst: s.target_bw for dst, s in self.states.items()}

    def connection_counts(self) -> dict[str, int]:
        """Current connection count per destination."""
        return {dst: s.connections for dst, s in self.states.items()}
