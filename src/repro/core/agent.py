"""Local Agent (§4.1.3): WAN Monitor + Local Optimizer + Connections
Manager, wired together as a periodic process on each DC's VM.

Every AIMD epoch the agent reads the monitor's latest rates, runs one
optimizer step, applies the resulting connection counts to the pool, and
(for the default WANify-TC mode) refreshes the throttles on BW-rich
destinations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.connections import ConnectionsManager
from repro.core.globalopt import GlobalPlan
from repro.core.localopt import EPOCH_S, LocalOptimizer
from repro.core.throttle import apply_throttles
from repro.net.monitor import SampleSink, WanMonitor
from repro.net.simulator import NetworkSimulator
from repro.sim.kernel import Process


@dataclass
class LocalAgent:
    """One DC's WANify agent.

    ``telemetry`` is the monitor's :data:`~repro.net.monitor.SampleSink`
    — in the runtime service the shared
    :class:`~repro.runtime.telemetry.TelemetryStore`'s ``record``, so
    the cluster's drift detector sees what every agent's monitor sees.
    """

    network: NetworkSimulator
    dc: str
    plan: GlobalPlan
    throttling: bool = True
    epoch_s: float = EPOCH_S
    telemetry: Optional[SampleSink] = None
    monitor: WanMonitor = field(init=False)
    optimizer: LocalOptimizer = field(init=False)
    manager: ConnectionsManager = field(init=False)
    _process: Process = field(init=False)

    def __post_init__(self) -> None:
        self.monitor = WanMonitor(
            self.network,
            self.dc,
            interval_s=self.epoch_s,
            on_sample=self.telemetry,
        )
        self.optimizer = LocalOptimizer.from_plan(self.dc, self.plan)
        self.manager = ConnectionsManager(self.network, self.dc)
        # Start at the window maximum immediately.
        self.manager.apply(self.optimizer.connection_counts())
        if self.throttling:
            applied = apply_throttles(self.plan, self.network.tc, self.dc)
            # A throttled pair's achievable BW *is* the cap — clip the
            # AIMD window so targets can actually be met (otherwise the
            # optimizer would chase a floor above its own tc limit).
            for dst, cap in applied.items():
                state = self.optimizer.states.get(dst)
                if state is None:
                    continue
                state.max_bw = min(state.max_bw, cap)
                state.min_bw = min(state.min_bw, cap)
                state.target_bw = min(state.target_bw, cap)
                state.per_connection_bw = min(
                    state.per_connection_bw, cap
                )
        self._process = Process(
            self.network.sim,
            self.epoch_s,
            self._epoch,
            start_delay=self.epoch_s,
            priority=3,
        )

    def _epoch(self, now: float) -> None:
        monitored = self.monitor.latest()
        if not monitored:
            return
        volumes = self.monitor.window_volumes_mb(monitored)
        decisions = self.optimizer.epoch(now, monitored, volumes)
        self.manager.apply(decisions)

    def stop(self) -> None:
        """Stop the agent's periodic process and monitor."""
        self._process.stop()
        self.monitor.stop()


def deploy_agents(
    network: NetworkSimulator,
    plan: GlobalPlan,
    throttling: bool = True,
    telemetry: Optional[SampleSink] = None,
) -> list[LocalAgent]:
    """Start one agent per DC in the plan; returns them for later stop().

    ``telemetry`` (a sample sink) is shared by every agent's monitor —
    the runtime service's cluster-wide sample feed.
    """
    return [
        LocalAgent(network, dc, plan, throttling, telemetry=telemetry)
        for dc in plan.keys
    ]
