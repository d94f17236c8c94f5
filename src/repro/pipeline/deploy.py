"""What a pipeline run installs on a network before a query runs.

A :class:`Deployment` is the output of a
:class:`~repro.pipeline.stages.DeploymentStrategy`: the plan to apply,
whether to run AIMD agents, and whether to throttle BW-rich pairs.
``install``/``teardown`` are idempotent bookends around a query (or a
service interval); teardown clears *only this deployment's own
throttles* — with concurrent deployments sharing one substrate,
``tc.clear_all()`` would wipe other jobs' caps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.agent import LocalAgent, deploy_agents
from repro.core.globalopt import GlobalPlan
from repro.core.throttle import apply_throttles
from repro.net.monitor import SampleSink
from repro.net.simulator import NetworkSimulator


@dataclass
class Deployment:
    """What to install on a network before running a query."""

    variant: str
    plan: Optional[GlobalPlan]
    agents: bool
    throttling: bool
    #: Shared sample sink wired into every agent's monitor (the
    #: runtime service's TelemetryStore).
    telemetry: Optional[SampleSink] = None
    agents_running: list[LocalAgent] = field(default_factory=list)
    #: Agents stopped by teardown, kept for post-run inspection (the
    #: Fig. 9 analysis reads their AIMD epoch histories).
    retired_agents: list[LocalAgent] = field(default_factory=list)

    def install(self, network: NetworkSimulator) -> None:
        """Apply connection counts / throttles / agents to the network."""
        if self.plan is None:
            return
        if self.agents:
            # Agents set their own initial (max) counts and throttles.
            self.agents_running = deploy_agents(
                network,
                self.plan,
                throttling=self.throttling,
                telemetry=self.telemetry,
            )
            return
        plan = self.plan
        if self.variant == "global-only":
            # Without local agents there is no AIMD to back off from the
            # optimistic maximum, so a static deployment pins the
            # window's midpoint — the sustainable configuration.
            counts = plan.max_connections.copy()
            window = plan.min_connections.values + plan.max_connections.values
            counts.values = np.ceil(window / 2.0)
        else:
            counts = plan.max_connections.copy()
        counts.values[counts.values < 1] = 1
        network.set_connection_plan(counts)
        if self.throttling:
            for src in plan.keys:
                apply_throttles(plan, network.tc, src)

    def teardown(self, network: NetworkSimulator) -> None:
        """Stop agents and clear throttles (agents stay inspectable).

        Only the plan's own (src, dst) pairs are cleared — other
        deployments' throttles on the shared substrate survive.
        """
        for agent in self.agents_running:
            agent.stop()
        self.retired_agents.extend(self.agents_running)
        self.agents_running = []
        if self.plan is None:
            return
        for src in self.plan.keys:
            for dst in self.plan.keys:
                if src != dst:
                    network.tc.clear_limit(src, dst)
