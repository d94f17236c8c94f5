"""Tests for throttling, connection manager, and the local agent."""

import numpy as np
import pytest

from repro.core import localopt
from repro.core.agent import LocalAgent, deploy_agents
from repro.core.connections import ConnectionsManager
from repro.core.globalopt import optimize_connections
from repro.core.throttle import apply_throttles, throttle_threshold
from repro.net.matrix import BandwidthMatrix
from repro.net.simulator import NetworkSimulator


@pytest.fixture
def plan(triad):
    bw = BandwidthMatrix(
        triad.keys,
        np.array(
            [[0, 900, 120], [900, 0, 130], [120, 130, 0]], dtype=float
        ),
    )
    return optimize_connections(bw, min_difference=30)


class TestThrottle:
    def test_threshold_is_row_mean_of_min_bw(self, plan):
        t = throttle_threshold(plan, "us-east-1")
        expected = np.mean(
            [
                plan.min_bw.get("us-east-1", "us-west-1"),
                plan.min_bw.get("us-east-1", "ap-southeast-1"),
            ]
        )
        assert t == pytest.approx(expected)

    def test_only_rich_pairs_capped(self, triad, plan):
        net = NetworkSimulator(triad)
        applied = apply_throttles(plan, net.tc, "us-east-1")
        assert "us-west-1" in applied  # the strong pair
        assert "ap-southeast-1" not in applied

    def test_invalid_headroom_rejected(self, triad, plan):
        net = NetworkSimulator(triad)
        with pytest.raises(ValueError):
            apply_throttles(plan, net.tc, "us-east-1", headroom=0.5)


class TestConnectionsManager:
    def test_apply_sets_counts_and_tracks_churn(self, triad):
        net = NetworkSimulator(triad)
        manager = ConnectionsManager(net, "us-east-1")
        delta = manager.apply({"us-west-1": 3, "ap-southeast-1": 8})
        assert delta.added == 2 + 7
        assert net.connections("us-east-1", "us-west-1") == 3
        delta2 = manager.apply({"us-west-1": 1})
        assert delta2.removed == 2
        assert manager.total_added == 9
        assert manager.total_removed == 2

    def test_noop_apply_produces_no_churn(self, triad):
        net = NetworkSimulator(triad)
        manager = ConnectionsManager(net, "us-east-1")
        manager.apply({"us-west-1": 4})
        delta = manager.apply({"us-west-1": 4})
        assert delta.added == 0 and delta.removed == 0

    def test_invalid_count_rejected(self, triad):
        net = NetworkSimulator(triad)
        manager = ConnectionsManager(net, "us-east-1")
        with pytest.raises(ValueError):
            manager.apply({"us-west-1": 0})


class TestLocalAgent:
    def test_agent_starts_at_plan_maximum(self, triad, plan, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        agent = LocalAgent(net, "us-east-1", plan)
        lo, hi = plan.connection_window("us-east-1", "ap-southeast-1")
        assert net.connections("us-east-1", "ap-southeast-1") == hi
        agent.stop()

    def test_agent_backs_off_under_congestion(self, triad, plan, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        agent = LocalAgent(net, "us-east-1", plan, throttling=False)
        # A persistent transfer whose achieved rate sits far below the
        # plan's optimistic max triggers multiplicative decrease.
        net.start_transfer("us-east-1", "ap-southeast-1", 1e9)
        net.start_transfer("us-east-1", "us-west-1", 1e9)
        hi = plan.connection_window("us-east-1", "ap-southeast-1")[1]
        net.sim.run(until=60.0)
        assert len(agent.optimizer.history) > 0
        final = net.connections("us-east-1", "ap-southeast-1")
        assert final <= hi
        agent.stop()

    def test_long_run_keeps_history_bounded(self, triad, plan, calm, monkeypatch):
        # A short bound stands in for HISTORY_EPOCHS, so the run outlives
        # it many times over in a few hundred epochs.
        monkeypatch.setattr(localopt, "HISTORY_EPOCHS", 6)
        net = NetworkSimulator(triad, fluctuation=calm)
        agent = LocalAgent(net, "us-east-1", plan)
        net.start_transfer("us-east-1", "ap-southeast-1", 1e12)
        net.start_transfer("us-east-1", "us-west-1", 1e12)
        net.sim.run(until=300 * localopt.EPOCH_S)
        history = agent.optimizer.history
        assert len(history) == 6 * 2
        # The oldest records went; the last six epochs of both remain.
        last = max(r.time for r in history)
        assert sorted({r.time for r in history})[0] == last - 5 * localopt.EPOCH_S
        assert {r.dst for r in history} == {"ap-southeast-1", "us-west-1"}
        agent.stop()

    def test_deploy_agents_one_per_dc(self, triad, plan, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        agents = deploy_agents(net, plan)
        assert [a.dc for a in agents] == list(triad.keys)
        for agent in agents:
            agent.stop()

    def test_stopped_agent_goes_quiet(self, triad, plan, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        agent = LocalAgent(net, "us-east-1", plan)
        net.sim.run(until=11.0)
        history_len = len(agent.optimizer.history)
        agent.stop()
        net.start_transfer("us-east-1", "us-west-1", 1e6)
        net.sim.run(until=60.0)
        assert len(agent.optimizer.history) == history_len
