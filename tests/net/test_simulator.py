"""Tests for the flow-level network simulator."""

import math
import struct

import pytest

from repro.net.dynamics import FluctuationModel
from repro.net.simulator import LAN_MBPS, NetworkSimulator, Transfer


def make_sim(topology, fluctuation=None) -> NetworkSimulator:
    return NetworkSimulator(topology, fluctuation=fluctuation)


class TestTransfers:
    def test_lone_transfer_runs_at_single_connection_cap(self, triad, calm):
        net = make_sim(triad, calm)
        done = []
        cap = triad.single_connection_cap("us-east-1", "ap-southeast-1")
        net.start_transfer(
            "us-east-1", "ap-southeast-1", size_mbits=cap * 10,
            on_complete=done.append,
        )
        net.sim.run()
        assert len(done) == 1
        assert net.sim.now == pytest.approx(10.0, rel=0.01)

    def test_zero_size_transfer_completes_immediately(self, triad, calm):
        net = make_sim(triad, calm)
        done = []
        net.start_transfer(
            "us-east-1", "us-west-1", 0.0, on_complete=done.append
        )
        net.sim.run()
        assert len(done) == 1

    def test_intra_dc_transfer_uses_lan(self, triad, calm):
        net = make_sim(triad, calm)
        net.start_transfer("us-east-1", "us-east-1", LAN_MBPS * 5)
        net.sim.run()
        assert net.sim.now == pytest.approx(5.0, rel=0.01)
        # LAN traffic is not WAN traffic.
        assert net.total_wan_mbits() == 0.0

    def test_cancel_prevents_completion(self, triad, calm):
        net = make_sim(triad, calm)
        done = []
        t = net.start_transfer(
            "us-east-1", "us-west-1", 1e9, on_complete=done.append
        )
        net.sim.run(until=1.0)
        net.cancel_transfer(t)
        net.sim.run(until=1e4)
        assert done == []
        assert t.cancelled

    def test_cancel_zero_size_before_delivery(self, triad, calm):
        # A zero-size transfer is delivered by a zero-delay event;
        # cancelling it before that event runs must stick.
        net = make_sim(triad, calm)
        done = []
        t = net.start_transfer(
            "us-east-1", "us-west-1", 0.0, on_complete=done.append
        )
        net.cancel_transfer(t)
        net.sim.run()
        assert t.cancelled
        assert t.finish_time is None
        assert done == []

    def test_cancel_after_completion_is_a_no_op(self, triad, calm):
        net = make_sim(triad, calm)
        done = []
        t = net.start_transfer(
            "us-east-1", "us-west-1", 100.0, on_complete=done.append
        )
        net.sim.run()
        net.cancel_transfer(t)
        assert not t.cancelled
        assert done == [t]

    def test_unknown_dc_rejected(self, triad):
        net = make_sim(triad)
        with pytest.raises(KeyError):
            net.start_transfer("us-east-1", "nowhere-1", 100.0)

    def test_negative_size_rejected(self, triad):
        net = make_sim(triad)
        with pytest.raises(ValueError):
            net.start_transfer("us-east-1", "us-west-1", -1.0)

    @pytest.mark.parametrize("size", [math.nan, math.inf, -math.inf])
    def test_non_finite_size_rejected(self, triad, calm, size):
        # A NaN size took a share, "completed" at t=0 with a NaN
        # payload; an infinite one never completed, stranding its job.
        net = make_sim(triad, calm)
        with pytest.raises(ValueError, match="us-east-1→us-west-1 must be finite") as info:
            net.start_transfer("us-east-1", "us-west-1", size)
        assert "\n" not in str(info.value)
        assert net.active_transfers() == []
        done = []
        net.start_transfer("us-east-1", "us-west-1", 100.0, on_complete=done.append)
        net.sim.run()
        assert len(done) == 1 and done[0].transferred_mbits == 100.0

    def test_transfers_share_pair_rate_equally(self, triad, calm):
        net = make_sim(triad, calm)
        a = net.start_transfer("us-east-1", "ap-southeast-1", 1e6)
        b = net.start_transfer("us-east-1", "ap-southeast-1", 1e6)
        net.sim.run(until=1.0)
        assert a.rate_mbps == pytest.approx(b.rate_mbps)

    def test_contention_slows_completion(self, triad_workers, calm):
        # A strong flow sharing the egress delays the weak flow versus
        # running alone.  Worker VMs (1200 Mbps egress) are needed here:
        # the pair demands sum to ~1820 Mbps, which saturates a t2.medium
        # NIC but not a burst t3.nano probe's.
        def weak_completion(with_contention: bool) -> float:
            net = make_sim(triad_workers, calm)
            done = {}
            net.start_transfer(
                "us-east-1", "ap-southeast-1", 2000.0,
                on_complete=lambda t: done.setdefault("weak", net.sim.now),
            )
            if with_contention:
                net.start_transfer("us-east-1", "us-west-1", 1e5)
            net.sim.run(until=1e4)
            return done["weak"]

        assert weak_completion(True) > weak_completion(False)

    def test_transfers_compare_by_identity(self):
        first = Transfer("us-east-1", "us-west-1", 100.0, tag="job:shuffle")
        second = Transfer("us-east-1", "us-west-1", 100.0, tag="job:shuffle")
        assert first == first
        assert first != second
        assert len({first, second}) == 2


class TestConnections:
    def test_more_connections_raise_weak_pair_rate(self, triad, calm):
        def rate(k: int) -> float:
            net = make_sim(triad, calm)
            net.set_connections("us-east-1", "ap-southeast-1", k)
            net.start_transfer("us-east-1", "ap-southeast-1", 1e9)
            net.start_transfer("us-east-1", "us-west-1", 1e9)
            net.sim.run(until=1.0)
            return net.current_rate("us-east-1", "ap-southeast-1")

        assert rate(8) > rate(1) * 2

    def test_connection_count_validation(self, triad):
        net = make_sim(triad)
        with pytest.raises(ValueError):
            net.set_connections("us-east-1", "us-west-1", 0)

    def test_plan_roundtrip(self, triad):
        net = make_sim(triad)
        plan = net.connection_plan()
        plan.set("us-east-1", "ap-southeast-1", 6)
        net.set_connection_plan(plan)
        assert net.connections("us-east-1", "ap-southeast-1") == 6
        assert net.connections("us-east-1", "us-west-1") == 1

    @pytest.mark.parametrize("count", [math.nan, math.inf, -math.inf])
    def test_non_finite_count_rejected_at_the_call(self, triad, calm, count):
        net = make_sim(triad, calm)
        with pytest.raises(ValueError, match="us-east-1→us-west-1") as info:
            net.set_connections("us-east-1", "us-west-1", count)
        assert "\n" not in str(info.value)
        assert net.connections("us-east-1", "us-west-1") == 1
        # Nothing was installed, so the event loop still solves.
        done = []
        net.start_transfer("us-east-1", "us-west-1", 100.0, on_complete=done.append)
        net.sim.run()
        assert len(done) == 1

    @pytest.mark.parametrize("count", [math.nan, math.inf])
    def test_non_finite_plan_rejected_at_the_call(self, triad, calm, count):
        net = make_sim(triad, calm)
        plan = net.connection_plan()
        plan.set("us-west-1", "ap-southeast-1", 4)
        plan.set("ap-southeast-1", "us-east-1", count)
        with pytest.raises(ValueError, match="ap-southeast-1→us-east-1") as info:
            net.set_connection_plan(plan)
        assert "\n" not in str(info.value)
        assert net.connections("us-west-1", "ap-southeast-1") == 1
        done = []
        net.start_transfer("ap-southeast-1", "us-east-1", 100.0, on_complete=done.append)
        net.sim.run()
        assert len(done) == 1

    def test_non_finite_diagonal_is_not_read(self, triad):
        net = make_sim(triad)
        plan = net.connection_plan()
        plan.set("us-east-1", "us-east-1", math.nan)
        plan.set("us-east-1", "us-west-1", 3)
        net.set_connection_plan(plan)
        assert net.connections("us-east-1", "us-west-1") == 3

    def test_fractional_counts_truncate(self, triad, calm):
        net = make_sim(triad, calm)
        twin = make_sim(triad, calm)
        net.set_connections("us-east-1", "ap-southeast-1", 2.5)
        twin.set_connections("us-east-1", "ap-southeast-1", 2)
        plan = net.connection_plan()
        plan.set("us-west-1", "ap-southeast-1", 3.9)
        net.set_connection_plan(plan)
        twin.set_connections("us-west-1", "ap-southeast-1", 3)
        assert net.connections("us-east-1", "ap-southeast-1") == 2
        assert net.connections("us-west-1", "ap-southeast-1") == 3
        for subject in (net, twin):
            subject.start_transfer("us-east-1", "ap-southeast-1", 1e9)
            subject.start_transfer("us-west-1", "ap-southeast-1", 1e9)
            subject.sim.run(until=1.0)
        assert net.rate_matrix().values.tobytes() == twin.rate_matrix().values.tobytes()


class TestThrottling:
    def test_tc_limit_caps_rate(self, triad, calm):
        net = make_sim(triad, calm)
        net.tc.set_limit("us-east-1", "us-west-1", 100.0)
        net.start_transfer("us-east-1", "us-west-1", 1e6)
        net.sim.run(until=1.0)
        assert net.current_rate("us-east-1", "us-west-1") <= 100.0 + 1e-6

    def test_clearing_limit_restores_rate(self, triad, calm):
        net = make_sim(triad, calm)
        net.tc.set_limit("us-east-1", "us-west-1", 100.0)
        net.start_transfer("us-east-1", "us-west-1", 1e7)
        net.sim.run(until=1.0)
        capped = net.current_rate("us-east-1", "us-west-1")
        net.tc.clear_limit("us-east-1", "us-west-1")
        net.sim.run(until=2.0)
        assert net.current_rate("us-east-1", "us-west-1") > capped * 2

    def test_pair_capacity_is_min_of_priced_cap_and_limit(self, triad):
        """The limit is applied by a comparison; it must return what
        ``min(cap × factor, limit)`` did."""
        net = make_sim(triad, FluctuationModel(seed=3))
        net.sim.run(until=250.0)
        i, j = triad.index("us-east-1"), triad.index("us-west-1")
        for k in (1, 4, 12):
            priced = net._routes["us-east-1", "us-west-1", k][3] * net.fluctuation.factor(
                i, j, net.sim.now
            )
            for limit in (None, priced * 2, priced, priced / 3, 7):
                if limit is None:
                    net.tc.clear_limit("us-east-1", "us-west-1")
                    expected = min(priced, math.inf)
                else:
                    net.tc.set_limit("us-east-1", "us-west-1", limit)
                    expected = min(priced, limit)
                got = net.pair_capacity("us-east-1", "us-west-1", k)
                assert type(got) is type(expected)
                assert struct.pack("<d", got) == struct.pack("<d", expected)


class TestObservation:
    def test_pair_statistics_accumulate(self, triad, calm):
        net = make_sim(triad, calm)
        net.start_transfer("us-east-1", "us-west-1", 1700.0)
        net.sim.run()
        stats = net.pair_statistics()[("us-east-1", "us-west-1")]
        assert stats.mbits == pytest.approx(1700.0, rel=0.01)
        assert stats.avg_rate_mbps > 0

    def test_reset_statistics(self, triad, calm):
        net = make_sim(triad, calm)
        net.start_transfer("us-east-1", "us-west-1", 1700.0)
        net.sim.run()
        net.reset_statistics()
        assert net.total_wan_mbits() == 0.0

    def test_egress_accounting_by_source(self, triad, calm):
        net = make_sim(triad, calm)
        net.start_transfer("us-east-1", "us-west-1", 800.0)
        net.start_transfer("us-west-1", "us-east-1", 400.0)
        net.sim.run()
        egress = net.egress_mbits_by_dc()
        assert egress["us-east-1"] == pytest.approx(800.0, rel=0.01)
        assert egress["us-west-1"] == pytest.approx(400.0, rel=0.01)

    def test_min_observed_ignores_trickles(self, triad, calm):
        net = make_sim(triad, calm)
        net.start_transfer("us-east-1", "us-west-1", 1e5)
        net.start_transfer("us-east-1", "ap-southeast-1", 1.0)  # trickle
        net.sim.run()
        min_bw = net.min_observed_bw()
        stats = net.pair_statistics()
        trickle = stats[("us-east-1", "ap-southeast-1")].avg_rate_mbps
        assert min_bw > trickle

    def test_fluctuation_changes_rates_over_time(self, triad, weather):
        net = make_sim(triad, weather)
        net.start_transfer("us-east-1", "ap-southeast-1", 1e9)
        rates = []
        for t in (1.0, 400.0, 800.0, 1200.0):
            net.sim.run(until=t)
            rates.append(net.current_rate("us-east-1", "ap-southeast-1"))
        assert len(set(round(r, 1) for r in rates)) > 1
