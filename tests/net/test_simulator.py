"""Tests for the flow-level network simulator."""

import math
import struct

import numpy as np
import pytest

from repro.net import simulator as simulator_module
from repro.net import tcp
from repro.net.dynamics import FluctuationModel
from repro.net.simulator import LAN_MBPS, NetworkSimulator, PairStats, Transfer
from repro.net.topology import Topology


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


def _same(a, b) -> bool:
    """Equal as packed doubles and of one type."""
    return type(a) is type(b) and struct.pack("<d", a) == struct.pack("<d", b)


class TestRemainingClamp:
    """``Transfer.remaining_mbits`` clamps by a comparison; it must
    return what ``max(0.0, size - transferred)`` did, NaN and -0.0
    included (both read 0.0)."""

    CASES = [
        (10.0, 4.0),
        (10.0, 10.0),
        (10.0, 10.0 - 1e-6),
        (10.0, math.nextafter(10.0, 11.0)),  # a hair past the size
        (10.0, 12.5),  # negative remainder
        (-0.0, 0.0),  # -0.0 remainder
        (0.0, 0.0),
        (7, 3),  # ints stay ints
        (7, 9),
        (float("nan"), 1.0),
        (math.inf, 1.0),
        (math.inf, math.inf),
        (5.0, -math.inf),
        (np.float64(3.5), 1.0),
    ]

    @pytest.mark.parametrize("size, done", CASES)
    def test_same_as_max(self, size, done):
        transfer = Transfer("a", "b", size)
        transfer.transferred_mbits = done
        assert _same(transfer.remaining_mbits, max(0.0, size - done))

    @pytest.mark.parametrize("size, done", CASES)
    def test_done_follows(self, size, done):
        transfer = Transfer("a", "b", size)
        transfer.transferred_mbits = done
        assert transfer.done is (max(0.0, size - done) <= 1e-9)


class TestSlotted:
    """``Transfer`` and ``PairStats`` are slotted: their fields are all
    an instance has."""

    @pytest.mark.parametrize("instance", [Transfer("a", "b", 1.0), PairStats()])
    def test_no_ad_hoc_attributes(self, instance):
        assert not hasattr(instance, "__dict__")
        with pytest.raises(AttributeError):
            instance.note = "x"

    def test_transfers_still_compare_by_identity(self):
        a, b = Transfer("a", "b", 1.0), Transfer("a", "b", 1.0)
        assert a != b and a == a
        assert len({a, b}) == 2

    def test_pair_stats_keep_value_equality(self):
        assert PairStats(1.0, 2.0) == PairStats(1.0, 2.0)
        assert PairStats().avg_rate_mbps == 0.0


class TestIdleNicSkip:
    """A solve skips ``tcp.vm_efficiency`` for a DC side with no active
    connections: ``vm_efficiency(0)`` is 1.0 and ``x * 1.0`` is ``x``."""

    @pytest.mark.parametrize(
        "cap",
        [1200.0, 0.0, -0.0, 1e308, math.inf, float("nan"), np.float64(2500.0), 5e-324],
    )
    def test_times_idle_efficiency_is_the_cap(self, cap):
        assert tcp.vm_efficiency(0) == 1.0
        assert _same(cap * tcp.vm_efficiency(0), cap)

    def test_solve_sees_the_nics_it_saw(self, monkeypatch):
        """The NIC lists ``allocate`` receives equal the old expression
        (``cap × vm_efficiency(conns // vms)`` on every side), with busy
        sides past the VM knee, busy ones below it and idle ones."""
        keys = ("us-east-1", "us-west-1", "ap-southeast-1", "eu-west-1")
        topology = Topology.build(keys, "t2.medium", vms_per_dc={**dict.fromkeys(keys, 1), "us-west-1": 2})
        net = NetworkSimulator(topology, fluctuation=FluctuationModel(seed=2))
        seen = []
        real = simulator_module.allocate

        def spy(src, dst, weight, cap, egress, ingress):
            seen.append((list(src), list(dst), list(egress), list(ingress)))
            return real(src, dst, weight, cap, egress, ingress)

        monkeypatch.setattr(simulator_module, "allocate", spy)
        net.set_connections("us-east-1", "us-west-1", 40)  # past the knee
        net.set_connections("us-west-1", "ap-southeast-1", 30)  # 2 VMs: 15 each
        net.start_transfer("us-east-1", "us-west-1", 5e4)
        net.start_transfer("us-west-1", "ap-southeast-1", 3e4)
        net.sim.run(until=1.0)
        net.start_transfer("us-east-1", "ap-southeast-1", 2e4)
        net.sim.run()
        assert len(seen) >= 3
        idle = busy_knee = 0
        for src, dst, egress, ingress in seen:
            out_conns = [0] * len(keys)
            in_conns = [0] * len(keys)
            for i, j in zip(src, dst):
                k = net.connections(keys[i], keys[j])
                out_conns[i] += k
                in_conns[j] += k
            for i, dc in enumerate(topology.dcs):
                vms = max(1, dc.num_vms)
                want_out = dc.egress_cap_mbps * tcp.vm_efficiency(out_conns[i] // vms)
                want_in = dc.ingress_cap_mbps * tcp.vm_efficiency(in_conns[i] // vms)
                assert _same(egress[i], want_out) and _same(ingress[i], want_in)
                idle += (out_conns[i] == 0) + (in_conns[i] == 0)
                busy_knee += tcp.vm_efficiency(out_conns[i] // vms) < 1.0
        assert idle > 0 and busy_knee > 0


class TestSentMbits:
    """``NetworkSimulator.sent_mbits`` reads just the asked pairs after
    one progress, as ``pair_statistics()`` reports them."""

    def test_matches_pair_statistics(self, triad, weather):
        net = make_sim(triad, weather)
        net.start_transfer("us-east-1", "us-west-1", 4e5)
        net.start_transfer("us-east-1", "ap-southeast-1", 1e5)
        net.start_transfer("us-west-1", "us-east-1", 1e5)
        for until in (3.0, 17.5, 40.0):
            net.sim.run(until=until)
            dsts = ["ap-southeast-1", "us-west-1", "us-east-1", "nowhere"]
            got = net.sent_mbits("us-east-1", dsts)
            stats = net.pair_statistics()
            want = [
                stats[("us-east-1", dst)].mbits if ("us-east-1", dst) in stats else 0.0
                for dst in dsts
            ]
            assert [struct.pack("<d", v) for v in got] == [
                struct.pack("<d", v) for v in want
            ]
            assert got[0] > 0 and got[1] > 0 and got[2] == 0.0

    def test_creates_no_statistics(self, triad, calm):
        net = make_sim(triad, calm)
        assert net.sent_mbits("us-east-1", iter(["us-west-1"])) == [0.0]
        assert net.pair_statistics() == {}
