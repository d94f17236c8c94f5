"""Tests for the TCP throughput model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import tcp


class TestPerConnection:
    def test_fig1_calibration_endpoints(self):
        # US East–US West (~56.6 ms) ≈ 1700 Mbps; US East–AP SE
        # (~221.7 ms) ≈ 121 Mbps.
        assert tcp.per_connection_mbps(56.6) == pytest.approx(1700, rel=0.05)
        assert tcp.per_connection_mbps(221.7) == pytest.approx(121, rel=0.05)

    def test_monotone_decreasing_in_rtt(self):
        rates = [tcp.per_connection_mbps(r) for r in (10, 50, 100, 200, 400)]
        assert rates == sorted(rates, reverse=True)

    def test_capped_at_line_rate(self):
        assert (
            tcp.per_connection_mbps(0.5)
            == tcp.DEFAULT_MODEL.max_single_mbps
        )

    def test_nonpositive_rtt_rejected(self):
        with pytest.raises(ValueError):
            tcp.per_connection_mbps(0.0)

    def test_nine_connections_reach_a_gigabit_on_weak_link(self):
        # §1: "the weakest link ... increased up to 1 Gbps using 9
        # connections" (knee at 8 makes 9 slightly sub-linear).
        agg = tcp.aggregate_cap_mbps(221.7, 9)
        assert 850 < agg < 1150


class TestParallelEfficiency:
    def test_linear_up_to_knee(self):
        for k in range(1, 9):
            assert tcp.parallel_efficiency(k) == float(k)

    def test_flat_or_declining_beyond_knee(self):
        assert tcp.parallel_efficiency(9) <= 8.0
        assert tcp.parallel_efficiency(16) < tcp.parallel_efficiency(9)

    def test_never_below_one_connection(self):
        assert tcp.parallel_efficiency(1000) >= 1.0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            tcp.parallel_efficiency(-1)

    @given(st.integers(min_value=1, max_value=64))
    def test_efficiency_never_exceeds_count_or_knee(self, k):
        eff = tcp.parallel_efficiency(k)
        assert 1.0 <= eff <= min(k, tcp.DEFAULT_KNEE)


class TestWeights:
    def test_uniform_parallelism_preserves_share_ratios(self):
        # The Fig. 2(b) mechanism: multiplying both pairs' connection
        # counts by 8 leaves their weight ratio unchanged.
        near, far = 30.0, 200.0
        single_ratio = tcp.rtt_weight(near, 1) / tcp.rtt_weight(far, 1)
        uniform_ratio = tcp.rtt_weight(near, 8) / tcp.rtt_weight(far, 8)
        assert single_ratio == pytest.approx(uniform_ratio)

    def test_heterogeneous_counts_rebalance(self):
        near, far = 30.0, 200.0
        before = tcp.rtt_weight(far, 1) / tcp.rtt_weight(near, 8)
        after = tcp.rtt_weight(far, 8) / tcp.rtt_weight(near, 1)
        assert after > before


class TestVmEfficiency:
    def test_no_penalty_below_knee(self):
        assert tcp.vm_efficiency(tcp.DEFAULT_VM_KNEE) == 1.0

    def test_penalty_grows_with_streams(self):
        e = [tcp.vm_efficiency(k) for k in (24, 32, 48, 64)]
        assert e == sorted(e, reverse=True)
        assert e[-1] >= tcp.VM_EFFICIENCY_FLOOR

    def test_floor_holds(self):
        assert tcp.vm_efficiency(10_000) == tcp.VM_EFFICIENCY_FLOOR


class TestRttModel:
    def test_transcontinental_rtt_realistic(self):
        # ~2,400 mi US coast-to-coast → 50–70 ms.
        rtt = tcp.rtt_ms_for_distance(2400)
        assert 45 < rtt < 75

    def test_base_latency_at_zero_distance(self):
        assert tcp.rtt_ms_for_distance(0) == pytest.approx(2.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            tcp.rtt_ms_for_distance(-1)


class TestHelpers:
    def test_loss_rate_grows_with_rtt(self):
        assert tcp.loss_rate_estimate(200) > tcp.loss_rate_estimate(50)

    def test_connections_for_target(self):
        rtt = 221.7  # weak link, ~121 Mbps per connection
        assert tcp.connections_for_target(rtt, 1000.0) == 8  # capped at knee
        assert tcp.connections_for_target(rtt, 240.0) == 2
        assert tcp.connections_for_target(rtt, 1.0) == 1
