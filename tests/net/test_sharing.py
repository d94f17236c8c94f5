"""Tests for the weighted max-min allocator, including hypothesis
properties on feasibility and bottleneck tightness."""

import math
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.sharing import allocate

EPS = 1e-6


class PairFlow(NamedTuple):
    """One flow of a test instance; :func:`solve` hands ``allocate``
    the instance's flows as its parallel lists."""

    src: int
    dst: int
    weight: float
    cap: float


def solve(flows, egress, ingress):
    """``allocate`` on ``flows`` given as :class:`PairFlow` rows."""
    return allocate(
        [f.src for f in flows],
        [f.dst for f in flows],
        [f.weight for f in flows],
        [f.cap for f in flows],
        egress,
        ingress,
    )


class TestBasics:
    def test_single_flow_hits_its_cap(self):
        flows = [PairFlow(0, 1, weight=1.0, cap=100.0)]
        assert solve(flows, [1000, 1000], [1000, 1000]) == [100.0]

    def test_single_flow_limited_by_egress(self):
        flows = [PairFlow(0, 1, weight=1.0, cap=1e9)]
        assert solve(flows, [50, 1000], [1000, 1000]) == [50.0]

    def test_single_flow_limited_by_ingress(self):
        flows = [PairFlow(0, 1, weight=1.0, cap=1e9)]
        assert solve(flows, [1000, 1000], [1000, 30]) == [30.0]

    def test_equal_weights_share_equally(self):
        flows = [
            PairFlow(0, 1, weight=1.0, cap=1e9),
            PairFlow(0, 2, weight=1.0, cap=1e9),
        ]
        rates = solve(flows, [100, 0, 0], [0, 1000, 1000])
        assert rates[0] == pytest.approx(50.0)
        assert rates[1] == pytest.approx(50.0)

    def test_weighted_shares_proportional(self):
        flows = [
            PairFlow(0, 1, weight=3.0, cap=1e9),
            PairFlow(0, 2, weight=1.0, cap=1e9),
        ]
        rates = solve(flows, [100, 0, 0], [0, 1000, 1000])
        assert rates[0] == pytest.approx(75.0)
        assert rates[1] == pytest.approx(25.0)

    def test_capped_flow_releases_capacity(self):
        flows = [
            PairFlow(0, 1, weight=3.0, cap=10.0),
            PairFlow(0, 2, weight=1.0, cap=1e9),
        ]
        rates = solve(flows, [100, 0, 0], [0, 1000, 1000])
        assert rates[0] == pytest.approx(10.0)
        assert rates[1] == pytest.approx(90.0)

    def test_zero_cap_flow_gets_zero(self):
        flows = [PairFlow(0, 1, weight=1.0, cap=0.0)]
        assert solve(flows, [100, 100], [100, 100]) == [0.0]

    def test_empty_input(self):
        assert allocate([], [], [], [], [100], [100]) == []

    def test_invalid_weight_rejected(self):
        with pytest.raises(ValueError, match="positive and finite: 0.0"):
            allocate([0], [1], [0.0], [1.0], [100.0] * 2, [100.0] * 2)

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match=r"cap must be ≥ 0 \(inf allowed\): -1.0"):
            allocate([0], [1], [1.0], [-1.0], [100.0] * 2, [100.0] * 2)

    @pytest.mark.parametrize("weight", [math.inf, math.nan, -math.inf, -1.0])
    def test_non_finite_or_negative_weight_rejected(self, weight):
        # An infinite weight left a 50 Mbps NIC idle and a NaN one
        # handed out more than the NIC carries; both fail at once, also
        # behind a valid flow and on a flow whose zero cap freezes it.
        with pytest.raises(ValueError, match="positive and finite"):
            allocate([0, 0], [1, 1], [1.0, weight], [100.0, 0.0], [50.0] * 2, [50.0] * 2)

    def test_nan_cap_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            allocate([0, 0], [1, 1], [1.0, 1.0], [100.0, math.nan], [50.0] * 2, [50.0] * 2)

    def test_infinite_cap_allowed(self):
        flows = [PairFlow(0, 1, weight=1.0, cap=math.inf)]
        assert solve(flows, [50.0, 50.0], [50.0, 50.0]) == [50.0]

    def test_cross_traffic_uses_distinct_resources(self):
        flows = [
            PairFlow(0, 1, weight=1.0, cap=1e9),
            PairFlow(2, 3, weight=1.0, cap=1e9),
        ]
        rates = solve(flows, [100, 0, 200, 0], [0, 100, 0, 200])
        assert rates[0] == pytest.approx(100.0)
        assert rates[1] == pytest.approx(200.0)

    def test_caps_returned_exactly_when_no_nic_can_saturate(self):
        flows = [
            PairFlow(0, 1, weight=1.0, cap=30.0),
            PairFlow(0, 2, weight=3.0, cap=0.1 + 0.2),
            PairFlow(1, 2, weight=2.0, cap=1e-10),
        ]
        assert solve(flows, [100.0] * 3, [100.0] * 3) == [30.0, 0.1 + 0.2, 0.0]

    def test_nic_at_its_demand_still_gives_the_caps(self):
        flows = [PairFlow(0, 1, weight=1.0, cap=30.0), PairFlow(0, 2, weight=2.0, cap=20.0)]
        assert solve(flows, [50.0] * 3, [100.0] * 3) == pytest.approx([30.0, 20.0])

    def test_weights_summing_past_the_largest_double(self):
        # The live weight on the NIC overflows to inf, but the caps fit.
        flows = [PairFlow(0, 1, weight=1e308, cap=1.0)] * 2
        assert solve(flows, [10.0, 10.0], [10.0, 10.0]) == [1.0, 1.0]


def test_simulator_alias_is_the_one_solver():
    import repro.net.simulator as simulator_module

    assert simulator_module.allocate_batch is allocate, (
        "perfbench/tracer.py wraps repro.net.simulator.allocate_batch "
        "(site net.alloc); keep the alias bound to allocate until the "
        "kernel knob goes"
    )


# -- Hypothesis properties --------------------------------------------------

N_DCS = 4

flow_strategy = st.builds(
    PairFlow,
    src=st.integers(min_value=0, max_value=N_DCS - 1),
    dst=st.integers(min_value=0, max_value=N_DCS - 1),
    weight=st.floats(min_value=0.01, max_value=100.0),
    cap=st.floats(min_value=0.0, max_value=5000.0),
)

caps_strategy = st.lists(
    st.floats(min_value=1.0, max_value=5000.0),
    min_size=N_DCS,
    max_size=N_DCS,
)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(flow_strategy, min_size=1, max_size=12),
    caps_strategy,
    caps_strategy,
)
def test_allocation_is_feasible(flows, egress, ingress):
    """No flow exceeds its cap; no resource is oversubscribed."""
    rates = solve(flows, egress, ingress)
    assert len(rates) == len(flows)
    used_egress = [0.0] * N_DCS
    used_ingress = [0.0] * N_DCS
    for flow, rate in zip(flows, rates):
        assert -EPS <= rate <= flow.cap + EPS
        used_egress[flow.src] += rate
        used_ingress[flow.dst] += rate
    for i in range(N_DCS):
        assert used_egress[i] <= egress[i] * (1 + 1e-6) + EPS
        assert used_ingress[i] <= ingress[i] * (1 + 1e-6) + EPS


@settings(max_examples=80, deadline=None)
@given(
    st.lists(flow_strategy, min_size=1, max_size=12),
    caps_strategy,
    caps_strategy,
)
def test_every_flow_is_bottlenecked(flows, egress, ingress):
    """Pareto efficiency: each flow is stopped by its cap or by a
    saturated resource (no free capacity left on its path)."""
    rates = solve(flows, egress, ingress)
    used_egress = [0.0] * N_DCS
    used_ingress = [0.0] * N_DCS
    for flow, rate in zip(flows, rates):
        used_egress[flow.src] += rate
        used_ingress[flow.dst] += rate
    tol = 1e-3
    for flow, rate in zip(flows, rates):
        at_cap = rate >= flow.cap - tol
        egress_full = used_egress[flow.src] >= egress[flow.src] - tol
        ingress_full = used_ingress[flow.dst] >= ingress[flow.dst] - tol
        assert at_cap or egress_full or ingress_full


@settings(max_examples=60, deadline=None)
@given(st.lists(flow_strategy, min_size=1, max_size=12), st.floats(1.0, 4.0))
def test_flows_get_their_caps_under_nic_headroom(flows, headroom):
    """Where every NIC carries less than it can, each flow gets
    exactly its cap, and a cap of at most 1e-9 gets 0."""
    egress = [1.0] * N_DCS
    ingress = [1.0] * N_DCS
    for flow in flows:
        egress[flow.src] += flow.cap * headroom
        ingress[flow.dst] += flow.cap * headroom
    rates = solve(flows, egress, ingress)
    assert rates == [f.cap if f.cap > 1e-9 else 0.0 for f in flows]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(flow_strategy, min_size=2, max_size=10),
    caps_strategy,
    caps_strategy,
)
def test_allocation_deterministic(flows, egress, ingress):
    assert solve(flows, egress, ingress) == solve(flows, egress, ingress)


@st.composite
def flow_sets(draw, max_dcs=4, max_flows=8):
    n_dcs = draw(st.integers(min_value=2, max_value=max_dcs))
    n_flows = draw(st.integers(min_value=1, max_value=max_flows))
    caps = st.floats(min_value=10.0, max_value=5000.0)
    weights = st.floats(min_value=0.01, max_value=100.0)
    flows = []
    for _ in range(n_flows):
        src = draw(st.integers(min_value=0, max_value=n_dcs - 1))
        dst = draw(
            st.integers(min_value=0, max_value=n_dcs - 1).filter(
                lambda d, s=src: d != s
            )
        )
        flows.append(
            PairFlow(src, dst, weight=draw(weights), cap=draw(caps))
        )
    egress = [draw(caps) for _ in range(n_dcs)]
    ingress = [draw(caps) for _ in range(n_dcs)]
    return flows, egress, ingress


@st.composite
def single_egress_flows(draw, max_flows=8):
    """Flows all leaving DC 0 toward ample-ingress destinations — one
    shared bottleneck."""
    n_flows = draw(st.integers(min_value=2, max_value=max_flows))
    caps = st.floats(min_value=10.0, max_value=5000.0)
    weights = st.floats(min_value=0.01, max_value=100.0)
    flows = [
        PairFlow(
            0,
            draw(st.integers(min_value=1, max_value=4)),
            weight=draw(weights),
            cap=draw(caps),
        )
        for _ in range(n_flows)
    ]
    egress = [draw(caps)] + [1e9] * 4
    ingress = [1e9] * 5
    return flows, egress, ingress


@settings(max_examples=60, deadline=None)
@given(data=single_egress_flows())
def test_new_flow_on_shared_nic_never_raises_existing_rates(data):
    """On a single shared bottleneck, contention only takes, never
    gives — the §2.2 'race condition' in property form.

    Deliberately single-resource: across *multiple* resources max-min
    is famously non-monotone (a new flow can freeze a competitor early
    and free capacity the competitor was holding elsewhere); hypothesis
    finds such counterexamples within seconds if this property is
    stated globally.
    """
    flows, egress, ingress = data
    before = solve(flows[:-1], egress, ingress)
    after = solve(flows, egress, ingress)
    for old, new in zip(before, after):
        assert new <= old + 1e-6


@settings(max_examples=60, deadline=None)
@given(data=flow_sets())
def test_allocation_is_deterministic(data):
    flows, egress, ingress = data
    first = solve(flows, egress, ingress)
    second = solve(flows, egress, ingress)
    assert first == second


@settings(max_examples=60, deadline=None)
@given(data=flow_sets(), scale=st.floats(min_value=0.1, max_value=10.0))
def test_weights_are_scale_invariant(data, scale):
    """Multiplying every weight by a constant leaves the allocation
    unchanged — only relative weights matter."""
    flows, egress, ingress = data
    scaled = [
        PairFlow(f.src, f.dst, weight=f.weight * scale, cap=f.cap)
        for f in flows
    ]
    base = solve(flows, egress, ingress)
    rescaled = solve(scaled, egress, ingress)
    for a, b in zip(base, rescaled):
        assert a == pytest.approx(b, rel=1e-6, abs=1e-6)
