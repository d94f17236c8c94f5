"""Tests for the AIMD local optimizer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.localopt import HISTORY_EPOCHS, AimdState, EpochRecord, LocalOptimizer


def make_state(**overrides) -> AimdState:
    defaults = dict(
        min_connections=1,
        max_connections=8,
        min_bw=100.0,
        max_bw=800.0,
        per_connection_bw=100.0,
    )
    defaults.update(overrides)
    return AimdState(**defaults)


class TestAimdState:
    def test_initializes_at_maximum(self):
        # §3.2.2: "first sets the target connections and BWs to maximum".
        state = make_state()
        assert state.connections == 8
        assert state.target_bw == 800.0

    def test_decrease_halves_with_floor(self):
        state = make_state()
        state.decrease()
        assert state.connections == 4
        assert state.target_bw == 400.0
        state.decrease()
        state.decrease()
        state.decrease()
        assert state.connections == 1
        assert state.target_bw == 100.0  # floored at min

    def test_increase_is_additive_and_linear(self):
        state = make_state()
        state.decrease()  # 4 conns, 400
        state.increase()
        assert state.connections == 5
        # Linear: per-connection BW × connections.
        assert state.target_bw == 500.0

    def test_increase_capped_at_window_max(self):
        state = make_state()
        state.increase()
        assert state.connections == 8
        assert state.target_bw == 800.0

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError):
            make_state(min_connections=5, max_connections=2)


class TestOptimizerEpochs:
    def make_optimizer(self) -> LocalOptimizer:
        return LocalOptimizer(
            "src", {"d1": make_state(), "d2": make_state()}
        )

    def test_congestion_triggers_decrease(self):
        opt = self.make_optimizer()
        # Monitored far below target (800 − 100 > 100).
        decisions = opt.epoch(5.0, {"d1": 100.0, "d2": 100.0})
        assert decisions == {"d1": 4, "d2": 4}
        assert all(s.mode == "decrease" for s in opt.states.values())

    def test_similar_monitored_triggers_increase(self):
        opt = self.make_optimizer()
        opt.epoch(5.0, {"d1": 100.0, "d2": 100.0})  # decrease to 4/400
        decisions = opt.epoch(10.0, {"d1": 390.0, "d2": 395.0})
        assert decisions == {"d1": 5, "d2": 5}
        assert all(s.mode == "increase" for s in opt.states.values())

    def test_intermediate_monitored_holds(self):
        opt = self.make_optimizer()
        opt.epoch(5.0, {"d1": 100.0, "d2": 100.0})  # 4 conns / 400
        # 250: not within 100 of 400, but 400−250=150>100 → decrease...
        # choose 320: 400−320=80 ≤ 100 → "similar" → increase per paper.
        # A value in neither regime requires delta in (100, 100] — with
        # equal bands the hold case arises only via the volume rule.
        decisions = opt.epoch(
            10.0, {"d1": 250.0, "d2": 250.0},
            window_volume_mb={"d1": 0.2, "d2": 0.2},
        )
        assert decisions == {"d1": 4, "d2": 4}
        assert all(s.mode == "steady" for s in opt.states.values())

    def test_small_transfer_skips_toggle(self):
        # §3.2.2: pairs moving < 1 MB skip the mode toggle.
        opt = self.make_optimizer()
        decisions = opt.epoch(
            5.0, {"d1": 0.0, "d2": 0.0},
            window_volume_mb={"d1": 0.5, "d2": 0.5},
        )
        assert decisions == {"d1": 8, "d2": 8}

    def test_paper_example_thresholds(self):
        # §3.2.2 example: ranges {1000,800,240}-{1000,1600,600} Mbps and
        # {1,2,2}-{1,4,5} connections; decrease fires when monitored
        # < 1500 (DC0-DC1) and < 500 (DC0-DC2).
        d1 = AimdState(2, 4, 800.0, 1600.0, per_connection_bw=400.0)
        d2 = AimdState(2, 5, 240.0, 600.0, per_connection_bw=120.0)
        opt = LocalOptimizer("dc0", {"d1": d1, "d2": d2})
        opt.epoch(5.0, {"d1": 1499.0, "d2": 499.0})
        assert d1.mode == "decrease"
        assert d2.mode == "decrease"
        d1b = AimdState(2, 4, 800.0, 1600.0, per_connection_bw=400.0)
        d2b = AimdState(2, 5, 240.0, 600.0, per_connection_bw=120.0)
        opt2 = LocalOptimizer("dc0", {"d1": d1b, "d2": d2b})
        opt2.epoch(5.0, {"d1": 1501.0, "d2": 501.0})
        assert d1b.mode == "increase"
        assert d2b.mode == "increase"

    def test_history_records_every_destination(self):
        opt = self.make_optimizer()
        opt.epoch(5.0, {"d1": 100.0, "d2": 700.0})
        opt.epoch(10.0, {"d1": 100.0, "d2": 700.0})
        assert len(opt.history) == 4
        assert {r.dst for r in opt.history} == {"d1", "d2"}

    def test_history_keeps_the_last_epochs_of_each_destination(self):
        opt = self.make_optimizer()
        epochs = HISTORY_EPOCHS + 40
        for n in range(1, epochs + 1):
            opt.epoch(5.0 * n, {"d1": 100.0, "d2": 700.0})
        assert len(opt.history) == 2 * HISTORY_EPOCHS
        for dst in ("d1", "d2"):
            times = [r.time for r in opt.history if r.dst == dst]
            assert times == [5.0 * n for n in range(41, epochs + 1)]

    def test_from_plan_builds_states(self):
        from repro.core.globalopt import optimize_connections
        from repro.net.matrix import BandwidthMatrix
        import numpy as np

        bw = BandwidthMatrix(
            ("a", "b", "c"),
            np.array([[0, 500, 120], [500, 0, 130], [120, 130, 0]], float),
        )
        plan = optimize_connections(bw, min_difference=30)
        opt = LocalOptimizer.from_plan("a", plan)
        assert set(opt.states) == {"b", "c"}
        assert opt.states["c"].connections == plan.connection_window(
            "a", "c"
        )[1]


# -- Property: targets always stay inside the window -------------------------

@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=2000.0),
        min_size=1,
        max_size=40,
    )
)
def test_aimd_stays_within_window(monitored_sequence):
    state = make_state()
    opt = LocalOptimizer("src", {"d": state})
    for i, monitored in enumerate(monitored_sequence):
        opt.epoch(float(i * 5), {"d": monitored})
        assert (
            state.min_connections
            <= state.connections
            <= state.max_connections
        )
        assert state.min_bw <= state.target_bw <= state.max_bw


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=30))
def test_sustained_congestion_converges_to_minimum(n_epochs):
    state = make_state()
    opt = LocalOptimizer("src", {"d": state})
    for i in range(n_epochs):
        opt.epoch(float(i * 5), {"d": 0.0})
    if n_epochs >= 3:
        assert state.connections == state.min_connections
        assert state.target_bw == state.min_bw


def test_epoch_record_is_slotted():
    record = EpochRecord(5.0, "b", 120.0, 200.0, 3, "increase")
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.note = "x"
    assert record == EpochRecord(5.0, "b", 120.0, 200.0, 3, "increase")
