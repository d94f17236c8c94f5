"""Tests for the bandwidth-dynamics scenario library."""

import dataclasses
import struct

import numpy as np
import pytest

from repro.net.circuits import flap_quality, select_path
from repro.net.dynamics import DAY_S, FluctuationModel, StaticModel, _link_hash
from repro.net.simulator import NetworkSimulator
from repro.pipeline.registry import scenario_registry
from repro.runtime.scenarios import (
    _SELECT_SALT,
    FACTOR_FLOOR,
    FEATURED_COMPOSITIONS,
    CircuitFailover,
    ComposedScenario,
    DiurnalSwing,
    FlappingLink,
    FlashCrowd,
    LinkDegradation,
    PathPolicySwitch,
    ScenarioModel,
    StepDrop,
    _ramp,
    scenario,
    scenario_names,
)


class TestRegistry:
    def test_at_least_four_named_scenarios(self):
        assert len(scenario_registry.mapping) >= 4

    def test_expected_names_present(self):
        names = scenario_names()
        for expected in (
            "diurnal",
            "flash-crowd",
            "link-degradation",
            "link-failure",
            "step-drop",
        ):
            assert expected in names

    def test_unknown_name_raises_with_known_list(self):
        with pytest.raises(KeyError, match="step-drop"):
            scenario("no-such-thing")

    def test_factories_are_deterministic(self):
        for name in scenario_names():
            a = scenario(name, seed=9)
            b = scenario(name, seed=9)
            for t in (0.0, 500.0, 2000.0):
                assert a.factor(0, 1, t) == b.factor(0, 1, t)

    def test_factors_positive_and_floored(self):
        for name in scenario_names():
            model = scenario(name, seed=3)
            for t in (0.0, 700.0, 5000.0, 90000.0):
                for i, j in ((0, 1), (1, 2), (2, 0)):
                    assert model.factor(i, j, t) >= FACTOR_FLOOR

    def test_diagonal_is_identity(self):
        for name in scenario_names():
            assert scenario(name, seed=3).factor(2, 2, 1234.0) == 1.0


class TestShapes:
    def test_step_drop_steps_once(self):
        model = StepDrop(StaticModel(), seed=1, at_s=100.0, level=0.5)
        assert model.factor(0, 1, 99.0) == pytest.approx(1.0)
        assert model.factor(0, 1, 101.0) == pytest.approx(0.5)
        assert model.factor(0, 1, 1e6) == pytest.approx(0.5)

    def test_degradation_ramps_to_residual_and_stays(self):
        model = LinkDegradation(
            StaticModel(),
            seed=1,
            start_s=100.0,
            ramp_s=100.0,
            residual=0.2,
            links=((0, 1),),
        )
        assert model.factor(0, 1, 50.0) == pytest.approx(1.0)
        assert model.factor(0, 1, 150.0) == pytest.approx(0.6)
        assert model.factor(0, 1, 500.0) == pytest.approx(0.2)
        # Untargeted links are untouched.
        assert model.factor(1, 0, 500.0) == pytest.approx(1.0)

    def test_flash_crowd_recovers(self):
        model = FlashCrowd(
            StaticModel(),
            seed=1,
            start_s=100.0,
            duration_s=200.0,
            ramp_s=50.0,
            depth=0.4,
            hit_fraction=1.0,
        )
        assert model.factor(0, 1, 0.0) == pytest.approx(1.0)
        assert model.factor(0, 1, 200.0) == pytest.approx(0.4)
        assert model.factor(0, 1, 1000.0) == pytest.approx(1.0)

    def test_diurnal_swings_within_amplitude(self):
        model = DiurnalSwing(StaticModel(), seed=1, amplitude=0.35)
        values = [model.factor(0, 1, t * 3600.0) for t in range(48)]
        assert min(values) >= 1.0 - 0.35 - 1e-9
        assert max(values) <= 1.0 + 1e-9
        assert max(values) - min(values) > 0.2  # actually swings

    def test_shape_composes_with_base_weather(self):
        base = FluctuationModel(seed=5)
        model = StepDrop(base, seed=5, at_s=0.0, level=0.5)
        t = 1000.0
        assert model.factor(0, 1, t) == pytest.approx(
            max(base.factor(0, 1, t) * 0.5, FACTOR_FLOOR)
        )

    def test_snapshot_jitter_delegates_to_base(self):
        base = FluctuationModel(seed=5)
        model = ScenarioModel(base, seed=5)
        assert model.snapshot_jitter(0, 1, 10.0, 1.0) == base.snapshot_jitter(
            0, 1, 10.0, 1.0
        )


class TestPluggableIntoSimulator:
    def test_simulator_consumes_scenario(self, triad):
        """Transfers run slower after a step drop than before it."""
        model = StepDrop(StaticModel(), seed=1, at_s=50.0, level=0.25)
        net = NetworkSimulator(triad, fluctuation=model)
        before = net.pair_capacity("us-east-1", "us-west-1", 1)
        net.sim.run(until=60.0)
        after = net.pair_capacity("us-east-1", "us-west-1", 1)
        assert after == pytest.approx(before * 0.25, rel=1e-6)


def _uncached_selected(seed, i, j, fraction):
    if fraction >= 1.0:
        return True
    if fraction <= 0.0:
        return False
    rng = _link_hash(seed ^ _SELECT_SALT, i, j, -3)
    return bool(rng.uniform() < fraction)


def _uncached_shape(model, i, j, t, weather):
    """Each built-in shape with a fresh generator per draw (the oracle)."""
    kind = type(model)
    salted = model.seed ^ _SELECT_SALT
    if kind is ComposedScenario:
        combined = 1.0
        for part in model.parts:
            combined *= _uncached_shape(part, i, j, t, weather)
        return combined
    if kind in (ScenarioModel, StepDrop):
        return model.shape(i, j, t)  # no draws
    if kind is DiurnalSwing:
        rng = _link_hash(salted, i, j, -4)
        phase = float(rng.uniform(-model.phase_spread, model.phase_spread))
        return 1.0 - model.amplitude * (
            0.5 + 0.5 * np.sin(2.0 * np.pi * t / model.period_s + phase)
        )
    if kind is FlashCrowd:
        if not _uncached_selected(model.seed, i, j, model.hit_fraction):
            return 1.0
        onset = _ramp(t, model.start_s, model.ramp_s)
        recovery = _ramp(t, model.start_s + model.duration_s, model.ramp_s)
        return 1.0 - (1.0 - model.depth) * max(0.0, onset - recovery)
    if kind is LinkDegradation:
        if model.links:
            hit = (i, j) in model.links
        else:
            hit = _uncached_selected(model.seed, i, j, model.hit_fraction)
        if not hit:
            return 1.0
        return 1.0 - (1.0 - model.residual) * _ramp(t, model.start_s, model.ramp_s)
    if kind is CircuitFailover:
        if not _uncached_selected(model.seed, i, j, model.hit_fraction):
            return 1.0
        fail_at = model.fail_at_s
        if model.spread_s > 0.0:
            rng = _link_hash(salted, i, j, -5)
            fail_at += float(rng.uniform(-model.spread_s, model.spread_s))
        return model.circuit.quality_at(t - fail_at)[0]
    if kind is FlappingLink:
        if t < model.start_s:
            return 1.0
        if not _uncached_selected(model.seed, i, j, model.hit_fraction):
            return 1.0
        rng = _link_hash(salted, i, j, -6)
        phase = float(rng.uniform(0.0, model.period_s))
        return flap_quality(
            t - model.start_s,
            model.period_s,
            model.duty,
            up_quality=1.0,
            down_quality=model.down_quality,
            phase_s=phase,
        )
    if kind is PathPolicySwitch:
        primary = weather(model.base, i, j, t)
        if select_path(primary, model.min_capacity_fraction) == "primary":
            return 1.0
        return model.secondary_quality / max(primary, FACTOR_FLOOR)
    raise AssertionError(f"no uncached oracle for {kind.__name__}")


class TestMemoizedParity:
    """Memoized scenario draws reproduce the uncached shapes exactly."""

    PAIRS = ((0, 1), (1, 0), (0, 2), (2, 6), (6, 2), (3, 7), (4, 5), (1, 1))

    @staticmethod
    def times():
        # Scenario event edges (onsets, ramps, failures, flap periods),
        # noise-bucket edges, a day boundary and seeded draws.
        edges = (0.0, 299.0, 300.0, 300.5, 600.0, 630.0, 660.0, 900.0, 1500.0)
        spread = np.random.default_rng(99).uniform(0.0, 2 * DAY_S, 24)
        return [*edges, DAY_S - 0.25, DAY_S, DAY_S + 300.0, *map(float, spread)]

    @pytest.mark.parametrize(
        "name", scenario_names() + tuple(FEATURED_COMPOSITIONS)
    )
    @pytest.mark.parametrize("seed", [3, 7, 41])
    def test_factor_matches_uncached_oracle(self, name, seed, uncached_factor):
        model = scenario(name, seed=seed)
        for i, j in self.PAIRS:
            for t in self.times():
                if i == j:
                    expected = 1.0
                else:
                    combined = uncached_factor(model.base, i, j, t) * _uncached_shape(
                        model, i, j, t, uncached_factor
                    )
                    expected = float(max(combined, FACTOR_FLOOR))
                assert model.factor(i, j, t) == expected, (name, i, j, t)


class TestLinkEntries:
    """A scenario's per-link entries change neither its factors nor its
    identity."""

    LINKS = [(i, j) for i in range(8) for j in range(8) if i != j]
    NAMES = scenario_names() + tuple(FEATURED_COMPOSITIONS)

    @staticmethod
    def times() -> list[float]:
        # Seeded instants over the scenarios' event windows and two
        # days, each priced twice in a row and once again later.
        rng = np.random.default_rng(31)
        times = [float(t) for t in rng.uniform(0.0, 2000.0, 6)]
        times += [float(t) for t in rng.uniform(0.0, 2 * DAY_S, 3)]
        return [t for t in times for _ in (0, 1)] + times[:3]

    @pytest.mark.parametrize("name", NAMES)
    def test_long_lived_model_equals_fresh_ones(self, name):
        model = scenario(name, seed=13)
        order = np.random.default_rng(7)
        for t in self.times():
            for k in order.permutation(len(self.LINKS)):
                i, j = self.LINKS[k]
                fresh = scenario(name, seed=13).factor(i, j, t)
                assert struct.pack("<d", model.factor(i, j, t)) == struct.pack(
                    "<d", fresh
                ), (name, i, j, t)

    @pytest.mark.parametrize("name", NAMES)
    def test_equality_hash_and_repr_ignore_the_entries(self, name):
        model = scenario(name, seed=13)
        before = (repr(model), hash(model))
        for i, j in self.LINKS:
            model.factor(i, j, 700.0)
        twin = scenario(name, seed=13)
        assert model == twin and hash(model) == hash(twin)
        assert (repr(model), hash(model)) == before
        assert "_links" not in before[0]
        assert dataclasses.replace(model)._links == {}


@dataclasses.dataclass(frozen=True)
class _FixedShape(ScenarioModel):
    """A shape that returns ``value`` on every link."""

    value: object = 1.0

    def shape(self, i, j, t):
        return self.value


class TestFactorFloor:
    """``ScenarioModel.factor`` floors by a comparison; it must return
    what ``float(max(base × shape, FACTOR_FLOOR))`` did, as a float."""

    @pytest.mark.parametrize(
        "value",
        [1.0, 0.5, 1e-3, 0.0, -0.0, -2.0, float("nan"), float("inf"), np.float64(0.7),
         np.float64(1e-4), 1, 0, True],
    )
    def test_same_double_as_max(self, value):
        base = FluctuationModel(seed=8)
        model = _FixedShape(base, 8, value=value)
        for t in (10.0, 700.0, np.float64(1234.5)):
            for i, j in ((0, 1), (3, 2)):
                got = model.factor(i, j, t)
                expected = float(max(base.factor(i, j, t) * value, FACTOR_FLOOR))
                assert type(got) is float
                assert struct.pack("<d", got) == struct.pack("<d", expected), (value, t)
