"""Tests for the fluctuation models."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.dynamics import (
    DAY_S,
    DEFAULT_NOISE_PERIOD_S,
    LINK_DRAW_CACHE_SIZE,
    FluctuationModel,
    StaticModel,
    _link_hash,
    _link_key,
    _link_normal,
    _link_uniform,
)


def uint64_key(seed: int, i: int, j: int, bucket: int) -> int:
    """A link key computed in numpy ``uint64`` scalars."""
    with np.errstate(over="ignore"):
        key = np.uint64(seed) * np.uint64(1_000_003)
        key += np.uint64(i * 131 + j) * np.uint64(2_147_483_647)
        key += np.uint64(bucket & 0xFFFFFFFF)
    return int(key)


def uint64_keyed_jitter(model, i, j, t, window_s) -> float:
    """``snapshot_jitter`` from ``default_rng`` on a ``uint64`` key."""
    if window_s >= 20.0:
        return 1.0
    scale = model.sigma * 0.6 * (1.0 - window_s / 20.0)
    rng = np.random.default_rng(
        uint64_key(model.seed ^ 0x5EED, i, j, int(t * 1000) % (1 << 31))
    )
    return float(np.clip(1.0 + rng.normal(0.0, scale), 0.5, 1.5))


#: Links of the parity grid, the diagonal and both directions included.
GRID_PAIRS = ((0, 1), (1, 0), (2, 7), (7, 2), (3, 3), (5, 4))


def grid_times() -> list[float]:
    """Times on and around noise-bucket boundaries, across a day
    boundary, one before zero, and seeded draws over three days."""
    period = DEFAULT_NOISE_PERIOD_S
    edges = [k * period for k in range(4)] + [DAY_S, 2 * DAY_S]
    times = [-1.0, 0.0, 1e-9, 42.5, DAY_S / 2]
    for edge in edges:
        times += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
        times += [edge - 0.5, edge + 0.5]
    times += list(np.random.default_rng(2024).uniform(0.0, 3 * DAY_S, 40))
    return [float(t) for t in times]


class TestDeterminism:
    def test_same_seed_same_factors(self):
        a = FluctuationModel(seed=5)
        b = FluctuationModel(seed=5)
        for t in (0.0, 100.0, 12345.6):
            assert a.factor(0, 1, t) == b.factor(0, 1, t)

    def test_different_seeds_differ(self):
        a = FluctuationModel(seed=5)
        b = FluctuationModel(seed=6)
        samples_a = [a.factor(0, 1, t) for t in range(0, 10000, 500)]
        samples_b = [b.factor(0, 1, t) for t in range(0, 10000, 500)]
        assert samples_a != samples_b

    def test_links_are_independent(self):
        m = FluctuationModel(seed=5)
        samples_01 = [m.factor(0, 1, t) for t in range(0, 10000, 500)]
        samples_12 = [m.factor(1, 2, t) for t in range(0, 10000, 500)]
        assert samples_01 != samples_12


class TestShape:
    def test_mean_near_one(self):
        m = FluctuationModel(seed=7)
        samples = [
            m.factor(0, 1, t) for t in np.linspace(0, 7 * 86400, 2000)
        ]
        assert 0.9 < np.mean(samples) < 1.1

    def test_bounded_by_floor_and_ceiling(self):
        m = FluctuationModel(seed=7, sigma=1.0)  # violent weather
        for t in np.linspace(0, 86400, 500):
            f = m.factor(0, 1, t)
            assert m.floor <= f <= m.ceiling

    def test_intra_dc_unaffected(self):
        m = FluctuationModel(seed=7)
        assert m.factor(2, 2, 1234.0) == 1.0

    def test_continuity_within_grid_cell(self):
        # Linear interpolation: nearby times give nearby factors.
        m = FluctuationModel(seed=7)
        f1 = m.factor(0, 1, 1000.0)
        f2 = m.factor(0, 1, 1001.0)
        assert abs(f1 - f2) < 0.05

    def test_weather_persists_within_noise_period(self):
        # [38]: predictable on the scale of minutes.
        m = FluctuationModel(seed=7)
        f0 = m.factor(0, 1, 600.0)
        f1 = m.factor(0, 1, 600.0 + m.noise_period_s / 10)
        assert abs(f0 - f1) < 0.15


class TestMemoizedParity:
    """Memoized draws reproduce the uncached model float for float."""

    @pytest.mark.parametrize("seed", [0, 7, 123, 2**31 - 1])
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"sigma": 1.0}, {"noise_period_s": 60.0}, {"diurnal_amplitude": 0.3}],
    )
    def test_factor_matches_uncached_oracle(self, seed, overrides, uncached_factor):
        m = FluctuationModel(seed=seed, **overrides)
        for i, j in GRID_PAIRS:
            for t in grid_times():
                assert m.factor(i, j, t) == uncached_factor(m, i, j, t), (i, j, t)

    @pytest.mark.parametrize(
        "first, second",
        [
            ({"sigma": 0.13}, {"sigma": 0.4}),
            ({"noise_period_s": 300.0}, {"noise_period_s": 45.0}),
        ],
    )
    def test_cache_key_separates_models(self, first, second, uncached_factor):
        for order in ((first, second), (second, first)):
            _link_normal.cache_clear()
            _link_uniform.cache_clear()
            for overrides in order:
                m = FluctuationModel(seed=11, **overrides)
                for t in (10.0, 299.0, 1000.0, 5000.0):
                    assert m.factor(0, 1, t) == uncached_factor(m, 0, 1, t)

    def test_snapshot_jitter_is_not_memoized(self):
        m = FluctuationModel(seed=3)
        before = _link_normal.cache_info()
        rng = _link_hash(m.seed ^ 0x5EED, 0, 1, 12_000)
        scale = m.sigma * 0.6 * (1.0 - 1.0 / 20.0)
        expected = float(np.clip(1.0 + rng.normal(0.0, scale), 0.5, 1.5))
        assert m.snapshot_jitter(0, 1, 12.0, 1.0) == expected
        assert _link_normal.cache_info() == before

    def test_snapshot_jitter_matches_uint64_keyed_draw(self):
        # Keys are computed in Python ints; keys and draws must equal
        # those of a default_rng keyed in numpy uint64 arithmetic.
        for seed in (0, 1, 3, 7, 0x5EED, 2**31 + 5, 2**40 + 3):
            m = FluctuationModel(seed=seed)
            for i, j in GRID_PAIRS:
                for t in (0.0, 0.0004, 1.0, 12.0, 299.9991, 86_400.5, 2.2e6):
                    bucket = int(t * 1000) % (1 << 31)
                    salted = seed ^ 0x5EED
                    assert _link_key(salted, i, j, bucket) == uint64_key(
                        salted, i, j, bucket
                    )
                    for window in (0.25, 1.0, 5.0, 19.99, 20.0, 30.0):
                        assert m.snapshot_jitter(i, j, t, window) == (
                            uint64_keyed_jitter(m, i, j, t, window)
                        ), (seed, i, j, t, window)

    def test_link_key_wraps_like_uint64(self):
        for seed in (0, 2**63 - 1, 2**64 - 1):
            for i, j, bucket in ((0, 1, 0), (7, 6, -1), (255, 255, 2**40)):
                assert _link_key(seed, i, j, bucket) == uint64_key(
                    seed, i, j, bucket
                )
        assert _link_key(np.int64(3), np.int64(1), 2, np.int64(9)) == (
            uint64_key(3, 1, 2, 9)
        )

    def test_caches_stay_bounded(self, uncached_factor):
        assert _link_normal.cache_info().maxsize == LINK_DRAW_CACHE_SIZE
        assert _link_uniform.cache_info().maxsize == LINK_DRAW_CACHE_SIZE
        m = FluctuationModel(seed=5, noise_period_s=1.0)
        sweep = LINK_DRAW_CACHE_SIZE + 100
        for bucket in range(sweep):
            m.factor(0, 1, bucket + 0.5)
        for i in range(sweep):
            _link_uniform(5, i, 0, -3, 0.0, 1.0)
        assert _link_normal.cache_info().currsize == LINK_DRAW_CACHE_SIZE
        assert _link_uniform.cache_info().currsize == LINK_DRAW_CACHE_SIZE
        # Evicted keys are recomputed, not lost.
        assert m.factor(0, 1, 0.5) == uncached_factor(m, 0, 1, 0.5)


class TestSnapshotJitter:
    def test_long_windows_have_no_jitter(self):
        m = FluctuationModel(seed=7)
        assert m.snapshot_jitter(0, 1, 50.0, 20.0) == 1.0

    def test_short_windows_jitter(self):
        m = FluctuationModel(seed=7)
        jitters = {
            m.snapshot_jitter(0, 1, t, 1.0) for t in np.linspace(0, 100, 50)
        }
        assert len(jitters) > 10  # actually varies
        assert all(0.5 <= j <= 1.5 for j in jitters)


class TestStaticModel:
    @given(
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=10),
        st.floats(min_value=0, max_value=1e6),
    )
    def test_always_one(self, i, j, t):
        m = StaticModel()
        assert m.factor(i, j, t) == 1.0
        assert m.snapshot_jitter(i, j, t, 1.0) == 1.0


class TestInstanceCaches:
    """The per-instant terms and per-link entries a model keeps change
    neither its factors nor its identity."""

    LINKS = [(i, j) for i in range(8) for j in range(8) if i != j]

    @staticmethod
    def interleaved_times() -> list[float]:
        """The same ``t`` twice, both sides of a noise-bucket edge, then
        back, around three edges and a day boundary."""
        period = DEFAULT_NOISE_PERIOD_S
        times = []
        for edge in (period, 2 * period, 7 * period, DAY_S):
            below, above = np.nextafter(edge, -np.inf), float(edge)
            times += [below, below, above, above + 0.5, below, edge - 17.0, above]
        return [float(t) for t in times]

    @pytest.mark.parametrize(
        "overrides", [{}, {"noise_period_s": 45.0}, {"sigma": 0.6}]
    )
    def test_long_lived_model_equals_fresh_ones(self, overrides):
        model = FluctuationModel(seed=17, **overrides)
        rng = np.random.default_rng(5)
        times = self.interleaved_times()
        for t in times:
            # Every link at the instant, in a seeded order …
            for k in rng.permutation(len(self.LINKS)):
                i, j = self.LINKS[k]
                fresh = FluctuationModel(seed=17, **overrides).factor(i, j, t)
                assert _packed(model.factor(i, j, t)) == _packed(fresh), (i, j, t)
        # … and links and instants interleaved call by call.
        for _ in range(500):
            i, j = self.LINKS[rng.integers(len(self.LINKS))]
            t = times[rng.integers(len(times))]
            fresh = FluctuationModel(seed=17, **overrides).factor(i, j, t)
            assert _packed(model.factor(i, j, t)) == _packed(fresh), (i, j, t)

    def test_equality_hash_and_repr_ignore_the_caches(self):
        model = FluctuationModel(seed=9)
        before = (repr(model), hash(model))
        for t in self.interleaved_times():
            model.factor(0, 1, t)
        assert model._links and model._instant[0] == self.interleaved_times()[-1]
        twin = FluctuationModel(seed=9)
        assert model == twin and hash(model) == hash(twin)
        assert (repr(model), hash(model)) == before
        assert "_links" not in before[0] and "_instant" not in before[0]
        assert dataclasses.replace(model)._links == {}


def _packed(value: float) -> bytes:
    return struct.pack("<d", value)


class TestClamp:
    """``factor`` clamps by comparisons; it must return what
    ``float(min(max(value, floor), ceiling))`` did, as a float."""

    BOUNDS = [
        (0.35, 1.65),
        (1.0, 1.0),
        (1.2, 0.8),  # a floor above the ceiling: the ceiling wins
        (0, 2),  # ints
        (np.float64(0.9), np.float64(1.05)),
        (float("nan"), 1.1),
        (0.9, float("nan")),
        (float("nan"), float("nan")),
        (-float("inf"), float("inf")),
    ]

    @pytest.mark.parametrize("floor, ceiling", BOUNDS)
    @pytest.mark.parametrize("amplitude", [0.3, np.float64(0.3), float("nan"), 0])
    def test_same_double_as_min_max(self, floor, ceiling, amplitude):
        fields = dict(seed=4, sigma=0.4, diurnal_amplitude=amplitude)
        model = FluctuationModel(floor=floor, ceiling=ceiling, **fields)
        unclamped = FluctuationModel(floor=-np.inf, ceiling=np.inf, **fields)
        rng = np.random.default_rng(3)
        times = [float(t) for t in rng.uniform(0.0, DAY_S, 40)]
        for t in times + [np.float64(t) for t in times[:5]]:
            for i, j in ((0, 1), (2, 7), (5, 4)):
                got = model.factor(i, j, t)
                expected = float(min(max(unclamped.factor(i, j, t), floor), ceiling))
                assert type(got) is float
                assert _packed(got) == _packed(expected), (floor, ceiling, t)
