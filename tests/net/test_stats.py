"""The pure-Python percentile against the installed ``np.percentile``."""

import math
import struct

import numpy as np
import pytest

from repro.net.stats import percentile

PS = (0, 5, 37.5, 50, 90, 95, 99, 100)


def packed(value: float) -> bytes:
    return struct.pack("<d", value)


def same(got: float, want: float) -> bool:
    """Bit equality, except that zeros compare by value (see below)."""
    if got == 0.0 and want == 0.0:
        return True
    return packed(got) == packed(want)


def samples(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    if kind == "lognormal":
        return rng.lognormal(5.0, 1.5, size=n)
    if kind == "rounded":
        return np.round(rng.lognormal(3.0, 1.0, size=n))
    if kind == "tied":
        return rng.choice([0.0, 1.0, 2.5, 1000.0], size=n)
    if kind == "huge":
        return rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(300, 308, size=n)
    return rng.choice([-1e308, -1.0, 0.0, 3.0, 1e308, math.inf], size=n)


@pytest.mark.parametrize("kind", ["lognormal", "rounded", "tied", "huge", "with-inf"])
def test_percentile_follows_numpy(kind):
    """Every result equals numpy's, packed double for packed double.

    Zeros are the one exception and compare by value: numpy selects
    with an unstable introselect, so among tied -0.0 and +0.0 values it
    may pick either sign, where :func:`percentile` sorts stably.  The
    service's monitors never publish -0.0 (checked in
    ``tests/runtime/test_observability.py``), so the sign cannot reach
    an estimate there.
    """
    rng = np.random.default_rng(sum(map(ord, kind)))
    for n in range(1, 401):
        x = samples(rng, kind, n)
        ps = PS + (float(rng.uniform(0.0, 100.0)),)
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.percentile(x, ps)
        got = percentile(x.tolist(), ps)
        for p, g, w in zip(ps, got, want.tolist()):
            assert same(g, w), (
                f"percentile departs from numpy {np.__version__} at "
                f"{kind} n={n} p={p}: {g!r} != {w!r}"
            )


@pytest.mark.parametrize("p", PS + (12.345,))
def test_scalar_percentile_is_a_float(p):
    x = [3.0, 1.0, 2.0, 1.0, 7.5]
    got = percentile(x, p)
    assert type(got) is float
    assert packed(got) == packed(float(np.percentile(x, p)))
    assert percentile(x, (p,)) == (got,)


def test_negative_zeros_follow_numpy_bit_for_bit():
    """Without +0.0 among them, tied -0.0 values cannot come back with
    another sign, so here even a zero's sign must match numpy's."""
    rng = np.random.default_rng(5)
    for n in range(1, 40):
        x = rng.choice([-0.0, -0.0, -2.0, 3.0], size=n)
        for p in PS + (float(rng.uniform(0.0, 100.0)),):
            got = percentile(x.tolist(), p)
            want = float(np.percentile(x, p))
            assert packed(got) == packed(want), (x.tolist(), p, got, want)


def test_single_sample_is_every_percentile():
    """One sample sits past the last index for every ``p``: it is both
    neighbours with ``t = v + 1``, which keeps a lone -0.0 negative."""
    for p in PS:
        assert percentile([4.25], p) == 4.25
        assert packed(percentile([-0.0], p)) == packed(float(np.percentile([-0.0], p)))
        assert packed(percentile([-0.0], p)) == packed(-0.0)


@pytest.mark.parametrize(
    "values", [[math.inf, 1.0], [1.0, 5.0, math.inf], [-math.inf, 0.0, math.inf]]
)
def test_infinities_follow_numpy(values):
    for p in PS:
        with np.errstate(over="ignore", invalid="ignore"):
            want = float(np.percentile(values, p))
        got = percentile(values, p)
        assert packed(got) == packed(want), (p, got, want)
    # The largest value is both neighbours at p = 100: inf - inf is nan.
    assert math.isnan(percentile([1.0, math.inf], 100))


@pytest.mark.parametrize("values", [[math.nan, 1.0], [1.0, math.nan], [2.0, math.nan, 1.0]])
def test_any_nan_gives_nan(values):
    """A NaN anywhere makes every percentile NaN, as in numpy; a plain
    sort would leave it wherever comparisons put it."""
    for p in PS:
        assert math.isnan(percentile(values, p))
        assert math.isnan(float(np.percentile(values, p)))
    assert all(map(math.isnan, percentile(values, PS)))


def test_empty_input_is_rejected():
    with pytest.raises(ValueError):
        percentile([], 50)
