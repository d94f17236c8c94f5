"""The weather's sine in Python floats against the numpy spelling.

``FluctuationModel.factor`` and ``DiurnalSwing.shape`` take
``math.sin``/``math.pi`` on Python floats; they used the scalar
``np.sin``/``np.pi``, which costs a numpy call per repricing.  The
copies below keep the numpy spelling.  Both must agree as packed
doubles for several seeds, every ordered link of 8 DCs, seeded times
over four weeks and the edges of the noise grid and the day, and the
new code must return a plain ``float``.  A failure names the numpy
version: ``np.sin`` may round differently from the C library's
``sin`` on some platform, and then the weather keeps ``np.sin``.
"""

import math
import random
import struct

import numpy as np
import pytest

from repro.net.dynamics import (
    DAY_S,
    DEFAULT_NOISE_PERIOD_S,
    FluctuationModel,
    _link_normal,
    _link_uniform,
)
from repro.runtime.scenarios import _SELECT_SALT, DiurnalSwing

N_DCS = 8
SEEDS = (1, 7, 2025)
RANDOM_TIMES = 48
FOUR_WEEKS_S = 28 * DAY_S

#: Times every seed checks besides its random ones.
EDGE_TIMES = (
    0.0,
    DEFAULT_NOISE_PERIOD_S,
    2 * DEFAULT_NOISE_PERIOD_S,
    287 * DEFAULT_NOISE_PERIOD_S,
    DAY_S,
    2 * DAY_S,
    7 * DAY_S,
    FOUR_WEEKS_S,
    1e7,
)

LINKS = [(i, j) for i in range(N_DCS) for j in range(N_DCS) if i != j]


def numpy_factor(model: FluctuationModel, i: int, j: int, t: float) -> float:
    """``FluctuationModel.factor`` written with ``np.sin``/``np.pi``."""
    if i == j:
        return 1.0
    bucket = math.floor(t / model.noise_period_s)
    frac = t / model.noise_period_s - bucket
    n0 = _link_normal(model.seed, i, j, bucket, model.sigma)
    n1 = _link_normal(model.seed, i, j, bucket + 1, model.sigma)
    noise = n0 * (1.0 - frac) + n1 * frac
    phase = _link_uniform(model.seed, i, j, -1, 0.0, 2.0 * np.pi)
    diurnal = model.diurnal_amplitude * np.sin(2.0 * np.pi * t / DAY_S + phase)
    return float(min(max(1.0 + noise + diurnal, model.floor), model.ceiling))


def numpy_shape(model: DiurnalSwing, i: int, j: int, t: float) -> float:
    """``DiurnalSwing.shape`` written with ``np.sin``/``np.pi``."""
    phase = _link_uniform(
        model.seed ^ _SELECT_SALT, i, j, -4, -model.phase_spread, model.phase_spread
    )
    return 1.0 - model.amplitude * (
        0.5 + 0.5 * np.sin(2.0 * np.pi * t / model.period_s + phase)
    )


def _times(seed: int) -> list[float]:
    rng = random.Random(seed)
    return list(EDGE_TIMES) + [rng.uniform(0.0, FOUR_WEEKS_S) for _ in range(RANDOM_TIMES)]


def _packed(value) -> bytes:
    return struct.pack("<d", value)


def _assert_same(got, expected, where: str) -> None:
    assert type(got) is float, f"{where}: returned {type(got).__name__}"
    assert _packed(got) == _packed(expected), (
        f"{where}: {got!r} != numpy's {float(expected)!r} (numpy {np.__version__})"
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_factor_matches_numpy_sine(seed):
    model = FluctuationModel(seed=seed)
    for t in _times(seed):
        for i, j in LINKS:
            _assert_same(
                model.factor(i, j, t), numpy_factor(model, i, j, t), f"factor({i}, {j}, {t!r})"
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_diurnal_swing_shape_matches_numpy_sine(seed):
    model = DiurnalSwing(seed=seed)
    for t in _times(seed):
        for i, j in LINKS:
            _assert_same(
                model.shape(i, j, t), numpy_shape(model, i, j, t), f"shape({i}, {j}, {t!r})"
            )
