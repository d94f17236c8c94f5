"""Percentiles of short rate lists, bit-identical to ``np.percentile``.

The service reads sliding-window p50/p95 estimates of every link many
times per run (drift checks, capacity recalibration, rollups), each
over about twenty samples.  At that size numpy's per-call overhead
costs far more than the arithmetic, so :func:`percentile` does the same
float operations as numpy's default ``linear`` method in pure Python:

* the virtual index is ``v = (n - 1) * (p / 100)``;
* with ``i = floor(v)`` and ``t = v - i`` the result interpolates
  between the ``i``-th and ``i + 1``-th smallest values ``a`` and
  ``b`` as ``a + (b - a) * t``, or as ``b - (b - a) * (1 - t)`` where
  ``t >= 0.5``;
* at ``v >= n - 1`` both ``a`` and ``b`` are the largest value and
  ``t = v + 1`` (numpy's index ``-1``), so an infinite maximum gives
  ``nan`` exactly as numpy does;
* any NaN input gives NaN.

The rule mirrors numpy internals; ``tests/net/test_stats.py`` checks it
against the installed ``np.percentile``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def percentile(
    values: Iterable[float], q: float | Sequence[float]
) -> float | tuple[float, ...]:
    """``np.percentile(values, q)`` for a non-empty list of floats.

    ``q`` is one percentile in [0, 100] or a sequence of them; a
    sequence gives a tuple, computed from one sort.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    if any(map(math.isnan, ordered)):
        ordered = [math.nan]  # every percentile is NaN, as in numpy
    if isinstance(q, (int, float)):
        return _interpolate(ordered, q)
    return tuple(_interpolate(ordered, p) for p in q)


def _interpolate(ordered: list[float], p: float) -> float:
    last = len(ordered) - 1
    v = last * (p / 100)
    if v >= last:
        a = b = ordered[-1]
        t = v + 1
    else:
        i = math.floor(v)
        a = ordered[i]
        b = ordered[i + 1]
        t = v - i
    diff = b - a
    if t >= 0.5:
        return float(b - diff * (1 - t))
    return float(a + diff * t)
