"""Algorithm 1 — INFER_DC_RELATIONS.

Derives a *closeness index* per DC pair from a runtime BW matrix:
index 1 means "closest" (highest BW level), larger indices mean farther
(weaker) pairs.  The algorithm:

1. collect the unique BW values, sorted ascending;
2. walking from the top, drop any value within ``min_difference`` (the
   paper's ``D``) of its predecessor — this merges statistically
   indistinguishable levels;
3. assign each pair the index of its (nearest) surviving level, flipped
   so the highest level is index 1.

Worked example from the paper (§3.2.1): ``bw = [[1000, 400, 120],
[380, 1000, 130], [110, 120, 1000]]`` with ``D = 30`` filters the levels
to ``{110, 380, 1000}`` and yields closeness 1 for 1000, 2 for
{400, 380}, and 3 for {120, 130, 110}.

Deviation from the pseudocode as printed: the paper's loop bounds are
``for i = 1 to N/2`` which would only fill a quarter of the matrix (and
is impossible for odd N); we iterate over all cells, which is what the
worked example's output implies.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.checks import check_min_difference


def filter_levels(values: np.ndarray, min_difference: float) -> list[float]:
    """Unique BW levels with near-duplicates merged (lines 3–8).

    Traverses the sorted unique values from the top and removes any
    value closer than ``min_difference`` to its predecessor, keeping the
    *lower* of the two — exactly the paper's reverse traversal.

    >>> filter_levels(np.array([110, 120, 130, 380, 400, 1000]), 30)
    [110.0, 380.0, 1000.0]
    """
    check_min_difference(min_difference)
    unique = sorted(set(float(v) for v in np.asarray(values).ravel()))
    i = len(unique) - 1
    while i >= 1:
        if unique[i] - unique[i - 1] < min_difference:
            del unique[i]
        i -= 1
    return unique


def _nearest_level_index(value: float, levels: list[float]) -> int:
    """1-based index of the level nearest to ``value`` (lines 12–18)."""
    pos = bisect.bisect_left(levels, value)
    if pos < len(levels) and levels[pos] == value:
        return pos + 1
    # Interval case: pick whichever neighbour is closer (m1 vs m2).
    lo = max(0, pos - 1)
    hi = min(len(levels) - 1, pos)
    if abs(value - levels[lo]) <= abs(levels[hi] - value):
        return lo + 1
    return hi + 1


def infer_dc_relations(
    bw: np.ndarray, min_difference: float = 100.0
) -> np.ndarray:
    """Closeness-index matrix ``DCrel`` for a runtime BW matrix.

    ``bw`` must be square with the *intra-DC* BW on the diagonal (the
    paper's example uses the LAN rate there, which naturally lands on
    the highest level → closeness 1).

    >>> bw = np.array([[1000, 400, 120], [380, 1000, 130], [110, 120, 1000]])
    >>> infer_dc_relations(bw, 30).tolist()
    [[1, 2, 3], [2, 1, 3], [3, 3, 1]]
    """
    bw = np.asarray(bw, dtype=float)
    if bw.ndim != 2 or bw.shape[0] != bw.shape[1]:
        raise ValueError(f"bw must be square, got shape {bw.shape}")
    n = bw.shape[0]
    levels = filter_levels(bw, min_difference)
    n_levels = len(levels)
    rel = np.ones((n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            k = _nearest_level_index(float(bw[i, j]), levels)
            rel[i, j] = n_levels - k + 1
    return rel
