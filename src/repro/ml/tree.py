"""CART regression trees.

At each node the best axis-aligned split is the one maximizing the
reduction in sum of squared errors, found by sorting each candidate
feature once and scanning prefix sums.

The grow runs in pure Python: the forest's nodes are tiny (median six
samples), where numpy's per-call overhead costs far more than the
arithmetic.  It performs the same float operations, in the same order,
as the numpy formulation of the search, so every tree is bit-identical
to it node for node:

* a node's value is ``np.mean`` of its targets and the parent SSE is
  ``np.sum((y - mean) ** 2)``, both replicated by :func:`pairwise_sum`;
* prefix sums add sequentially, like ``np.cumsum``;
* each feature's order is a stable sort, like ``argsort(kind="stable")``;
* the best position is the first maximum of the gains, like
  ``np.argmax`` (a NaN gain wins, as it does there);
* the features examined per split are the ``Generator.choice`` draw
  without replacement, replayed by :func:`sample_without_replacement`
  from the same PCG64 words.

:func:`pairwise_sum` and :func:`sample_without_replacement` mirror
numpy-internal rules; the differential tests against the numpy
formulation pin them per numpy version.  A fitted tree keeps no copy of
its training data.  It is stored as flat per-field node arrays in
preorder (root first, each left subtree before its right), and
:meth:`RegressionTree.predict` walks all rows down them one level at a
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate
from operator import add, mul
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

_LEAF = -1

#: numpy's pairwise-summation block: up to this many elements are
#: summed by eight interleaved accumulators, larger runs are halved.
_PW_BLOCK = 128

#: PCG64 words fetched from the bit generator at a time.
_RAW_BLOCK = 64

_U32 = 0xFFFFFFFF


def pairwise_sum(values: Sequence[float]) -> float:
    """``np.add.reduce`` of a contiguous float64 array, bit for bit.

    numpy adds fewer than 8 elements sequentially.  Up to 128 it keeps
    8 accumulators, one per residue mod 8, combines them as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and then adds the tail;
    above 128 it recurses on halves split at a multiple of 8.  The
    reduction starts from the identity ``0.0``, so a zero sum is +0.0.
    """
    n = len(values)
    if n < 8:
        return reduce(add, values, 0.0)
    if n <= _PW_BLOCK:
        end = n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = (
            reduce(add, values[j:end:8]) for j in range(8)
        )
        head = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        # Adding the identity changes only the sign of a zero.
        return reduce(add, values[end:], 0.0 + head)
    half = n // 2
    half -= half % 8
    return pairwise_sum(values[:half]) + pairwise_sum(values[half:])


def uint32_stream(bit_generator: np.random.BitGenerator) -> Iterator[int]:
    """The generator's ``next_uint32`` values: each 64-bit word, low half first.

    Words are fetched in blocks, so the bit generator runs ahead of what
    is consumed; it must not be shared with other draws.
    """
    while True:
        for word in bit_generator.random_raw(_RAW_BLOCK).tolist():
            yield word & _U32
            yield word >> 32


def _bounded(next_u32: Callable[[], int], r: int) -> int:
    """Uniform in ``[0, r]`` by numpy's 32-bit Lemire rule (``r < 2**32 - 1``)."""
    if r == 0:
        return 0
    span = r + 1
    m = next_u32() * span
    if m & _U32 < span:
        threshold = (_U32 - r) % span
        while m & _U32 < threshold:
            m = next_u32() * span
    return m >> 32


def sample_without_replacement(next_u32: Callable[[], int], d: int, k: int) -> list[int]:
    """``Generator.choice(np.arange(d), size=k, replace=False)``, bit for bit.

    ``next_u32`` is the generator's :func:`uint32_stream`.  numpy
    shuffles the tail of ``range(d)`` when ``d > 10000`` and
    ``k > d // 50``.  Otherwise it runs Floyd's algorithm, taking ``j``
    in place of a repeated draw for ``j`` in ``d-k .. d-1``, and then
    shuffles the ``k`` picks.  Every index comes from :func:`_bounded`.
    """
    if d > 10000 and k > d // 50:
        pool = list(range(d))
        for i in range(d - 1, max(d - k, 1) - 1, -1):
            j = _bounded(next_u32, i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[d - k:]
    picks: list[int] = []
    taken: set[int] = set()
    for j in range(d - k, d):
        v = _bounded(next_u32, j)
        if v in taken:
            v = j
        taken.add(v)
        picks.append(v)
    for i in range(k - 1, 0, -1):
        j = _bounded(next_u32, i)
        picks[i], picks[j] = picks[j], picks[i]
    return picks


@dataclass(eq=False)
class RegressionTree:
    """A single CART regression tree.

    Parameters mirror the scikit-learn names the paper's prototype would
    have used.  ``max_features`` limits the features examined per split
    (int, or ``None`` for all — forests pass an int for decorrelation).
    """

    max_depth: Optional[int] = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    max_features: Optional[int] = None
    random_state: Optional[int] = None
    _n_features: int = field(default=0, init=False, repr=False)
    # One entry per node, in preorder; leaves have feature -1 and
    # children -1.
    _feature: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _threshold: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _left: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _right: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _value: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _impurity_gain: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _n_samples: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        """Grow the tree on ``X`` (n×d) and targets ``y`` (n,)."""
        X, y = check_training_data(X, y)
        n, self._n_features = X.shape
        # Plain lists for the grow; locals, so the fitted tree keeps none.
        columns = X.T.tolist()
        targets = y.tolist()
        feature_list = list(range(self._n_features))
        subsample = (
            self.max_features is not None and self.max_features < self._n_features
        )
        next_u32 = uint32_stream(
            np.random.default_rng(self.random_state).bit_generator
        ).__next__
        # Split positions run over 0..n-2 whatever the setting.
        min_leaf = max(self.min_samples_leaf, 1)

        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []
        impurity_gain: list[float] = []
        n_samples: list[int] = []

        # Depth-first, left child first: the preorder numbering and the
        # order of the feature draws of a recursive grow.  ``idx`` stays
        # ascending, so stable sorts of it break ties by row.
        stack: list[tuple[list[int], int, list[int], int]] = [
            (list(range(n)), 0, left, -1)
        ]
        while stack:
            idx, depth, link, parent = stack.pop()
            node = len(value)
            if parent >= 0:
                link[parent] = node
            m = len(idx)
            y_node = [targets[i] for i in idx]
            mean = pairwise_sum(y_node) / m
            feature.append(_LEAF)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(mean)
            impurity_gain.append(0.0)
            n_samples.append(m)

            if (
                m < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or max(y_node) == min(y_node)
            ):
                continue

            sse_parent = pairwise_sum([(v - mean) * (v - mean) for v in y_node])
            features = (
                sample_without_replacement(next_u32, self._n_features, self.max_features)
                if subsample
                else feature_list
            )
            split = _best_split(columns, targets, idx, features, sse_parent, min_leaf)
            if split is None:
                continue

            f, cut, gain = split
            feature[node] = f
            threshold[node] = cut
            impurity_gain[node] = gain
            column = columns[f]
            stack.append(([i for i in idx if not column[i] <= cut], depth + 1, right, node))
            stack.append(([i for i in idx if column[i] <= cut], depth + 1, left, node))

        self._feature = np.array(feature, dtype=np.intp)
        self._threshold = np.array(threshold, dtype=float)
        self._left = np.array(left, dtype=np.intp)
        self._right = np.array(right, dtype=np.intp)
        self._value = np.array(value, dtype=float)
        self._impurity_gain = np.array(impurity_gain, dtype=float)
        self._n_samples = np.array(n_samples, dtype=np.intp)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for ``X`` (n×d).

        A NaN feature fails every ``<=`` test, so the row goes right.
        """
        if self._value is None:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self._n_features:
            raise ValueError(
                f"X must have shape (n, {self._n_features}), got {X.shape}"
            )
        rows = np.arange(len(X))
        at = np.zeros(len(X), dtype=np.intp)
        while True:
            feature = self._feature[at]
            leaf = feature == _LEAF
            if leaf.all():
                return self._value[at]
            # A leaf's -1 reads the last column; its row stays put.
            go_left = X[rows, feature] <= self._threshold[at]
            at = np.where(leaf, at, np.where(go_left, self._left[at], self._right[at]))

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the grown tree."""
        return 0 if self._value is None else len(self._value)

    @property
    def depth(self) -> int:
        """Depth of the grown tree (root = 0)."""
        if self._value is None:
            return 0
        depths = np.zeros(len(self._value), dtype=np.intp)
        # Preorder: every parent precedes its children.
        for node in np.flatnonzero(self._feature != _LEAF).tolist():
            depths[self._left[node]] = depths[self._right[node]] = depths[node] + 1
        return int(depths.max())

    def feature_importances(self) -> np.ndarray:
        """Total impurity reduction attributed to each feature."""
        importances = np.zeros(self._n_features)
        if self._value is not None:
            inner = self._feature != _LEAF
            np.add.at(importances, self._feature[inner], self._impurity_gain[inner])
        return importances


def _best_split(
    columns: list[list[float]],
    targets: list[float],
    idx: list[int],
    features: list[int],
    sse_parent: float,
    min_leaf: int,
) -> Optional[tuple[int, float, float]]:
    """Best ``(feature, threshold, gain)`` for the node holding ``idx``, if any."""
    m = len(idx)
    best: Optional[tuple[int, float, float]] = None
    for f in features:
        column = columns[f]
        order = sorted(idx, key=column.__getitem__)
        v_sorted = [column[i] for i in order]
        y_sorted = [targets[i] for i in order]
        csum = list(accumulate(y_sorted))
        csum2 = list(accumulate(map(mul, y_sorted, y_sorted)))
        total, total2 = csum[-1], csum2[-1]
        # First maximum over the split positions between distinct
        # values that leave min_leaf samples on each side.
        gain, pos = -math.inf, -1
        lo = min_leaf - 1
        for p, v, v_next, left_sum, left_sq in zip(
            range(lo, m - min_leaf),
            v_sorted[lo:],
            v_sorted[lo + 1:],
            csum[lo:],
            csum2[lo:],
        ):
            if v == v_next:
                continue
            right_sum = total - left_sum
            g = sse_parent - (
                (left_sq - left_sum * left_sum / (p + 1))
                + ((total2 - left_sq) - right_sum * right_sum / (m - p - 1))
            )
            if not g <= gain:
                gain, pos = g, p
                if g != g:
                    break
        if pos < 0 or gain <= 1e-12:
            continue
        cut = (v_sorted[pos] + v_sorted[pos + 1]) / 2.0
        if cut >= v_sorted[pos + 1]:
            # Adjacent floats: the midpoint rounded up and would put every
            # sample left of the split; fall back to the lower value so
            # both children stay non-empty.
            cut = v_sorted[pos]
        if best is None or gain > best[2]:
            best = (f, cut, gain)
    return best


def check_training_data(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``X`` (n×d) and ``y`` (n,) as float arrays, or a one-line ``ValueError``."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if len(X) != len(y):
        raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
    if len(X) == 0:
        raise ValueError("cannot fit on an empty dataset")
    if not np.isfinite(X).all():
        raise ValueError("X contains NaN or infinite values")
    if not np.isfinite(y).all():
        raise ValueError("y contains NaN or infinite values")
    return X, y
