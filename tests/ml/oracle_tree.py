"""The numpy CART split search, kept as the oracle for ``repro.ml.tree``.

This is the ``RegressionTree`` that ``repro.ml.tree`` replaced, copied
unchanged: a vectorized numpy split search per node and a per-row
prediction walk over ``_Node`` objects.  ``test_tree_oracle.py``
requires every tree the pure-Python grow fits to equal this one's node
for node, bit for bit.  Do not edit it to follow ``repro.ml.tree``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

_LEAF = -1


@dataclass
class _Node:
    feature: int = _LEAF
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    value: float = 0.0
    impurity_gain: float = 0.0
    n_samples: int = 0


@dataclass
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
    _nodes: list[_Node] = field(default_factory=list, repr=False)
    _n_features: int = field(default=0, repr=False)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        """Grow the tree on ``X`` (n×d) and targets ``y`` (n,)."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if len(X) != len(y):
            raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._n_features = X.shape[1]
        self._nodes = []
        rng = np.random.default_rng(self.random_state)
        self._grow(X, y, np.arange(len(X)), depth=0, rng=rng)
        return self

    def _grow(
        self,
        X: np.ndarray,
        y: np.ndarray,
        idx: np.ndarray,
        depth: int,
        rng: np.random.Generator,
    ) -> int:
        node_id = len(self._nodes)
        node = _Node(value=float(y[idx].mean()), n_samples=len(idx))
        self._nodes.append(node)

        if (
            len(idx) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or np.ptp(y[idx]) == 0.0
        ):
            return node_id

        split = self._best_split(X, y, idx, rng)
        if split is None:
            return node_id

        feature, threshold, gain = split
        mask = X[idx, feature] <= threshold
        left_idx, right_idx = idx[mask], idx[~mask]
        node.feature = feature
        node.threshold = threshold
        node.impurity_gain = gain
        node.left = self._grow(X, y, left_idx, depth + 1, rng)
        node.right = self._grow(X, y, right_idx, depth + 1, rng)
        return node_id

    def _best_split(
        self,
        X: np.ndarray,
        y: np.ndarray,
        idx: np.ndarray,
        rng: np.random.Generator,
    ) -> Optional[tuple[int, float, float]]:
        n = len(idx)
        y_node = y[idx]
        sse_parent = float(((y_node - y_node.mean()) ** 2).sum())

        features = np.arange(self._n_features)
        if self.max_features is not None and self.max_features < len(features):
            features = rng.choice(
                features, size=self.max_features, replace=False
            )

        best: Optional[tuple[int, float, float]] = None
        min_leaf = self.min_samples_leaf
        for feature in features:
            values = X[idx, feature]
            order = np.argsort(values, kind="stable")
            v_sorted = values[order]
            y_sorted = y_node[order]
            # Candidate split positions: between distinct values,
            # respecting min_samples_leaf.
            csum = np.cumsum(y_sorted)
            csum2 = np.cumsum(y_sorted**2)
            total, total2 = csum[-1], csum2[-1]
            counts = np.arange(1, n)
            left_sum = csum[:-1]
            left_sse = csum2[:-1] - left_sum**2 / counts
            right_sum = total - left_sum
            right_counts = n - counts
            right_sse = (total2 - csum2[:-1]) - right_sum**2 / right_counts
            valid = (
                (v_sorted[:-1] != v_sorted[1:])
                & (counts >= min_leaf)
                & (right_counts >= min_leaf)
            )
            if not valid.any():
                continue
            gains = sse_parent - (left_sse + right_sse)
            gains[~valid] = -np.inf
            pos = int(np.argmax(gains))
            gain = float(gains[pos])
            if gain <= 1e-12:
                continue
            threshold = float((v_sorted[pos] + v_sorted[pos + 1]) / 2.0)
            if threshold >= v_sorted[pos + 1]:
                # Adjacent floats: the midpoint rounded up and would put
                # every sample left of the split; fall back to the lower
                # value so both children stay non-empty.
                threshold = float(v_sorted[pos])
            if best is None or gain > best[2]:
                best = (int(feature), threshold, gain)
        return best

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for ``X`` (n×d)."""
        if not self._nodes:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self._n_features:
            raise ValueError(
                f"X must have shape (n, {self._n_features}), got {X.shape}"
            )
        out = np.empty(len(X))
        for row, x in enumerate(X):
            node = self._nodes[0]
            while node.feature != _LEAF:
                node = self._nodes[
                    node.left if x[node.feature] <= node.threshold else node.right
                ]
            out[row] = node.value
        return out

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the grown tree."""
        return len(self._nodes)

    @property
    def depth(self) -> int:
        """Depth of the grown tree (root = 0)."""
        if not self._nodes:
            return 0

        def walk(node_id: int) -> int:
            node = self._nodes[node_id]
            if node.feature == _LEAF:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(0)

    def feature_importances(self) -> np.ndarray:
        """Total impurity reduction attributed to each feature."""
        importances = np.zeros(self._n_features)
        for node in self._nodes:
            if node.feature != _LEAF:
                importances[node.feature] += node.impurity_gain
        return importances
