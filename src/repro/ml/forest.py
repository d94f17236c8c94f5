"""Bootstrap-aggregated Random Forest regressor.

The paper's model uses 100 estimators (best training accuracy, §5.1)
and relies on warm-start retraining when cluster sizes change or the
model drifts (§3.3.2, §3.3.4) — both supported here.  The "bias-variance
tradeoff in ensemble learning" the paper credits for generalization
(§5.8.2, [8]) is exactly what bagging + feature subsampling provide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.checks import check_estimators
from repro.ml.tree import RegressionTree, check_training_data


def _resolve_max_features(spec: object, n_features: int) -> Optional[int]:
    """Translate a scikit-learn-style ``max_features`` spec to an int."""
    if spec is None:
        return None
    if spec == "sqrt":
        return max(1, int(math.sqrt(n_features)))
    if spec == "log2":
        return max(1, int(math.log2(n_features))) if n_features > 1 else 1
    if isinstance(spec, float):
        if not 0 < spec <= 1:
            raise ValueError(f"max_features fraction out of (0, 1]: {spec}")
        return max(1, int(spec * n_features))
    if isinstance(spec, int):
        if spec < 1:
            raise ValueError(f"max_features must be ≥ 1: {spec}")
        return min(spec, n_features)
    raise ValueError(f"unsupported max_features spec: {spec!r}")


@dataclass
class RandomForestRegressor:
    """Random Forest for multivariate regression.

    With ``warm_start=True``, refitting keeps the existing trees and
    grows only the additional ones requested by a larger
    ``n_estimators`` — the paper's retraining path.
    """

    n_estimators: int = 100
    max_depth: Optional[int] = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    max_features: object = "sqrt"
    bootstrap: bool = True
    warm_start: bool = False
    random_state: Optional[int] = None
    trees: list[RegressionTree] = field(default_factory=list, repr=False)
    _n_features: int = field(default=0, repr=False)
    _fit_count: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        check_estimators(self.n_estimators)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        """Fit (or, with warm start, extend) the forest."""
        X, y = check_training_data(X, y)
        if self.warm_start and self.trees and X.shape[1] != self._n_features:
            raise ValueError(
                f"warm start requires {self._n_features} features, "
                f"got {X.shape[1]}"
            )
        self._n_features = X.shape[1]
        if not self.warm_start:
            self.trees = []
        if len(self.trees) >= self.n_estimators:
            return self

        per_tree_features = _resolve_max_features(
            self.max_features, self._n_features
        )
        # Seed sequence: distinct per fit call so warm-start batches
        # do not replay the original bootstrap samples.
        base_seed = (
            self.random_state if self.random_state is not None else 0
        ) + 7919 * self._fit_count
        rng = np.random.default_rng(base_seed)
        self._fit_count += 1

        n = len(X)
        while len(self.trees) < self.n_estimators:
            if self.bootstrap:
                sample = rng.integers(0, n, size=n)
            else:
                sample = np.arange(n)
            tree = RegressionTree(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=per_tree_features,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X[sample], y[sample])
            self.trees.append(tree)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean prediction across all trees."""
        if not self.trees:
            raise RuntimeError("forest is not fitted")
        X = np.asarray(X, dtype=float)
        total = np.zeros(len(X))
        for tree in self.trees:
            total += tree.predict(X)
        return total / len(self.trees)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Coefficient of determination R² on the given data."""
        from repro.ml.metrics import r2_score

        return r2_score(np.asarray(y, dtype=float), self.predict(X))

    @property
    def feature_importances_(self) -> np.ndarray:
        """Normalized impurity-based importances, summed over trees."""
        if not self.trees:
            raise RuntimeError("forest is not fitted")
        total = np.zeros(self._n_features)
        for tree in self.trees:
            total += tree.feature_importances()
        s = total.sum()
        return total / s if s > 0 else total
