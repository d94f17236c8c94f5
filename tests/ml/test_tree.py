"""Tests for the CART regression tree."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.tree import RegressionTree


def step_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, size=(n, 2))
    y = np.where(X[:, 0] > 5, 100.0, 10.0)
    return X, y


class TestFit:
    def test_learns_a_step_function(self):
        X, y = step_data()
        tree = RegressionTree().fit(X, y)
        preds = tree.predict(X)
        assert np.abs(preds - y).max() < 1e-9

    def test_constant_target_single_leaf(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.full(10, 3.0)
        tree = RegressionTree().fit(X, y)
        assert tree.n_nodes == 1
        assert tree.predict(X) == pytest.approx(np.full(10, 3.0))

    def test_max_depth_respected(self):
        X, y = step_data()
        tree = RegressionTree(max_depth=2).fit(X, y)
        assert tree.depth <= 2

    def test_min_samples_leaf(self):
        X, y = step_data(n=50)
        tree = RegressionTree(min_samples_leaf=10).fit(X, y)
        # Every leaf must hold ≥ 10 samples.
        leaves = tree._feature == -1
        assert leaves.any()
        for n_samples in tree._n_samples[leaves].tolist():
            assert n_samples >= 10

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            RegressionTree().fit(np.empty((0, 2)), np.empty(0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RegressionTree().fit(np.zeros((5, 2)), np.zeros(4))

    def test_1d_x_rejected(self):
        with pytest.raises(ValueError):
            RegressionTree().fit(np.zeros(5), np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x_rejected(self, bad):
        X, y = step_data(n=20)
        X[3, 1] = bad
        with pytest.raises(ValueError, match="X contains NaN or infinite"):
            RegressionTree().fit(X, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_y_rejected(self, bad):
        X, y = step_data(n=20)
        y[7] = bad
        with pytest.raises(ValueError, match="y contains NaN or infinite"):
            RegressionTree().fit(X, y)

    def test_fitted_tree_keeps_no_training_data(self):
        X, y = step_data()
        tree = RegressionTree().fit(X, y)
        for name, attr in vars(tree).items():
            assert not isinstance(attr, list), name
            if isinstance(attr, np.ndarray):
                assert attr.shape == (tree.n_nodes,), name

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        # Doubling targets peel one sample off per split: a chain
        # deeper than the recursion limit in force during the fit.
        X = np.arange(300, dtype=float).reshape(-1, 1)
        y = 2.0 ** np.arange(300)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            tree = RegressionTree().fit(X, y)
        finally:
            sys.setrecursionlimit(limit)
        assert tree.depth > 150

    def test_adjacent_float_thresholds_do_not_crash(self):
        # Regression test: midpoints of adjacent floats used to create
        # empty children (NaN leaves).
        x = np.nextafter(1.0, 2.0)
        X = np.array([[1.0], [x], [1.0], [x]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        tree = RegressionTree().fit(X, y)
        assert not np.isnan(tree.predict(X)).any()


class TestPredict:
    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.zeros((1, 2)))

    def test_wrong_width_rejected(self):
        X, y = step_data()
        tree = RegressionTree().fit(X, y)
        with pytest.raises(ValueError):
            tree.predict(np.zeros((3, 5)))

    def test_nan_goes_right_at_every_split(self):
        X, y = step_data()
        tree = RegressionTree(max_depth=4).fit(X, y)
        node = 0
        while tree._feature[node] != -1:
            node = tree._right[node]
        assert tree.n_nodes > 1
        assert tree.predict(np.full((2, 2), np.nan)).tolist() == [tree._value[node]] * 2

    def test_predictions_within_target_hull(self):
        X, y = step_data()
        tree = RegressionTree(max_depth=3).fit(X, y)
        preds = tree.predict(X)
        assert preds.min() >= y.min() - 1e-9
        assert preds.max() <= y.max() + 1e-9


class TestImportances:
    def test_informative_feature_dominates(self):
        X, y = step_data()
        tree = RegressionTree().fit(X, y)
        importances = tree.feature_importances()
        assert importances[0] > importances[1]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=5, max_value=60),
    st.integers(min_value=0, max_value=1000),
)
def test_deep_tree_memorizes_unique_rows(n, seed):
    """With unique inputs and no depth limit, training error is ~0."""
    rng = np.random.default_rng(seed)
    X = rng.permutation(n).astype(float).reshape(-1, 1)
    y = rng.uniform(-100, 100, size=n)
    tree = RegressionTree().fit(X, y)
    assert np.abs(tree.predict(X) - y).max() < 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=100))
def test_predictions_bounded_by_targets(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(50, 3))
    y = rng.normal(size=50)
    tree = RegressionTree(max_depth=4).fit(X, y)
    grid = rng.normal(size=(100, 3)) * 10
    preds = tree.predict(grid)
    assert preds.min() >= y.min() - 1e-9
    assert preds.max() <= y.max() + 1e-9
