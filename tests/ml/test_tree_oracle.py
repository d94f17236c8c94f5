"""Differential tests: the pure-Python CART grow against the numpy oracle.

:class:`~repro.ml.tree.RegressionTree` grows its trees in pure Python,
performing the numpy split search's float operations in numpy's order.
``oracle_tree.py`` keeps that numpy search unchanged.  Every tree fitted
here must equal the oracle's node for node and bit for bit: feature,
threshold, children, value, impurity gain and sample count.  Inputs
cover ties, bootstrap duplicates, adjacent-float thresholds, constant
targets, targets spanning twelve orders of magnitude, and nodes on both
sides of numpy's pairwise-summation boundaries (8 and 128 elements).
"""

import numpy as np
import pytest
from oracle_tree import RegressionTree as OracleTree

from repro.ml import forest as forest_module
from repro.ml.forest import RandomForestRegressor
from repro.core.analyzer import BandwidthAnalyzer
from repro.ml.tree import (
    RegressionTree,
    pairwise_sum,
    sample_without_replacement,
    uint32_stream,
)

INT_FIELDS = ("feature", "left", "right", "n_samples")
FLOAT_FIELDS = ("threshold", "value", "impurity_gain")

SETTINGS = (
    {},
    {"max_features": 1},
    {"max_features": 2},
    {"min_samples_leaf": 3},
    {"min_samples_leaf": 5, "max_features": 2},
    {"min_samples_leaf": 0},
    {"min_samples_split": 6},
    {"min_samples_split": 4, "min_samples_leaf": 2, "max_depth": 5},
    {"max_depth": 3, "max_features": 1},
    {"max_depth": 0},
)
KINDS = ("normal", "ties", "bootstrap", "wide")
SEEDS = range(4)

#: Sizes either side of numpy's pairwise-summation rule changes.
BOUNDARY_SIZES = (7, 8, 9, 127, 128, 129, 256, 257)


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def assert_same_tree(X, y, **params) -> RegressionTree:
    tree = RegressionTree(**params).fit(X, y)
    oracle = OracleTree(**params).fit(X, y)
    assert tree.n_nodes == oracle.n_nodes
    for name in INT_FIELDS:
        assert getattr(tree, f"_{name}").tolist() == [
            getattr(node, name) for node in oracle._nodes
        ], name
    for name in FLOAT_FIELDS:
        assert bits(getattr(tree, f"_{name}")) == bits(
            [getattr(node, name) for node in oracle._nodes]
        ), name
    assert tree.depth == oracle.depth
    assert bits(tree.feature_importances()) == bits(oracle.feature_importances())
    assert bits(tree.predict(X)) == bits(oracle.predict(X))
    return tree


def dataset(seed: int, kind: str):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 200))
    d = int(rng.integers(1, 8))
    X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 4)
    y = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 6) + rng.uniform(-1e3, 1e3)
    if kind == "ties":
        X, y = np.round(X, 0), np.round(y, -1)
    elif kind == "bootstrap":
        sample = rng.integers(0, n, size=n)
        X, y = X[sample], y[sample]
    elif kind == "wide":
        y = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-3, 9, size=n)
    return X, y


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("params", SETTINGS, ids=repr)
def test_matches_oracle(params, kind):
    for seed in SEEDS:
        X, y = dataset(seed, kind)
        assert_same_tree(X, y, random_state=seed, **params)


@pytest.mark.parametrize("size", BOUNDARY_SIZES)
def test_boundary_node_sizes(size):
    rng = np.random.default_rng(size)
    # The root holds ``size`` samples.
    X = rng.normal(size=(size, 3))
    y = rng.choice([-1.0, 1.0], size=size) * 10.0 ** rng.uniform(-3, 9, size=size)
    assert_same_tree(X, y, random_state=size)
    assert_same_tree(X, y, max_features=1, min_samples_leaf=2, random_state=size)
    # Two children of ``size`` samples each under a dominant step.
    X = np.arange(2 * size, dtype=float).reshape(-1, 1)
    y = np.where(X[:, 0] < size, 0.0, 1e12) + rng.uniform(-1e3, 1e3, size=2 * size)
    tree = assert_same_tree(X, y, max_depth=1)
    assert tree._n_samples.tolist() == [2 * size, size, size]


def test_adjacent_float_thresholds():
    rng = np.random.default_rng(5)
    lo = 1.0
    hi = np.nextafter(lo, 2.0)
    X = np.column_stack([
        rng.choice([lo, hi], size=40),
        rng.choice([-hi, -lo, 0.0, lo, hi], size=40),
    ])
    y = np.where(X[:, 0] == hi, 5.0, 0.0) + rng.normal(size=40) * 0.01
    tree = assert_same_tree(X, y)
    inner = tree._feature != -1
    assert lo in tree._threshold[inner].tolist()


def test_constant_targets():
    X = np.random.default_rng(1).normal(size=(30, 2))
    tree = assert_same_tree(X, np.full(30, 7.25))
    assert tree.n_nodes == 1
    # Constant blocks inside a varying target stop at their own nodes.
    y = np.repeat([1.0, 1.0, 4.0], 10)
    assert_same_tree(np.arange(30.0).reshape(-1, 1), y)


def test_overflowing_gains():
    # Squares of these targets overflow, so gains turn NaN; np.argmax
    # takes the first NaN, and so must the grow.
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 2))
    y = rng.normal(size=40) * 1e160
    with np.errstate(over="ignore", invalid="ignore"):
        tree = assert_same_tree(X, y)
    assert np.isnan(tree._impurity_gain).any()


def test_nan_rows_predict_like_the_oracle():
    X = np.random.default_rng(2).normal(size=(120, 3))
    y = X[:, 0] - 2 * X[:, 2]
    tree = RegressionTree().fit(X, y)
    oracle = OracleTree().fit(X, y)
    Q = np.random.default_rng(3).normal(size=(20, 3))
    Q[::2, 0] = np.nan
    Q[::3, 2] = np.nan
    Q[4] = np.nan
    assert bits(tree.predict(Q)) == bits(oracle.predict(Q))


class TestForest:
    def test_predictions_bit_equal(self, monkeypatch):
        rng = np.random.default_rng(11)
        X = rng.uniform(-5, 5, size=(200, 6))
        y = 3 * X[:, 0] - X[:, 1] ** 2 + rng.normal(size=200)
        Q = rng.uniform(-6, 6, size=(50, 6))
        params = {"n_estimators": 12, "random_state": 4}
        forest = RandomForestRegressor(**params).fit(X, y)
        with monkeypatch.context() as patch:
            patch.setattr(forest_module, "RegressionTree", OracleTree)
            oracle = RandomForestRegressor(**params).fit(X, y)
        assert bits(forest.predict(Q)) == bits(oracle.predict(Q))
        assert bits(forest.predict(X)) == bits(oracle.predict(X))
        assert bits(forest.feature_importances_) == bits(oracle.feature_importances_)

    def test_warm_start_refit_bit_equal(self, monkeypatch):
        rng = np.random.default_rng(12)
        X = rng.uniform(-5, 5, size=(150, 6))
        y = X[:, 2] * X[:, 3] * 10.0 ** rng.uniform(-3, 9, size=150)
        X2 = rng.uniform(-5, 5, size=(90, 6))
        y2 = X2[:, 2] * X2[:, 3] * 10.0 ** rng.uniform(-3, 9, size=90)
        params = {"n_estimators": 6, "max_depth": 4, "warm_start": True, "random_state": 9}
        forests = []
        for tree_class in (RegressionTree, OracleTree):
            with monkeypatch.context() as patch:
                patch.setattr(forest_module, "RegressionTree", tree_class)
                forest = RandomForestRegressor(**params).fit(X, y)
                forest.n_estimators = 10
                forest.fit(X2, y2)
            forests.append(forest)
        forest, oracle = forests
        assert [type(t) for t in forest.trees] == [RegressionTree] * 10
        assert bits(forest.predict(X2)) == bits(oracle.predict(X2))

    def test_campaign_bit_equal(self, monkeypatch, triad, weather):
        # A collected campaign repeats link features across rows, unlike
        # the synthetic sets above; the default max_features="sqrt"
        # draws 2 of its 6 features per split.
        training = BandwidthAnalyzer(triad, weather, n_datasets=12, seed=4).collect()
        X, y = training.X, training.y
        assert len(np.unique(X[:, 0])) < len(X)
        forests = []
        for tree_class in (RegressionTree, OracleTree):
            with monkeypatch.context() as patch:
                patch.setattr(forest_module, "RegressionTree", tree_class)
                forests.append(RandomForestRegressor(random_state=3).fit(X, y))
        forest, oracle = forests
        assert bits(forest.predict(X)) == bits(oracle.predict(X))
        assert bits(forest.feature_importances_) == bits(oracle.feature_importances_)


def test_pairwise_sum_follows_numpy():
    """The numpy-internal summation rule the grow replicates.

    A failure here means the installed numpy sums float64 arrays in a
    different order than :func:`pairwise_sum` assumes, and fitted trees
    would no longer match the numpy oracle bit for bit.
    """
    rng = np.random.default_rng(0)
    for n in range(1, 2001):
        x = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-3, 9, size=n)
        got = pairwise_sum(x.tolist())
        assert bits([got, got / n]) == bits([np.add.reduce(x), np.mean(x)]), (
            f"pairwise_sum departs from numpy {np.__version__} at n={n}; "
            "benchmarks/experiments_fast.sha256 pins the numpy version "
            "the tree grow was checked against"
        )
    for n in (1, 7, 8, 9, 128, 129, 300):
        zeros = np.full(n, -0.0)
        assert bits([pairwise_sum(zeros.tolist())]) == bits([np.add.reduce(zeros)])


def test_feature_draw_follows_numpy():
    """The numpy-internal ``Generator.choice`` rule the grow replicates.

    A failure here means the installed numpy draws ``choice(arange(d),
    k, replace=False)`` from its bit stream differently than
    :func:`sample_without_replacement` assumes, and fitted trees would
    no longer match the numpy oracle bit for bit.
    """
    # Every k in 1..d for d in 1..64 (Floyd's algorithm), both sides of
    # the tail-shuffle switch at d > 10000 and k > d // 50, and a full
    # shuffle of a large population.
    cases = [(d, k) for d in range(1, 65) for k in range(1, d + 1)]
    cases += [(10000, 250), (10001, 200), (10001, 201), (10001, 250), (10001, 10001)]
    for seed in range(12):
        rng = np.random.default_rng(seed)
        next_u32 = uint32_stream(np.random.default_rng(seed).bit_generator).__next__
        order = np.random.default_rng(seed + 1000).permutation(len(cases)).tolist()
        # The trailing draw checks the stream position after the mix.
        for d, k in [cases[i] for i in order] + [(6, 2)]:
            expected = rng.choice(np.arange(d), size=k, replace=False).tolist()
            assert sample_without_replacement(next_u32, d, k) == expected, (
                f"sample_without_replacement departs from numpy {np.__version__} "
                f"at seed={seed}, d={d}, k={k}; benchmarks/experiments_fast.sha256 "
                "pins the numpy version the tree grow was checked against"
            )
