"""Tests for the Random Forest regressor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.forest import RandomForestRegressor, _resolve_max_features


def noisy_linear(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-5, 5, size=(n, 4))
    y = 3 * X[:, 0] - 2 * X[:, 1] + rng.normal(0, 0.5, size=n)
    return X, y


class TestFit:
    def test_fits_and_scores_well(self):
        X, y = noisy_linear()
        forest = RandomForestRegressor(
            n_estimators=30, random_state=1
        ).fit(X, y)
        assert forest.score(X, y) > 0.9

    def test_deterministic_given_seed(self):
        X, y = noisy_linear()
        a = RandomForestRegressor(n_estimators=10, random_state=7).fit(X, y)
        b = RandomForestRegressor(n_estimators=10, random_state=7).fit(X, y)
        assert a.predict(X) == pytest.approx(b.predict(X))

    def test_different_seeds_differ(self):
        X, y = noisy_linear()
        a = RandomForestRegressor(n_estimators=10, random_state=7).fit(X, y)
        b = RandomForestRegressor(n_estimators=10, random_state=8).fit(X, y)
        assert not np.allclose(a.predict(X), b.predict(X))

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict(np.zeros((1, 4)))

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            RandomForestRegressor().fit(np.empty((0, 3)), np.empty(0))

    def test_non_finite_data_rejected(self):
        X, y = noisy_linear(n=40)
        X[5, 2] = np.nan
        with pytest.raises(ValueError, match="X contains NaN"):
            RandomForestRegressor(n_estimators=2).fit(X, y)
        X, y = noisy_linear(n=40)
        y[9] = np.inf
        with pytest.raises(ValueError, match="y contains NaN or infinite"):
            RandomForestRegressor(n_estimators=2).fit(X, y)


class TestWarmStart:
    def test_warm_start_extends_forest(self):
        X, y = noisy_linear()
        forest = RandomForestRegressor(
            n_estimators=10, warm_start=True, random_state=3
        ).fit(X, y)
        assert len(forest.trees) == 10
        forest.n_estimators = 25
        forest.fit(X, y)
        assert len(forest.trees) == 25

    def test_warm_start_keeps_existing_trees(self):
        X, y = noisy_linear()
        forest = RandomForestRegressor(
            n_estimators=5, warm_start=True, random_state=3
        ).fit(X, y)
        first_tree = forest.trees[0]
        forest.n_estimators = 8
        forest.fit(X, y)
        assert forest.trees[0] is first_tree

    def test_warm_start_feature_mismatch_rejected(self):
        X, y = noisy_linear()
        forest = RandomForestRegressor(
            n_estimators=5, warm_start=True, random_state=3
        ).fit(X, y)
        with pytest.raises(ValueError, match="warm start"):
            forest.fit(X[:, :2], y)

    def test_cold_start_replaces_trees(self):
        X, y = noisy_linear()
        forest = RandomForestRegressor(
            n_estimators=5, warm_start=False, random_state=3
        ).fit(X, y)
        first_tree = forest.trees[0]
        forest.fit(X, y)
        assert forest.trees[0] is not first_tree


class TestFeatureImportances:
    def test_importances_sum_to_one(self):
        X, y = noisy_linear()
        forest = RandomForestRegressor(
            n_estimators=15, random_state=2
        ).fit(X, y)
        assert forest.feature_importances_.sum() == pytest.approx(1.0)

    def test_informative_features_rank_first(self):
        X, y = noisy_linear()
        forest = RandomForestRegressor(
            n_estimators=20, random_state=2, max_features=None
        ).fit(X, y)
        importances = forest.feature_importances_
        assert importances[0] > importances[2]
        assert importances[1] > importances[3]


class TestMaxFeaturesSpec:
    @pytest.mark.parametrize(
        "spec,n,expected",
        [
            (None, 9, None),
            ("sqrt", 9, 3),
            ("log2", 8, 3),
            (0.5, 8, 4),
            (3, 9, 3),
            (100, 9, 9),
        ],
    )
    def test_resolution(self, spec, n, expected):
        assert _resolve_max_features(spec, n) == expected

    @pytest.mark.parametrize("spec", [0, -1, 1.5, "cube"])
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            _resolve_max_features(spec, 5)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=50))
def test_forest_predictions_within_target_hull(seed):
    """Averaging trees keeps predictions inside the target range."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, 3))
    y = rng.uniform(-50, 50, size=60)
    forest = RandomForestRegressor(
        n_estimators=8, random_state=seed
    ).fit(X, y)
    preds = forest.predict(rng.normal(size=(40, 3)) * 5)
    assert preds.min() >= y.min() - 1e-9
    assert preds.max() <= y.max() + 1e-9
