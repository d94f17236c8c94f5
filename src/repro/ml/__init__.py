"""From-scratch decision-tree machinery.

The paper's predictor is "a decision tree-based Random Forest regressor"
with 100 estimators (§3.1, §5.1).  scikit-learn is not available in this
environment, so this package implements the needed pieces directly on
numpy:

* :mod:`repro.ml.tree` — CART regression trees (variance-reduction
  splits, a pure-Python split search in numpy's float order, flat-array
  batched prediction),
* :mod:`repro.ml.forest` — bootstrap-aggregated forest with feature
  subsampling, warm start (for the §3.3.2/§3.3.4 retraining story), and
  impurity-based feature importances,
* :mod:`repro.ml.metrics` — R², MAE, RMSE, MAPE, and the
  fraction-within-threshold "accuracy" the paper quotes (98.51%).
"""

from repro.ml.forest import RandomForestRegressor
from repro.ml.metrics import (
    fraction_within,
    mae,
    mape,
    r2_score,
    rmse,
    training_accuracy,
)
from repro.ml.tree import RegressionTree

__all__ = [
    "RandomForestRegressor",
    "RegressionTree",
    "fraction_within",
    "mae",
    "mape",
    "r2_score",
    "rmse",
    "training_accuracy",
]
