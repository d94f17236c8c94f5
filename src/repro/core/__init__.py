"""WANify — the paper's primary contribution.

* offline: :mod:`repro.core.features`, :mod:`repro.core.dataset`,
  :mod:`repro.core.analyzer`, :mod:`repro.core.predictor` — the
  Bandwidth Analyzer and WAN Prediction Model (§3.1, §4.1.1);
* online: :mod:`repro.core.relations` (Algorithm 1),
  :mod:`repro.core.globalopt` (Eq. 2/3), and
  :mod:`repro.core.throttle` — the Global Optimizer (§3.2.1, §4.1.2);
* agents: :mod:`repro.core.localopt` (AIMD), :mod:`repro.core.agent`,
  :mod:`repro.core.connections` — the per-VM Local Agent (§3.2.2,
  §4.1.3);
* :mod:`repro.core.heterogeneity` — skew weights, refactoring vector,
  association (§3.3).

The WANify Interface a GDA system calls (§4.1) is
:class:`repro.pipeline.Pipeline`, which composes these modules.
"""

from repro.core.analyzer import BandwidthAnalyzer
from repro.core.dataset import TrainingSet, build_training_set
from repro.core.features import FEATURE_NAMES, pair_feature_vector
from repro.core.globalopt import GlobalPlan, optimize_connections
from repro.core.localopt import AimdState, LocalOptimizer
from repro.core.predictor import WanPredictionModel
from repro.core.relations import infer_dc_relations

__all__ = [
    "AimdState",
    "BandwidthAnalyzer",
    "FEATURE_NAMES",
    "GlobalPlan",
    "LocalOptimizer",
    "TrainingSet",
    "WanPredictionModel",
    "build_training_set",
    "infer_dc_relations",
    "optimize_connections",
    "pair_feature_vector",
]
