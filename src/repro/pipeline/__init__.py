"""Composable pipeline API — the architectural seam of the repo.

The paper's Fig. 3 architecture is an explicit staged pipeline; this
package makes each stage a typed, swappable contract and composes them
behind one object:

* :mod:`repro.pipeline.stages` — ``Protocol`` contracts (``Gauger``,
  ``Predictor``, ``Planner``, ``DeploymentStrategy``) plus the default
  implementations (snapshot probe, Random Forest, Eq. 2/3 optimizer);
* :mod:`repro.pipeline.alternates` — the alternate stage
  implementations (passive-telemetry gauger, cached predictor,
  multi-backend planner) the sweep runner compares against the
  defaults;
* :mod:`repro.pipeline.core` — :class:`Pipeline`, the one-shot facade
  the runtime service is also rebuilt on;
* :mod:`repro.pipeline.registry` — string-keyed registries for the
  three stages, deployment variants, placement policies, bandwidth
  scenarios, and scheduler admission policies, with ``@register_*``
  decorators that make extensions reachable from every entry point
  with zero core edits;
* :mod:`repro.pipeline.config` — the layered configuration system
  (dataclass defaults → TOML/JSON file → ``WANIFY_*`` env → explicit
  CLI flags/kwargs) shared by the facade, the service, and the CLI;
* :mod:`repro.pipeline.deploy` — :class:`Deployment`, what a variant
  installs on (and scopes its teardown to) the network.

:class:`Pipeline` is the WANify Interface (§4.1) a GDA system calls;
:class:`repro.runtime.PipelineService` runs it as a long-lived service.
"""

from repro.pipeline.alternates import (
    CachedPredictor,
    MultiBackendPlanner,
    PassiveTelemetryGauger,
)
from repro.pipeline.config import (
    ConfigArguments,
    PipelineConfig,
    ServiceConfig,
    env_overrides,
    layered_config,
    load_config_file,
)
from repro.pipeline.core import Pipeline
from repro.pipeline.deploy import Deployment
from repro.pipeline.registry import (
    Registry,
    admission_policy,
    admission_policy_registry,
    build_stage,
    gauger_registry,
    placement_policy,
    planner_registry,
    policy_registry,
    predictor_registry,
    preemption_policy_registry,
    register_admission_policy,
    register_gauger,
    register_planner,
    register_policy,
    register_predictor,
    register_preemption_policy,
    register_scenario,
    register_tuner_policy,
    register_variant,
    scenario_registry,
    tuner_registry,
    variant_registry,
)
from repro.pipeline.stages import (
    DeploymentStrategy,
    ForestPredictor,
    GaugeEvent,
    GaugeLedger,
    Gauger,
    Planner,
    Predictor,
    SnapshotGauger,
    WindowPlanner,
)
from repro.pipeline.variants import VariantStrategy

__all__ = [
    "CachedPredictor",
    "ConfigArguments",
    "Deployment",
    "DeploymentStrategy",
    "ForestPredictor",
    "GaugeEvent",
    "GaugeLedger",
    "Gauger",
    "MultiBackendPlanner",
    "PassiveTelemetryGauger",
    "Pipeline",
    "PipelineConfig",
    "Planner",
    "Predictor",
    "Registry",
    "ServiceConfig",
    "SnapshotGauger",
    "VariantStrategy",
    "WindowPlanner",
    "admission_policy",
    "admission_policy_registry",
    "build_stage",
    "env_overrides",
    "gauger_registry",
    "layered_config",
    "load_config_file",
    "placement_policy",
    "planner_registry",
    "policy_registry",
    "predictor_registry",
    "preemption_policy_registry",
    "register_admission_policy",
    "register_gauger",
    "register_planner",
    "register_policy",
    "register_predictor",
    "register_preemption_policy",
    "register_scenario",
    "register_tuner_policy",
    "register_variant",
    "scenario_registry",
    "tuner_registry",
    "variant_registry",
]
