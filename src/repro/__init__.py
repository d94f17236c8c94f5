"""WANify reproduction — runtime WAN bandwidth gauging and balancing.

This package reproduces *WANify: Gauging and Balancing Runtime WAN
Bandwidth for Geo-distributed Data Analytics* (IISWC 2025) end to end on
a flow-level WAN simulator:

* :mod:`repro.net` — the WAN substrate (topology, TCP model, contention,
  fluctuation, measurement, traffic control);
* :mod:`repro.ml` — from-scratch CART / Random Forest regressors;
* :mod:`repro.core` — WANify itself (prediction model, Algorithm 1,
  Eq. 2/3 global optimizer, AIMD local agents, heterogeneity handling);
* :mod:`repro.gda` — a Spark-like geo-distributed analytics engine with
  Tetrium / Kimchi / SAGQ policies and the paper's workloads;
* :mod:`repro.runtime` — the long-running service layer: shared
  telemetry store, drift detection with mid-job re-planning, a
  multi-job scheduler, and named bandwidth-dynamics scenarios
  (diurnal swing, flash crowd, link degradation/failure, step drop);
* :mod:`repro.experiments` — one module per paper table/figure, plus
  extensions such as the online-vs-static re-planning comparison.

* :mod:`repro.pipeline` — the composable public API: ``Protocol``-typed
  stage contracts composed by one :class:`~repro.pipeline.core.Pipeline`
  object, string-keyed registries for variants / policies / scenarios,
  and the layered config system every entry point resolves through.

Most users start with the pipeline::

    from repro import Pipeline, Topology, FluctuationModel, PAPER_REGIONS

    topology = Topology.build(PAPER_REGIONS, "t2.medium")
    pipe = Pipeline(topology, FluctuationModel(seed=42))
    pipe.train()
    bw = pipe.predict(at_time=3600.0)
    plan = pipe.plan(bw)
    deployment = pipe.deployment("wanify-tc", bw=bw)

The runtime service is one import away (resolved lazily so the light
facade stays light)::

    from repro import PipelineService, ServiceConfig

    service = PipelineService.build(ServiceConfig(scenario="step-drop"))
    service.submit(job)
    service.run()

Extensions register by name and are then reachable from every entry
point (``deployment("my-variant")``, ``--policy kimchi``,
``scenario("diurnal+flash-crowd")``)::

    from repro import register_variant, register_policy, register_scenario

See ``examples/quickstart.py`` and README.md for a
guided tour, and ``python -m repro --help`` for the command-line
interface (``python -m repro serve`` drives the runtime service).
"""

from repro.cloud.regions import PAPER_REGIONS
from repro.core.globalopt import GlobalPlan, optimize_connections
from repro.core.predictor import WanPredictionModel
from repro.net.dynamics import FluctuationModel, StaticModel
from repro.net.matrix import BandwidthMatrix
from repro.net.profiles import (
    EDGE_CLOUD,
    PUBLIC_INTERNET,
    VPC_PEERING,
    NetworkProfile,
    network_profile,
)
from repro.net.topology import DataCenter, Topology
from repro.pipeline import (
    CachedPredictor,
    ConfigArguments,
    Deployment,
    DeploymentStrategy,
    Gauger,
    MultiBackendPlanner,
    PassiveTelemetryGauger,
    Pipeline,
    PipelineConfig,
    Planner,
    Predictor,
    Registry,
    ServiceConfig,
    admission_policy,
    admission_policy_registry,
    gauger_registry,
    layered_config,
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

__version__ = "1.4.0"

#: Runtime-service names resolved lazily (PEP 562) — they pull in the
#: GDA engine, which ``import repro`` alone should not pay for.
_LAZY_EXPORTS = {
    "DriftDetector": "repro.runtime.drift",
    "JobScheduler": "repro.runtime.scheduler",
    "PipelineService": "repro.runtime.service",
    "SLO": "repro.runtime.scheduling",
    "ControlPlane": "repro.runtime.control",
    "BandwidthGovernor": "repro.runtime.control",
    "ConcurrencyAutoscaler": "repro.runtime.control",
    "TelemetryStore": "repro.runtime.telemetry",
    "register_scenario_model": "repro.runtime.scenarios",
    "scenario": "repro.runtime.scenarios",
    "spread_slos": "repro.runtime.scheduling",
}


def __getattr__(name: str):
    """Lazy facade for the runtime service layer."""
    target = _LAZY_EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)


def __dir__() -> list[str]:
    return sorted(set(__all__) | set(globals()))


__all__ = [
    "DriftDetector",
    "JobScheduler",
    "PipelineService",
    "SLO",
    "TelemetryStore",
    "register_scenario_model",
    "scenario",
    "spread_slos",
    "BandwidthMatrix",
    "CachedPredictor",
    "ConfigArguments",
    "DataCenter",
    "Deployment",
    "DeploymentStrategy",
    "EDGE_CLOUD",
    "FluctuationModel",
    "Gauger",
    "GlobalPlan",
    "MultiBackendPlanner",
    "NetworkProfile",
    "PAPER_REGIONS",
    "PUBLIC_INTERNET",
    "PassiveTelemetryGauger",
    "Pipeline",
    "PipelineConfig",
    "Planner",
    "Predictor",
    "Registry",
    "ServiceConfig",
    "StaticModel",
    "Topology",
    "VPC_PEERING",
    "WanPredictionModel",
    "admission_policy",
    "admission_policy_registry",
    "gauger_registry",
    "layered_config",
    "network_profile",
    "optimize_connections",
    "placement_policy",
    "planner_registry",
    "policy_registry",
    "predictor_registry",
    "BandwidthGovernor",
    "ConcurrencyAutoscaler",
    "ControlPlane",
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
    "__version__",
]
