"""Runtime service layer: multi-job WANify with online replanning.

The paper positions WANify as a *runtime* system — bandwidth is gauged
continuously and connection plans are rebalanced while analytics jobs
execute.  This package turns the one-shot reproduction pipeline
(train → predict → plan → run a single query) into a long-running
service on the deterministic :mod:`repro.sim` kernel:

* :mod:`repro.runtime.telemetry` — :class:`TelemetryStore`, a bounded
  time-series store fed by every DC's
  :class:`~repro.net.monitor.WanMonitor`, with sliding-window
  percentile capacity estimators (p50/p95) and EWMA smoothing;
* :mod:`repro.runtime.drift` — :class:`DriftDetector`, which watches
  estimator output against the trained prediction and fires
  re-gauge/re-plan events when the error exceeds a threshold;
* :mod:`repro.runtime.scheduler` — :class:`JobScheduler`, an admission
  queue running multiple concurrent GDA jobs over the shared WAN
  substrate, with per-job completion, SLO-attainment, and fairness
  statistics;
* :mod:`repro.runtime.scheduling` — the pluggable scheduling layer:
  registered admission policies (``fifo`` / ``priority`` /
  ``deadline-edf`` / ``fair-share``), per-job :class:`SLO` promises,
  and the :class:`BatchedReallocator` that amortizes queue
  re-ordering over submission batches;
* :mod:`repro.runtime.control` — the control plane: registered
  preemption policies (``none`` / ``urgent-slo`` / ``cost-aware``)
  pausing/resuming jobs via :class:`JobRun` checkpoints, the deadline-aware
  :class:`BandwidthGovernor` shifting WAN share between running jobs,
  and the :class:`ConcurrencyAutoscaler` driving ``max_concurrent``;
* :class:`JobRun` / :class:`JobCheckpoint` — re-exported from
  :mod:`repro.gda.engine.engine`: the event-driven (non-blocking) job
  runner the scheduler uses to interleave jobs on one simulator, with
  pause/resume checkpointing for preemption;
* :mod:`repro.runtime.observability` — the telemetry warehouse
  (:class:`MetricsLog` + time-grain rollups), the ring-buffered
  :class:`EventTrace`, operator :class:`KpiReport` tables over
  recorded runs, and a Prometheus-text ``/metrics`` surface, wired
  through every component by the :class:`ObservabilityHub`;
* :mod:`repro.runtime.scenarios` — named bandwidth-dynamics scenarios
  (diurnal swing, flash crowd, link degradation/failure, step drop,
  circuit failover/flapping and path-policy switching over the
  :mod:`repro.net.circuits` primitives) pluggable into
  :class:`~repro.net.simulator.NetworkSimulator`;
* :mod:`repro.runtime.recalibrator` — :class:`CapacityRecalibrator`,
  the background gauger that re-derives per-link usable capacity from
  the p95 of observed throughput on an interval (ceiling/floor
  guards, max step per tick), keeping plans honest between drift
  re-plans;
* :mod:`repro.runtime.summary` — :class:`ServiceSummary`, where each
  reported metric is declared once (row key, sweep column, Prometheus
  family);
* :mod:`repro.runtime.service` — :class:`PipelineService`, which wires
  the pieces together and owns the replanning loop.

Quick tour::

    from repro.runtime import PipelineService, ServiceConfig, scenario

    service = PipelineService.build(
        ServiceConfig(scenario="link-degradation", seed=11)
    )
    service.submit(my_job)           # queued, admitted when a slot frees
    service.run(until=3600.0)        # drive the shared simulator
    print(service.summary())         # JCTs, waits, replans, fairness

``python -m repro serve`` exposes the same loop from the command line.
"""

from repro.runtime.control import (
    BandwidthGovernor,
    ConcurrencyAutoscaler,
    ControlPlane,
    ControlView,
    PreemptionDecision,
    PreemptionPolicy,
    SlackEstimator,
)
from repro.runtime.drift import DriftDetector, ReplanEvent
from repro.gda.engine.engine import JobCheckpoint, JobRun
from repro.runtime.observability import (
    EventTrace,
    KpiReport,
    MetricsLog,
    ObservabilityHub,
    RollupRow,
    TraceEvent,
)
from repro.runtime.recalibrator import CapacityRecalibrator
from repro.runtime.scenarios import (
    CircuitFailover,
    ComposedScenario,
    DiurnalSwing,
    FlappingLink,
    FlashCrowd,
    LinkDegradation,
    PathPolicySwitch,
    ScenarioModel,
    StepDrop,
    register_scenario_model,
    scenario,
    scenario_names,
)
from repro.runtime.scheduler import JobScheduler, JobTicket, jain_index
from repro.runtime.scheduling import (
    SLO,
    AdmissionPolicy,
    BatchedReallocator,
    SchedulerView,
    spread_slos,
)
from repro.runtime.service import (
    PipelineService,
    ServiceConfig,
    ServiceSummary,
    default_job_mix,
)
from repro.runtime.telemetry import LinkEstimate, LinkSeries, TelemetryStore

__all__ = [
    "AdmissionPolicy",
    "BandwidthGovernor",
    "BatchedReallocator",
    "CapacityRecalibrator",
    "CircuitFailover",
    "ComposedScenario",
    "ConcurrencyAutoscaler",
    "ControlPlane",
    "ControlView",
    "DiurnalSwing",
    "DriftDetector",
    "FlappingLink",
    "PathPolicySwitch",
    "EventTrace",
    "FlashCrowd",
    "KpiReport",
    "MetricsLog",
    "ObservabilityHub",
    "RollupRow",
    "TraceEvent",
    "JobCheckpoint",
    "JobRun",
    "PreemptionDecision",
    "PreemptionPolicy",
    "SlackEstimator",
    "JobScheduler",
    "JobTicket",
    "LinkDegradation",
    "SLO",
    "SchedulerView",
    "LinkEstimate",
    "LinkSeries",
    "PipelineService",
    "ReplanEvent",
    "ScenarioModel",
    "ServiceConfig",
    "ServiceSummary",
    "StepDrop",
    "TelemetryStore",
    "default_job_mix",
    "jain_index",
    "register_scenario_model",
    "scenario",
    "scenario_names",
    "spread_slos",
]
