"""The observability hub: one object wiring warehouse, trace, metrics.

:class:`ObservabilityHub` is what a
:class:`~repro.runtime.service.PipelineService` constructs (when
``ServiceConfig.observability`` is on — the default) at the end of
``start()``.  It owns the run's
:class:`~repro.runtime.observability.warehouse.MetricsLog` (a view over
the service's telemetry store, so each sample is stored once) and
:class:`~repro.runtime.observability.trace.EventTrace`, and threads
lightweight callbacks through every decision-making component:

* the :class:`~repro.runtime.scheduler.JobScheduler`'s ``on_event``
  (submit / admit / finish / preempt),
* the :class:`~repro.runtime.drift.DriftDetector`'s ``on_fire``,
* the :class:`~repro.runtime.control.governor.BandwidthGovernor`'s
  ``on_cap`` and the
  :class:`~repro.runtime.control.autoscaler.ConcurrencyAutoscaler`'s
  ``on_scale`` (when the control plane exists),
* the gauger's :class:`~repro.pipeline.stages.GaugeLedger` ``on_gauge``.

Every hook is observation-only — the hub records, never steers — so
enabling observability cannot change a run's numbers.

:meth:`render_prometheus` turns the live state into Prometheus text
(the families in :data:`REQUIRED_METRIC_FAMILIES` are always present),
and :meth:`serve_metrics` exposes it over HTTP for ``wanify serve
--metrics-port``.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Callable, Optional

from repro.runtime.observability.prometheus import (
    MetricsEndpoint,
    MetricsRegistry,
)
from repro.runtime.observability.trace import EventTrace
from repro.runtime.observability.warehouse import MetricsLog
from repro.runtime.scheduling.slo import tenant_of
from repro.runtime.summary import SUMMARY_FAMILIES

if TYPE_CHECKING:
    from repro.pipeline.stages import GaugeEvent
    from repro.runtime.drift import ReplanEvent
    from repro.runtime.scheduler import JobTicket
    from repro.runtime.service import PipelineService

#: What a labelled family's reader returns: ``{labels: value}``, each
#: key the sample's ``(label, value)`` pairs.
Samples = dict[tuple[tuple[str, str], ...], float]


def _traced(kind: str) -> Callable[["ObservabilityHub"], int]:
    """Reader of the trace's all-time count of ``kind`` events."""
    return lambda hub: hub.trace.totals.get(kind, 0)


def _caps_held(hub: "ObservabilityHub") -> int:
    governor = getattr(hub.service.control, "governor", None)
    return len(governor.held) if governor is not None else 0


def _arm_pulls(hub: "ObservabilityHub") -> Samples:
    switcher = getattr(hub.service.control, "switcher", None)
    arms = switcher.arm_stats() if switcher is not None else {}
    return {(("arm", name),): stats["pulls"] for name, stats in arms.items()}


def _shard_queues(hub: "ObservabilityHub") -> Samples:
    shards = getattr(hub.service.scheduler, "shards", [])
    return {(("shard", str(index)),): len(shard.queued) for index, shard in enumerate(shards)}


def _link_estimates(hub: "ObservabilityHub") -> Samples:
    telemetry = hub.service.telemetry
    samples: Samples = {}
    for src, dst in telemetry.links():
        estimate = telemetry.estimate(src, dst)
        for stat in ("p50", "p95", "ewma"):
            samples[("src", src), ("dst", dst), ("stat", stat)] = getattr(estimate, stat)
    return samples


def _recal_capacity(hub: "ObservabilityHub") -> Samples:
    if hub.service.recalibrator is None:
        return {}
    current = hub.service.recalibrator.current
    return {(("src", src), ("dst", dst)): current.get(src, dst) for src, dst in current.pairs()}


#: The hub's own ``/metrics`` families, ``(name, help, reader)``: the
#: live state no :class:`~repro.runtime.summary.ServiceSummary` field
#: carries.  A reader takes the hub and returns the value, or
#: :data:`Samples` for a labelled gauge; a ``_total`` name makes a
#: counter (as on ``metric_field``).  The event counters read the
#: trace's per-kind totals, which survive ring eviction.
HUB_FAMILIES: tuple[tuple[str, str, Callable[..., object]], ...] = (
    ("wanify_jobs_submitted_total", "Jobs submitted to the scheduler.", _traced("submit")),
    ("wanify_jobs_admitted_total", "Jobs admitted to a run slot (re-admissions included).",
     _traced("admit")),
    ("wanify_jobs_completed_total", "Jobs run to completion.", _traced("finish")),
    ("wanify_jobs_preempted_total", "Preemptions executed by the control plane.",
     _traced("preempt")),
    ("wanify_drift_events_total", "Drift events fired by the detector.", _traced("drift")),
    ("wanify_jobs_running", "Jobs currently in flight.",
     lambda hub: len(hub.service.scheduler.running)),
    ("wanify_jobs_queued", "Jobs waiting for admission.",
     lambda hub: len(hub.service.scheduler.queued)),
    ("wanify_max_concurrent", "Current concurrency bound (autoscaled when enabled).",
     lambda hub: hub.service.scheduler.max_concurrent),
    ("wanify_governor_caps_held", "Bandwidth-governor caps currently in force.", _caps_held),
    ("wanify_metrics_log_entries", "Samples in the append-only metrics log.",
     lambda hub: hub.log.size),
    ("wanify_tuner_arm_pulls", "Bandit pulls per tuner arm (label: arm).", _arm_pulls),
    ("wanify_shard_jobs_queued", "Queued jobs per scheduler shard (label: shard).",
     _shard_queues),
    ("wanify_link_estimate_mbps", "Per-link telemetry estimates (labels: src, dst, stat).",
     _link_estimates),
    ("wanify_recal_capacity_mbps", "Recalibrated per-link capacity (labels: src, dst).",
     _recal_capacity),
)

#: The job-latency histogram ``(name, help)``, fed by ``jct_samples``.
LATENCY_FAMILY = ("wanify_job_latency_seconds", "Job completion time from submission (JCT).")

#: Metric families :meth:`ObservabilityHub.render_prometheus` always
#: emits — the contract the CI smoke scrape asserts: the hub's own
#: families, then every family declared on a
#: :class:`~repro.runtime.summary.ServiceSummary` field.
REQUIRED_METRIC_FAMILIES: tuple[str, ...] = (
    *(name for name, _, _ in HUB_FAMILIES), LATENCY_FAMILY[0], *SUMMARY_FAMILIES
)


class ObservabilityHub:
    """Owns the warehouse + trace and instruments one service."""

    def __init__(self, service: "PipelineService") -> None:
        self.service = service
        topology = service.cluster.topology

        def capacity_of(src: str, dst: str) -> float:
            # A directed link can carry at most what the source can
            # send and the destination can absorb.
            return min(
                topology.dc(src).egress_cap_mbps,
                topology.dc(dst).ingress_cap_mbps,
            )

        self.log = MetricsLog(capacity_of, service.telemetry)
        self.trace = EventTrace()
        #: Completed-job JCTs (seconds) — the latency histogram's feed.
        self.jct_samples: list[float] = []
        self.metrics_scrapes = 0
        self.endpoint: Optional[MetricsEndpoint] = None

        service.scheduler.on_event = self._job_event
        if service.detector is not None:
            service.detector.on_fire = self._drift_fired
        control = service.control
        if control is not None:
            if control.governor is not None:
                control.governor.on_cap = self._cap_moved
            if control.autoscaler is not None:
                control.autoscaler.on_scale = self._scaled
            if control.switcher is not None:
                control.switcher.on_switch = self._policy_switched
        gauger = service.pipeline.gauger
        if hasattr(gauger, "log_gauge"):
            gauger.on_gauge = self._gauged

    # -- hook handlers (observation only) -------------------------------

    @property
    def _now(self) -> float:
        return self.service.sim.now

    def _job_event(self, kind: str, ticket: "JobTicket") -> None:
        detail: dict[str, object] = {"tenant": tenant_of(ticket)}
        if kind == "admit":
            detail["wait_s"] = ticket.waited_s
        elif kind == "finish":
            detail["jct_s"] = ticket.jct_s
            self.jct_samples.append(ticket.jct_s)
        elif kind == "preempt":
            detail["preemptions"] = ticket.preemptions
        self.trace.record(self._now, kind, ticket.job.name, **detail)

    def _drift_fired(self, event: "ReplanEvent") -> None:
        self.trace.record(
            event.time,
            "drift",
            f"{event.src}→{event.dst}",
            rel_error=event.rel_error,
            observed_mbps=event.observed_mbps,
            predicted_mbps=event.predicted_mbps,
        )

    def replan_recorded(self, event: "ReplanEvent") -> None:
        """The service executed a re-plan (called with the charged event)."""
        self.trace.record(
            event.time,
            "replan",
            f"{event.src}→{event.dst}",
            probe_transfers=event.probe_transfers,
            probe_cost_usd=event.probe_cost_usd,
        )

    def recalibration_recorded(self, matrix) -> None:
        """The recalibrator published a matrix (called per tick)."""
        recalibrator = self.service.recalibrator
        self.trace.record(
            self._now,
            "recalibrate",
            "capacity",
            links_adjusted=(
                recalibrator.last_adjusted if recalibrator is not None else 0
            ),
            min_bw_mbps=matrix.min_bw(),
        )

    def _cap_moved(
        self, action: str, pair: tuple[str, str], cap_mbps: float
    ) -> None:
        kind = "cap-apply" if action == "apply" else "cap-release"
        detail = {"cap_mbps": cap_mbps} if action == "apply" else {}
        self.trace.record(self._now, kind, f"{pair[0]}→{pair[1]}", **detail)

    def _scaled(self, direction: str, bound: int) -> None:
        self.trace.record(
            self._now, "scale", direction, max_concurrent=bound
        )

    def _policy_switched(self, event) -> None:
        self.trace.record(
            event.time,
            "policy-switch",
            event.arm.name,
            action=event.action,
            previous=event.previous.name,
            scheduler=event.arm.scheduler,
            preemption=event.arm.preemption,
            regime=event.regime,
        )

    def _gauged(self, event: "GaugeEvent") -> None:
        self.trace.record(
            event.time,
            "gauge",
            event.mode,
            transfers=event.transfers,
            dollars=event.dollars,
        )

    # -- summary surface ------------------------------------------------

    @property
    def events_traced(self) -> int:
        """Events ever recorded (including any evicted from the ring)."""
        return self.trace.recorded

    # -- Prometheus exposition ------------------------------------------

    def render_prometheus(self) -> str:
        """The service's live state in Prometheus text format.

        A fresh registry is built per call, so the text always reflects
        the moment of the scrape.  One loop renders the
        :data:`HUB_FAMILIES` rows and the families declared on
        :class:`~repro.runtime.summary.ServiceSummary` fields, read off
        one ``service.live_summary()`` (no pass over the log); the JCT
        histogram follows.
        """
        registry = MetricsRegistry()
        own = ((name, help_text, read(self)) for name, help_text, read in HUB_FAMILIES)
        for name, help_text, value in chain(own, self.service.live_summary().families()):
            if name.endswith("_total"):
                put = registry.counter(name, help_text).set_total
            else:
                put = registry.gauge(name, help_text).set
            samples = value if isinstance(value, dict) else {(): value}
            for labels, sample in samples.items():
                put(sample, **dict(labels))
        latency = registry.histogram(*LATENCY_FAMILY)
        for jct in self.jct_samples:
            latency.observe(jct)
        return registry.render()

    def serve_metrics(self, port: int = 0) -> MetricsEndpoint:
        """Start the /metrics endpoint (``port=0`` binds ephemeral)."""
        if self.endpoint is not None:
            raise RuntimeError("metrics endpoint already serving")
        self.endpoint = MetricsEndpoint(
            self.render_prometheus, port=port, on_scrape=self._scraped
        )
        return self.endpoint

    def _scraped(self) -> None:
        self.metrics_scrapes += 1

    def close(self) -> None:
        """Stop the metrics endpoint if one is serving."""
        if self.endpoint is not None:
            self.endpoint.close()
            self.endpoint = None
