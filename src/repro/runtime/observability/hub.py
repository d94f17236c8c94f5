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

Every hook is observation-only — the hub records and counts, never
steers — so enabling observability cannot change a run's numbers.

:meth:`render_prometheus` turns the live state into Prometheus text
(the families in :data:`REQUIRED_METRIC_FAMILIES` are always present),
and :meth:`serve_metrics` exposes it over HTTP for ``wanify serve
--metrics-port``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

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

#: Metric families :meth:`ObservabilityHub.render_prometheus` always
#: emits — the contract the CI smoke scrape asserts: the hub's own
#: families, then every family declared on a
#: :class:`~repro.runtime.summary.ServiceSummary` field.
REQUIRED_METRIC_FAMILIES: tuple[str, ...] = (
    "wanify_jobs_submitted_total",
    "wanify_jobs_admitted_total",
    "wanify_jobs_completed_total",
    "wanify_jobs_preempted_total",
    "wanify_drift_events_total",
    "wanify_jobs_running",
    "wanify_jobs_queued",
    "wanify_max_concurrent",
    "wanify_governor_caps_held",
    "wanify_metrics_log_entries",
    "wanify_tuner_arm_pulls",
    "wanify_scheduler_shards",
    "wanify_link_estimate_mbps",
    "wanify_recal_capacity_mbps",
    "wanify_job_latency_seconds",
) + SUMMARY_FAMILIES

#: Scheduler event kind → hub counter key.
_JOB_COUNTER = {
    "submit": "submitted",
    "admit": "admitted",
    "finish": "completed",
    "preempt": "preempted",
}


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
        self.counters: dict[str, int] = {
            "submitted": 0,
            "admitted": 0,
            "completed": 0,
            "preempted": 0,
            "drift": 0,
        }
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
        counter = _JOB_COUNTER.get(kind)
        if counter is not None:
            self.counters[counter] += 1
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
        self.counters["drift"] += 1
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
        the moment of the scrape.  Families declared on a
        :class:`~repro.runtime.summary.ServiceSummary` field are read
        off one ``service.live_summary()`` (no pass over the log) rather
        than double-counted through hooks; the rest come from the hub's own counters and
        the live scheduler, telemetry and recalibrator state.
        """
        service = self.service
        scheduler = service.scheduler
        registry = MetricsRegistry()

        def counter(name: str, help_text: str, value: float) -> None:
            registry.counter(name, help_text).set_total(value)

        counter(
            "wanify_jobs_submitted_total",
            "Jobs submitted to the scheduler.",
            self.counters["submitted"],
        )
        counter(
            "wanify_jobs_admitted_total",
            "Jobs admitted to a run slot (re-admissions included).",
            self.counters["admitted"],
        )
        counter(
            "wanify_jobs_completed_total",
            "Jobs run to completion.",
            self.counters["completed"],
        )
        counter(
            "wanify_jobs_preempted_total",
            "Preemptions executed by the control plane.",
            self.counters["preempted"],
        )
        counter(
            "wanify_drift_events_total",
            "Drift events fired by the detector.",
            self.counters["drift"],
        )
        for name, help_text, value in service.live_summary().families():
            if name.endswith("_total"):
                counter(name, help_text, value)
            else:
                registry.gauge(name, help_text).set(value)

        registry.gauge(
            "wanify_jobs_running", "Jobs currently in flight."
        ).set(len(scheduler.running))
        registry.gauge(
            "wanify_jobs_queued", "Jobs waiting for admission."
        ).set(len(scheduler.queued))
        registry.gauge(
            "wanify_max_concurrent",
            "Current concurrency bound (autoscaled when enabled).",
        ).set(scheduler.max_concurrent)
        governor = (
            service.control.governor if service.control is not None else None
        )
        registry.gauge(
            "wanify_governor_caps_held",
            "Bandwidth-governor caps currently in force.",
        ).set(len(governor.held) if governor is not None else 0)
        registry.gauge(
            "wanify_metrics_log_entries",
            "Samples in the append-only metrics log.",
        ).set(self.log.size)
        switcher = (
            service.control.switcher if service.control is not None else None
        )
        pulls = registry.gauge(
            "wanify_tuner_arm_pulls",
            "Bandit pulls per tuner arm (label: arm).",
        )
        if switcher is not None:
            for arm_name, stats in switcher.arm_stats().items():
                pulls.set(stats["pulls"], arm=arm_name)

        registry.gauge(
            "wanify_scheduler_shards",
            "Scheduler shards serving the run (1 = single queue).",
        ).set(getattr(scheduler, "shard_count", 1))
        shard_queue = registry.gauge(
            "wanify_shard_jobs_queued",
            "Queued jobs per scheduler shard (label: shard).",
        )
        for index, shard in enumerate(getattr(scheduler, "shards", [])):
            shard_queue.set(len(shard.queued), shard=str(index))

        estimates = registry.gauge(
            "wanify_link_estimate_mbps",
            "Per-link telemetry estimates (labels: src, dst, stat).",
        )
        for src, dst in service.telemetry.links():
            estimate = service.telemetry.estimate(src, dst)
            estimates.set(estimate.p50, src=src, dst=dst, stat="p50")
            estimates.set(estimate.p95, src=src, dst=dst, stat="p95")
            estimates.set(estimate.ewma, src=src, dst=dst, stat="ewma")

        recalibrator = service.recalibrator
        recal_capacity = registry.gauge(
            "wanify_recal_capacity_mbps",
            "Recalibrated per-link capacity (labels: src, dst).",
        )
        if recalibrator is not None:
            current = recalibrator.current
            for src, dst in current.pairs():
                recal_capacity.set(current.get(src, dst), src=src, dst=dst)

        latency = registry.histogram(
            "wanify_job_latency_seconds",
            "Job completion time from submission (JCT).",
        )
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
