"""What a service run produced: :class:`ServiceSummary`, one metric per field.

Each reported metric is declared once, as a :func:`metric_field`, and
every surface that reports it derives from the declaration:
:meth:`ServiceSummary.to_row` (tables, sweep reports, recorded runs),
:data:`SWEEP_COLUMNS` (the ``sweep=True`` metrics) and
:data:`SUMMARY_FAMILIES` / :meth:`ServiceSummary.families` (the
``/metrics`` families the observability hub renders off one
``live_summary()`` per scrape).  The module imports nothing from the
runtime, so the hub can read the declarations without importing the
service.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Optional, Union

if TYPE_CHECKING:
    from repro.runtime.drift import ReplanEvent

__all__ = ["SUMMARY_FAMILIES", "SWEEP_COLUMNS", "ServiceSummary", "metric_field"]


def _as_stored(value: Any) -> Any:
    return value


def _size(value: Any) -> float:
    return float(len(value))


def metric_field(
    default: Any,
    help: str,  # noqa: A002 - mirrors config_field's spelling
    family: Optional[str] = None,
    sweep: bool = False,
    row: Union[str, bool] = True,
) -> Any:
    """A :class:`ServiceSummary` field declaring one reported metric.

    ``family`` exports it on ``/metrics`` under that name (a ``_total``
    suffix makes a counter, anything else a gauge; ``help`` is the
    HELP text); ``sweep`` adds it to every sweep report.  ``row`` is
    its :meth:`~ServiceSummary.to_row` key: the field name (``True``),
    another name, or none (``False``).  The default fixes the row
    value: an ``int`` default is a count reported as a float, a
    ``float`` one a measurement reported as stored, and a callable one
    a per-instance container factory whose size is reported.
    """
    if callable(default):
        as_row, kwargs = _size, {"default_factory": default}
    else:
        as_row = float if isinstance(default, int) else _as_stored
        kwargs = {"default": default}
    metadata = {"help": help, "family": family, "sweep": sweep, "row": row, "as_row": as_row}
    return dataclasses.field(metadata=metadata, **kwargs)


@dataclass
class ServiceSummary:
    """What a service run produced, for tables and assertions.

    Built by :meth:`PipelineService.summary
    <repro.runtime.service.PipelineService.summary>` from the
    scheduler's stats, the gauger's ledger, the re-plan log and the
    control plane, hub and recalibrator counters.  The defaults are
    the values before anything completes: counters and averages 0, the
    *ratio* metrics (``fairness``, ``slo_attainment``) 1.0 — nothing
    has yet been unfair or broken — and a component that is off
    (control plane, hub, tuner, recalibrator) leaves its metrics there.
    """

    completed: int = metric_field(0, "Jobs run to completion.", sweep=True)
    mean_wait_s: float = metric_field(0.0, "Mean queueing delay per job (s).")
    mean_jct_s: float = metric_field(0.0, "Mean job completion time (s).", sweep=True)
    total_jct_s: float = metric_field(0.0, "Summed job completion times (s).", sweep=True)
    makespan_s: float = metric_field(0.0, "First submission to last finish (s).", sweep=True)
    jobs_per_hour: float = metric_field(0.0, "Completed jobs per simulated hour.")
    fairness: float = metric_field(1.0, "Jain's index over per-job WAN throughput.", sweep=True)
    replans: int = metric_field(
        0, "Drift-triggered re-plans executed.", family="wanify_replans_total", sweep=True
    )
    telemetry_samples: int = metric_field(
        0,
        "Monitor ticks ingested by the telemetry store.",
        family="wanify_telemetry_samples_total",
        row=False,
    )
    #: Probe accounting off the gauger's ledger (zero for passive telemetry).
    probe_transfers: int = metric_field(
        0, "Probe flows launched by the gauger.", family="wanify_probe_transfers_total", sweep=True
    )
    probe_gb: float = metric_field(0.0, "Probe gigabytes the gauger moved.", sweep=True)
    probe_cost_usd: float = metric_field(
        0.0, "Probe dollars spent by the gauger.", family="wanify_probe_cost_usd_total", sweep=True
    )
    #: The admission policy the scheduler ran under.
    scheduler: str = "fifo"
    #: Deadline accounting: jobs without a deadline count in neither.
    slo_attained: int = metric_field(0, "Jobs finished within their SLO deadline.")
    slo_missed: int = metric_field(0, "Jobs finished past their SLO deadline.")
    slo_attainment: float = metric_field(1.0, "attained / (attained + missed).", sweep=True)
    #: The slice of probe spend charged to drift-triggered re-gauges.
    replan_probe_transfers: int = metric_field(0, "Probe flows of drift re-gauges.")
    replan_probe_gb: float = metric_field(0.0, "Probe gigabytes of drift re-gauges.")
    replan_cost_usd: float = metric_field(0.0, "Probe dollars of drift re-gauges.", sweep=True)
    #: Control-plane interventions.  The governor's cap ledger balances
    #: (``throttle_moves == throttle_releases``) once a run has drained.
    preemptions: int = metric_field(0, "Slot swaps the preemption policy executed.", sweep=True)
    migrations: int = metric_field(0, "Preempted jobs resumed under a new placement policy.")
    throttle_moves: int = metric_field(0, "Bandwidth caps the governor applied.", sweep=True)
    throttle_releases: int = metric_field(0, "Bandwidth caps the governor released.")
    concurrency_high_water: int = metric_field(
        0, "Autoscaler high-water bound, else the achieved peak concurrency.", sweep=True
    )
    #: Observability-hub statistics, carried by sweep reports so the
    #: hub's overhead is comparable across cells.
    rollup_rows: int = metric_field(0, "Link-level rollup rows across every grain.", sweep=True)
    events_traced: int = metric_field(
        0, "Events recorded into the trace ring.", family="wanify_trace_events_total", sweep=True
    )
    metrics_scrapes: int = metric_field(
        0,
        "Scrapes served by the /metrics endpoint.",
        family="wanify_metrics_scrapes_total",
        sweep=True,
    )
    policy_switches: int = metric_field(
        0,
        "Bandit-driven policy switches applied by the tuner.",
        family="wanify_policy_switches_total",
        sweep=True,
    )
    tuner_arm_stats: dict[str, dict[str, float]] = metric_field(
        dict,
        "Per-arm {pulls, rewarded, total_reward, mean_reward} of the arms pulled.",
        sweep=True,
        row="tuner_arms_explored",
    )
    scheduler_shards: int = metric_field(
        1,
        "Scheduler shards serving the run (1 = single queue).",
        family="wanify_scheduler_shards",
    )
    work_steals: int = metric_field(
        0,
        "Queued tickets moved between shards by work-stealing.",
        family="wanify_work_steals_total",
    )
    #: The last :meth:`PipelineService.drain_parallel`, if any.
    shard_worker_count: int = metric_field(
        0,
        "Worker processes the last parallel drain used (0 = in-process).",
        family="wanify_shard_workers",
    )
    parallel_wall_s: float = metric_field(
        0.0,
        "Wall-clock seconds the last parallel drain took.",
        family="wanify_parallel_wall_seconds",
    )
    #: The WAN simulator's transfer kernel (``scalar`` or ``vectorized``).
    kernel: str = "scalar"
    recalibrations: int = metric_field(
        0,
        "Capacity-recalibration ticks executed.",
        family="wanify_recalibrations_total",
        sweep=True,
    )
    recal_adjustments: int = metric_field(
        0, "Per-link capacity moves the recalibrator published.", sweep=True
    )
    #: The live WAN simulator's own cost: it re-solves rates at most
    #: once per simulated instant, however many changes asked.
    net_solves: int = metric_field(
        0, "Max-min rate solves the WAN simulator ran.", family="wanify_net_solves_total"
    )
    net_solve_requests: int = metric_field(
        0,
        "Changes that asked the WAN simulator to re-solve (requests minus solves were saved).",
        family="wanify_net_solve_requests_total",
    )
    events: list[ReplanEvent] = field(default_factory=list)

    def to_row(self) -> dict[str, float]:
        """Flat dict for table rendering: every row metric, in declaration order."""
        return {name: as_row(getattr(self, attr)) for attr, name, as_row, _ in _ROW}

    def families(self) -> Iterator[tuple[str, str, Any]]:
        """``(family, help, value)`` for every exported metric."""
        for spec in _EXPORTED:
            yield spec.metadata["family"], spec.metadata["help"], getattr(self, spec.name)


_METRICS = [spec for spec in dataclasses.fields(ServiceSummary) if "as_row" in spec.metadata]
_EXPORTED = [spec for spec in _METRICS if spec.metadata["family"] is not None]
#: ``(attribute, row key, converter, in sweeps)`` per row metric.
_ROW = [
    (
        spec.name,
        spec.metadata["row"] if isinstance(spec.metadata["row"], str) else spec.name,
        spec.metadata["as_row"],
        spec.metadata["sweep"],
    )
    for spec in _METRICS
    if spec.metadata["row"] is not False
]

#: Row keys every sweep report carries, in declaration order.
SWEEP_COLUMNS: tuple[str, ...] = tuple(name for _, name, _, sweep in _ROW if sweep)

#: Prometheus families rendered straight off a summary.
SUMMARY_FAMILIES: tuple[str, ...] = tuple(spec.metadata["family"] for spec in _EXPORTED)
