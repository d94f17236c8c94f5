"""Process-parallel shard execution with deterministic merge.

The in-process :class:`~repro.runtime.scheduling.shards.ShardedScheduler`
splits the admission queue but still drains every shard on *one*
simulator in *one* process: at thousands of jobs the shared heap, the
shared transfer state, and the work-stealing scans (each steal re-runs
the donor's full admission order) dominate the wall clock, and a second
CPU core cannot help.  This module is the scale-out answer:

* :func:`partition_mix` splits a submission mix into per-shard slices
  using the *same* tenant hash as the in-process sharded scheduler
  (:func:`~repro.runtime.scheduling.shards.shard_for_tenant`), so a
  tenant lands on the same shard either way;
* :class:`ShardTask` packages one shard as a picklable value: its
  index, the service's frozen
  :class:`~repro.pipeline.config.ServiceConfig` with
  ``max_concurrent`` cut to the shard's slice of the budget, and its
  job slice;
* :func:`run_shard` (a module-level function, so it pickles by
  reference) builds that shard's world from the config inside a worker
  process — through the same
  :func:`~repro.runtime.scenarios.service_cluster` and
  :func:`~repro.runtime.scheduler.scheduler_args` the service builds
  its own cluster and scheduler with — drains it, and returns a
  :class:`ShardResult` of per-job :class:`JobRecord` summaries;
* :class:`ShardExecutor` fans the tasks out over a ``multiprocessing``
  pool (``workers`` processes) or runs them serially in-process
  (``workers`` ≤ 1) — the results are **byte-identical** either way,
  because each shard's simulation is seeded and self-contained and the
  merge consumes results in shard order, never arrival order;
* :func:`merge_stats` folds the per-shard records through the same
  :func:`~repro.runtime.scheduler.aggregate_records` as the in-process
  schedulers (global makespan from the earliest submit to the latest
  finish), plus reconciliation counters.

Pool construction or pickling can fail on exotic platforms; the
executor then falls back to the serial path and records
:attr:`ShardExecutor.fell_back` rather than crashing the run.  The
service exposes all of this behind ``ServiceConfig.shard_workers``
(default 0 = the executor never runs; the in-process scheduler is
byte-identical to yesterday's service).

A worker reads only the config fields that build its cluster
(``regions``, ``vm``, ``profile``, ``seed``, ``scenario``, ``kernel``)
and its scheduler (``max_concurrent``, ``policy``, ``scheduler``,
``slo_deadline_s``, ``admit_batch``).  The service-loop fields (drift,
recalibration, control plane, observability, variant, gauger) travel
along unread.

What partitioning gives up: shards no longer contend for one WAN (each
worker simulates its own copy of the network), and there is no
cross-shard work-stealing.  That is the price of linear scaling — and
on a multi-tenant mix with tenant-hashed routing it is exactly the
"scale by adding cells" deployment the paper's service model assumes.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.checks import check_workers
from repro.gda.engine.dag import JobSpec
from repro.pipeline.config import ServiceConfig
from repro.runtime.scenarios import service_cluster
from repro.runtime.scheduler import (
    JobRecord,
    JobScheduler,
    aggregate_records,
    job_record,
    scheduler_args,
)
from repro.runtime.scheduling.shards import (
    shard_for_tenant,
    split_concurrency,
    tenant_of_submission,
)
from repro.runtime.scheduling.slo import SLO

__all__ = [
    "JobRecord",
    "ShardExecutor",
    "ShardResult",
    "ShardTask",
    "merge_stats",
    "partition_mix",
    "run_shard",
]

#: One submission: ``(delay_s, job, policy-name-or-None, slo-or-None)``.
#: The policy travels as a *registered name* (or ``None`` for the
#: shard's default), never an instance — instances may close over
#: unpicklable state.
Entry = tuple[float, JobSpec, Optional[str], Optional[SLO]]


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs to rebuild and drain a shard.

    ``config`` is the service's frozen config with ``max_concurrent``
    replaced by this shard's share of the budget.  The task is built
    from plain values (the config, the frozen
    :class:`~repro.runtime.scheduling.slo.SLO`, and
    :class:`~repro.gda.engine.dag.JobSpec` dataclasses) so it pickles
    across the process boundary.  Two equal tasks produce
    byte-identical :class:`ShardResult`\\ s — the whole parallel path
    rests on that.
    """

    index: int
    config: ServiceConfig
    jobs: tuple[Entry, ...]


@dataclass
class ShardResult:
    """What one shard's drain produced."""

    index: int
    records: list[JobRecord] = field(default_factory=list)
    submitted: int = 0
    queued: int = 0
    running: int = 0
    peak_concurrency: int = 0
    #: Kernel events the shard's simulator executed.
    events_processed: int = 0
    #: Final simulation clock of the shard.
    sim_end_s: float = 0.0
    #: Wall-clock seconds the drain took inside the worker.
    wall_s: float = 0.0


def partition_mix(
    entries: list[Entry],
    shards: int,
    default_slo: Optional[SLO] = None,
) -> list[list[Entry]]:
    """Split a submission mix into per-shard slices by tenant hash.

    Routing matches the in-process
    :meth:`~repro.runtime.scheduling.shards.ShardedScheduler.shard_of`
    exactly (same tenant key, same CRC-32 hash), so a mix drained
    in-process and a mix drained through the executor agree on which
    shard owns which tenant.  Within a slice the original submission
    order — and therefore the per-shard event order — is preserved.
    """
    slices: list[list[Entry]] = [[] for _ in range(shards)]
    for entry in entries:
        _, job, _, slo = entry
        tenant = tenant_of_submission(job, slo, default_slo)
        slices[shard_for_tenant(tenant, shards)].append(entry)
    return slices


def run_shard(task: ShardTask) -> ShardResult:
    """Build, submit, and drain one shard's world; return its records.

    Deterministic in the task alone: the profile's fluctuation and the
    scenario weather are seeded from the config's ``seed``, the
    kernel's event order is total, and nothing reads process-global
    state — which is what makes running this in a pool worker
    equivalent to running it inline.
    """
    start = time.perf_counter()
    cluster, _ = service_cluster(task.config)
    scheduler = JobScheduler(cluster, **scheduler_args(task.config))
    scheduler.submit_many(list(task.jobs))
    sim = cluster.network.sim
    sim.run()
    return ShardResult(
        index=task.index,
        records=[job_record(t, task.index) for t in scheduler.completed],
        submitted=len(task.jobs),
        queued=len(scheduler.queued),
        running=len(scheduler.running),
        peak_concurrency=scheduler.peak_concurrency,
        events_processed=sim.events_processed,
        sim_end_s=sim.now,
        wall_s=time.perf_counter() - start,
    )


def merge_stats(results: list[ShardResult]) -> dict[str, float]:
    """Fold per-shard results into one statistics row.

    The merged records go through the same
    :func:`~repro.runtime.scheduler.aggregate_records` as the
    in-process schedulers, with the makespan spanning from the globally
    earliest submission to the globally latest finish.  ``submitted`` / ``queued`` / ``running`` / ``shards``
    ride along so callers can reconcile
    (``submitted == completed + queued + running``).
    """
    records = [r for result in results for r in result.records]
    submitted = sum(result.submitted for result in results)
    queued = sum(result.queued for result in results)
    running = sum(result.running for result in results)
    merged = aggregate_records(
        records, min((r.submitted_s for r in records), default=None)
    )
    merged["shards"] = float(len(results))
    merged["submitted"] = float(submitted)
    merged["queued"] = float(queued)
    merged["running"] = float(running)
    merged["events_processed"] = float(sum(result.events_processed for result in results))
    return merged


class ShardExecutor:
    """Run shard tasks in worker processes (or serially when asked).

    ``workers`` ≤ 1 drains every task inline — the deterministic
    reference the parallel path must match byte for byte.  ``workers``
    ≥ 2 maps the tasks over a ``multiprocessing`` pool; results come
    back via ``Pool.map``, which preserves task order, so the merge
    never depends on worker arrival timing.  Any pool failure
    (platform without ``fork``/``spawn``, pickling refusal) degrades
    to the serial path and sets :attr:`fell_back` — scale-out is an
    optimization, never a correctness requirement.
    """

    def __init__(self, workers: int = 0) -> None:
        check_workers(workers)
        self.workers = workers
        #: Worker processes actually used by the last :meth:`run`
        #: (0 = the serial in-process path).
        self.workers_used = 0
        #: ``True`` when the last run requested a pool but degraded to
        #: the serial path.
        self.fell_back = False
        #: Wall-clock seconds the last :meth:`run` took end to end.
        self.wall_s = 0.0

    @staticmethod
    def _context() -> multiprocessing.context.BaseContext:
        """The preferred multiprocessing context.

        ``fork`` when the platform has it (workers inherit the loaded
        interpreter — no re-import cost per shard), else ``spawn``.
        Shard results do not depend on the start method: ``run_shard``
        reads nothing process-global, and no hash-salted ordering
        leaks into the simulation (tenant routing is CRC-32).
        """
        try:
            return multiprocessing.get_context("fork")
        except ValueError:
            return multiprocessing.get_context("spawn")

    def run(self, tasks: list[ShardTask]) -> list[ShardResult]:
        """Drain every task; results are returned in task order."""
        start = time.perf_counter()
        self.fell_back = False
        self.workers_used = 0
        try:
            if self.workers >= 2 and len(tasks) >= 2:
                results = self._run_pool(tasks)
            else:
                results = [run_shard(task) for task in tasks]
        finally:
            self.wall_s = time.perf_counter() - start
        return results

    def _run_pool(self, tasks: list[ShardTask]) -> list[ShardResult]:
        """The pool path, degrading to serial on any pool failure."""
        workers = min(self.workers, len(tasks))
        try:
            context = self._context()
            with context.Pool(processes=workers) as pool:
                results = pool.map(run_shard, tasks)
            self.workers_used = workers
            return results
        except Exception:
            self.fell_back = True
            self.workers_used = 0
            return [run_shard(task) for task in tasks]


def build_tasks(entries: list[Entry], config: ServiceConfig) -> list[ShardTask]:
    """Partition a mix into ``config.scheduler_shards`` tasks.

    The concurrency budget splits across shards exactly like the
    in-process sharded scheduler
    (:func:`~repro.runtime.scheduling.shards.split_concurrency` — every
    shard gets at least one slot).
    """
    shards = config.scheduler_shards
    slices = partition_mix(entries, shards, scheduler_args(config)["default_slo"])
    bounds = split_concurrency(config.max_concurrent, shards)
    return [
        ShardTask(index, replace(config, max_concurrent=bound), tuple(chunk))
        for index, (bound, chunk) in enumerate(zip(bounds, slices))
    ]
