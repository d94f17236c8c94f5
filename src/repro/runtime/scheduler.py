"""Multi-job admission and execution over the shared WAN substrate.

The scheduler keeps an admission queue and at most ``max_concurrent``
jobs in flight; each admitted job becomes a
:class:`~repro.gda.engine.engine.JobRun` interleaving with every other
run on the cluster's single simulator.  Because all jobs shuffle over
the same :class:`~repro.net.simulator.NetworkSimulator`, they contend
for WAN capacity exactly like co-located production queries — which is
the point: WANify's plan (and re-plans) apply to the substrate all of
them share.

*Which* queued job gets a freed slot is no longer hardwired: admission
order comes from a registered
:class:`~repro.runtime.scheduling.policies.AdmissionPolicy`
(``fifo`` by default — the legacy behavior — plus ``priority``,
``deadline-edf``, and ``fair-share``), amortized over submission
batches by the
:class:`~repro.runtime.scheduling.reallocator.BatchedReallocator` so
hundreds of queued jobs do not trigger quadratic re-ordering churn.
Per-job promises ride along as
:class:`~repro.runtime.scheduling.slo.SLO` objects on each ticket.

The scheduler is also the control plane's mechanism layer: a
:class:`~repro.runtime.control.plane.ControlPlane` may
:meth:`~JobScheduler.preempt` a running ticket (checkpointing its
completed-stage state and handing the slot to a named beneficiary) and
re-target the concurrency bound via
:meth:`~JobScheduler.set_max_concurrent`.

Per-job bookkeeping lives in :class:`JobTicket`; aggregate statistics
(throughput in jobs per simulated hour, mean wait/JCT, SLO attainment,
and a Jain fairness index over per-job achieved WAN throughput) come
from :meth:`JobScheduler.stats`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.checks import check_concurrency
from repro.gda.engine.cluster import GeoCluster
from repro.gda.engine.dag import JobSpec
from repro.gda.engine.engine import SHUFFLE_OVERHEAD, JobResult
from repro.gda.systems.base import PlacementPolicy
from repro.pipeline.config import ServiceConfig
from repro.pipeline.registry import admission_policy, placement_policy
from repro.gda.engine.engine import DecisionBw, JobCheckpoint, JobRun
from repro.runtime.scheduling.policies import AdmissionPolicy, SchedulerView
from repro.runtime.scheduling.reallocator import DEFAULT_BATCH, BatchedReallocator
from repro.runtime.scheduling.slo import SLO, deadline_met, deadline_tally, jain_index, tenant_of

__all__ = [
    "AdmissionSpec",
    "JobRecord",
    "JobScheduler",
    "JobTicket",
    "PolicySpec",
    "ZERO_STATS",
    "aggregate_records",
    "aggregate_stats",
    "jain_index",
    "job_record",
    "scheduler_args",
]

#: A policy spec: an instance, a registered name, a class, or ``None``
#: for the scheduler's default.
PolicySpec = PlacementPolicy | str | type | None

#: An admission-policy spec: an instance, a registered name, or a class.
AdmissionSpec = AdmissionPolicy | str | type

#: Every key :func:`aggregate_records` reports, with its
#: before-anything-finished value.  Kept explicit (and returned
#: wholesale in the empty case) so a stats call mid-run — jobs queued
#: or running, none finished — can never divide by a zero completion
#: count.
ZERO_STATS: dict[str, float] = {
    "completed": 0.0,
    "mean_wait_s": 0.0,
    "mean_jct_s": 0.0,
    "total_jct_s": 0.0,
    "makespan_s": 0.0,
    "jobs_per_hour": 0.0,
    "fairness": 1.0,
    "slo_attained": 0.0,
    "slo_missed": 0.0,
    "slo_attainment": 1.0,
}


@dataclass(frozen=True)
class JobRecord:
    """One finished job's plain numbers, detached from its ticket.

    Tickets hold live simulator state (runs, checkpoints, callbacks)
    and cannot cross a process boundary; records carry exactly what
    the statistics need, so in-process and partitioned runs aggregate
    through the same :func:`aggregate_records`.
    """

    name: str
    tenant: str
    shard: int
    submitted_s: float
    finished_s: float
    wait_s: float
    jct_s: float
    #: Achieved WAN throughput in Mbps (0.0 when the job spent no time
    #: on the WAN) — the fairness input.
    throughput_mbps: float
    #: Deadline verdict: ``True``/``False`` when the job carried one,
    #: ``None`` when it promised nothing.
    met: Optional[bool] = None


def job_record(ticket: "JobTicket", shard: int = 0) -> JobRecord:
    """Flatten a finished ticket into a picklable record."""
    throughput = 0.0
    if ticket.result is not None and ticket.result.network_s > 0:
        throughput = ticket.result.wan_gb * 8.0 * 1024.0 / ticket.result.network_s
    return JobRecord(
        name=ticket.job.name,
        tenant=tenant_of(ticket),
        shard=shard,
        submitted_s=ticket.submitted_s,
        finished_s=float(ticket.finished_s or 0.0),
        wait_s=ticket.wait_s,
        jct_s=ticket.jct_s,
        throughput_mbps=throughput,
        met=deadline_met(ticket),
    )


def aggregate_records(
    records: Sequence[JobRecord], first_submit: Optional[float]
) -> dict[str, float]:
    """Completion statistics over finished jobs' records.

    The one aggregation behind :meth:`JobScheduler.stats`, the sharded
    scheduler's and the partitioned executor's
    :func:`~repro.runtime.scheduling.parallel.merge_stats`, so every
    execution mode reports comparable numbers.  Returns
    :data:`ZERO_STATS` wholesale before anything finishes (ratio
    metrics 1.0, counters and averages 0.0).  Jobs that moved nothing
    over the WAN (throughput 0.0) take no part in fairness.
    """
    if not records or first_submit is None:
        return dict(ZERO_STATS)
    makespan = max(r.finished_s for r in records) - first_submit
    attained, missed, attainment = deadline_tally(r.met for r in records)
    return {
        "completed": float(len(records)),
        "mean_wait_s": sum(r.wait_s for r in records) / len(records),
        "mean_jct_s": sum(r.jct_s for r in records) / len(records),
        "total_jct_s": sum(r.jct_s for r in records),
        "makespan_s": makespan,
        "jobs_per_hour": (
            len(records) / (makespan / 3600.0) if makespan > 0 else 0.0
        ),
        "fairness": jain_index([r.throughput_mbps for r in records]),
        "slo_attained": float(attained),
        "slo_missed": float(missed),
        "slo_attainment": attainment,
    }


def aggregate_stats(
    done: list["JobTicket"], first_submit: Optional[float]
) -> dict[str, float]:
    """:func:`aggregate_records` over finished tickets."""
    return aggregate_records([job_record(t) for t in done], first_submit)


@dataclass(eq=False)
class JobTicket:
    """One submission's lifecycle: queued → running → done.

    A preempted ticket loops back: running → queued (carrying a
    :class:`~repro.gda.engine.engine.JobCheckpoint`) → running again
    when re-admitted.

    Tickets compare by *identity* (``eq=False``): two submissions of
    the same job at the same instant are still distinct tickets, so
    queue membership and removal must never confuse them — and the
    admission path's ``deque.remove`` scans become pointer compares
    instead of fifteen-field dataclass comparisons.
    """

    job: JobSpec
    policy: PlacementPolicy
    submitted_s: float
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    run: Optional[JobRun] = None
    result: Optional[JobResult] = None
    #: The promises this submission carries (``None`` = best effort).
    slo: Optional[SLO] = None
    #: Submission sequence number — the admission policies' final
    #: tie-breaker, so equal-key tickets stay in arrival order.
    seq: int = 0
    #: ``True`` when the caller passed an explicit placement policy at
    #: submit.  A pinned policy is the user's choice and is never
    #: overwritten by preemption-migration; only tickets that took the
    #: scheduler's default may be re-pointed when that default moves.
    policy_pinned: bool = False
    #: Completed-stage state saved by the last preemption; consumed
    #: (and cleared) when the ticket is re-admitted.
    checkpoint: Optional[JobCheckpoint] = None
    #: How many times this ticket has been preempted.
    preemptions: int = 0
    #: When the last preemption happened (thrash-guard input for
    #: preemption policies; ``None`` = never preempted).
    preempted_at: Optional[float] = None
    #: When this ticket last (re-)entered the queue — feeds the
    #: cumulative :attr:`waited_s` accounting on admission.
    enqueued_s: float = 0.0
    #: Total seconds spent queued across every admission (a preempted
    #: ticket queues more than once).
    waited_s: float = 0.0

    @property
    def state(self) -> str:
        """``queued``, ``running``, or ``done``."""
        if self.finished_s is not None:
            return "done"
        if self.started_s is not None:
            return "running"
        return "queued"

    @property
    def wait_s(self) -> float:
        """Cumulative queueing delay (0 while never yet admitted).

        For a preempted-and-resumed ticket this sums *every* stint in
        the queue — initial admission wait plus each wait between
        preemption and resume — and never counts execution time
        (``wait_s + execution ≤ jct_s``; the difference is work a
        preemption discarded).
        """
        if self.started_s is None:
            return 0.0
        return self.waited_s

    @property
    def jct_s(self) -> float:
        """Completion time from *submission* (includes queueing)."""
        if self.finished_s is None:
            return 0.0
        return self.finished_s - self.submitted_s

    @property
    def deadline_s(self) -> Optional[float]:
        """Absolute completion deadline (``None`` without one)."""
        if self.slo is None:
            return None
        return self.slo.deadline_at(self.submitted_s)


def scheduler_args(config: ServiceConfig) -> dict[str, Any]:
    """The :class:`JobScheduler` keyword arguments a service config sets.

    The service adds its ``decision_bw`` callable; a partitioned shard
    worker passes these alone.
    """
    return dict(
        max_concurrent=config.max_concurrent,
        default_policy=config.policy,
        admission=config.scheduler,
        default_slo=(
            SLO(deadline_s=config.slo_deadline_s)
            if config.slo_deadline_s is not None
            else None
        ),
    )


class JobScheduler:
    """Policy-driven admission queue + bounded concurrency over one cluster."""

    def __init__(
        self,
        cluster: GeoCluster,
        max_concurrent: int = 3,
        decision_bw: DecisionBw = None,
        shuffle_overhead: float = SHUFFLE_OVERHEAD,
        default_policy: PolicySpec = "tetrium",
        admission: AdmissionSpec = "fifo",
        default_slo: Optional[SLO] = None,
        admit_batch: int = DEFAULT_BATCH,
    ) -> None:
        check_concurrency(max_concurrent)
        self.cluster = cluster
        self.max_concurrent = max_concurrent
        self.decision_bw = decision_bw
        self.shuffle_overhead = shuffle_overhead
        self.default_policy = default_policy
        #: Resolved admission policy (registered name / class / instance).
        self.admission: AdmissionPolicy = admission_policy(admission)
        #: SLO applied to submissions that do not carry their own.
        self.default_slo = default_slo
        self.reallocator = BatchedReallocator(self.admission, batch=admit_batch)
        self.queued: deque[JobTicket] = deque()
        self.running: list[JobTicket] = []
        self.completed: list[JobTicket] = []
        self.on_job_finished: Optional[Callable[[JobTicket], None]] = None
        #: Lifecycle hook for observability: called with
        #: ``("submit" | "admit" | "finish" | "preempt", ticket)`` at
        #: each transition.  Observation-only — the callback must not
        #: mutate scheduler state.
        self.on_event: Optional[Callable[[str, JobTicket], None]] = None
        #: Most jobs ever in flight at once (for concurrency assertions).
        self.peak_concurrency = 0
        self._first_submit: Optional[float] = None
        self._seq = 0

    @property
    def sim(self):
        """The shared simulator all jobs run on."""
        return self.cluster.network.sim

    def view(self) -> SchedulerView:
        """The read-only state snapshot admission policies consume."""
        return SchedulerView(
            now=self.sim.now,
            running=tuple(self.running),
            completed=tuple(self.completed),
        )

    # -- submission -----------------------------------------------------

    def submit(
        self,
        job: JobSpec,
        policy: PolicySpec = None,
        slo: Optional[SLO] = None,
    ) -> JobTicket:
        """Queue a job now; the admission policy decides when it starts.

        ``policy`` may be a :class:`PlacementPolicy` instance, a
        registered name (``"kimchi"``), a policy class, or ``None``
        for the scheduler's ``default_policy``.  ``slo`` attaches the
        job's promises (deadline / priority / fair-share weight);
        ``None`` falls back to the scheduler's ``default_slo``.
        """
        resolved = placement_policy(
            policy if policy is not None else self.default_policy
        )
        ticket = JobTicket(
            job,
            resolved,
            submitted_s=self.sim.now,
            slo=slo if slo is not None else self.default_slo,
            seq=self._seq,
            policy_pinned=policy is not None,
            enqueued_s=self.sim.now,
        )
        self._seq += 1
        if self._first_submit is None:
            self._first_submit = self.sim.now
        self.queued.append(ticket)
        self.reallocator.note_submit()
        if self.on_event is not None:
            self.on_event("submit", ticket)
        self._admit()
        return ticket

    def submit_at(
        self,
        delay_s: float,
        job: JobSpec,
        policy: PolicySpec = None,
        slo: Optional[SLO] = None,
    ) -> None:
        """Schedule a submission ``delay_s`` seconds from now."""
        self.sim.schedule(delay_s, lambda: self.submit(job, policy, slo))

    def submit_many(
        self,
        entries: list[tuple[float, JobSpec, PolicySpec, Optional[SLO]]],
    ) -> None:
        """Bulk-schedule ``(delay_s, job, policy, slo)`` submissions.

        One :meth:`~repro.sim.kernel.Simulator.schedule_many` heapify
        instead of a per-job ``schedule`` sift — the fast path for the
        big seeded mixes the service and the shard executor submit.
        Sequence assignment matches per-entry :meth:`submit_at` calls
        exactly, so traces stay byte-identical.
        """
        self.sim.schedule_many(
            (delay_s, self._submit_thunk(job, policy, slo))
            for delay_s, job, policy, slo in entries
        )

    def _submit_thunk(
        self, job: JobSpec, policy: PolicySpec, slo: Optional[SLO]
    ) -> Callable[[], None]:
        """A zero-argument deferred submit (bulk-scheduling payload)."""
        return lambda: self.submit(job, policy, slo)

    def _admit(self) -> None:
        while self.queued and len(self.running) < self.max_concurrent:
            # ``self.view`` is passed as a factory: the state snapshot
            # is only taken when the reallocator actually re-orders.
            ticket = self.reallocator.pop(self.queued, self.view)
            self._start(ticket)

    def _start(self, ticket: JobTicket) -> None:
        """Move one queued ticket into execution (resuming if paused)."""
        self.queued.remove(ticket)
        ticket.waited_s += self.sim.now - ticket.enqueued_s
        ticket.started_s = self.sim.now
        self.running.append(ticket)
        self.peak_concurrency = max(
            self.peak_concurrency, len(self.running)
        )
        ticket.run = JobRun(
            self.cluster,
            ticket.job,
            ticket.policy,
            decision_bw=self.decision_bw,
            shuffle_overhead=self.shuffle_overhead,
            on_finish=lambda result, t=ticket: self._finished(t, result),
            resume_from=ticket.checkpoint,
        )
        ticket.checkpoint = None
        if self.on_event is not None:
            self.on_event("admit", ticket)
        ticket.run.start()

    # -- preemption (control-plane surface) -----------------------------

    def preempt(
        self,
        victim: JobTicket,
        beneficiary: Optional[JobTicket] = None,
        migrate: bool = False,
    ) -> JobCheckpoint:
        """Pause ``victim`` mid-run and hand its slot to ``beneficiary``.

        The victim's run is checkpointed (completed stages survive, the
        interrupted phase is redone on resume) and the ticket goes back
        on the admission queue.  ``beneficiary`` — when given — is
        started *directly*, bypassing the admission order: the
        preemption policy already decided who the slot is for, and
        under FIFO the victim would otherwise win its own slot back
        immediately (it is the oldest queued ticket).  With
        ``migrate=True`` the victim's placement policy is re-resolved
        from the scheduler's current ``default_policy`` before resume —
        the migration path a multi-backend re-plan steers.
        """
        if victim not in self.running:
            raise ValueError(f"ticket {victim.job.name!r} is not running")
        if beneficiary is not None and beneficiary not in self.queued:
            raise ValueError(
                f"ticket {beneficiary.job.name!r} is not queued"
            )
        checkpoint = victim.run.pause()
        victim.checkpoint = checkpoint
        victim.run = None
        victim.started_s = None
        victim.preemptions += 1
        victim.preempted_at = self.sim.now
        victim.enqueued_s = self.sim.now
        if migrate:
            victim.policy = placement_policy(self.default_policy)
        self.running.remove(victim)
        # Front of the queue, not the back: preemption means "pause A,
        # run B, resume A at the next free slot" — under FIFO a
        # back-queued victim would instead wait out every later
        # arrival, converting one near-certain hit into a miss.
        # Non-FIFO admission policies re-order the whole queue anyway.
        self.queued.appendleft(victim)
        # The cached admission order may still reference the victim as
        # admitted; force a re-ordering before the next policy pop.
        self.reallocator.invalidate()
        if self.on_event is not None:
            self.on_event("preempt", victim)
        if beneficiary is not None:
            self._start(beneficiary)
        else:
            self._admit()
        return checkpoint

    def set_max_concurrent(self, value: int) -> None:
        """Re-target the concurrency bound (the autoscaler's knob).

        Raising it admits queued jobs immediately; lowering it drains
        naturally — running jobs are never preempted by a scale-down,
        the bound just stops back-filling freed slots.
        """
        check_concurrency(value)
        self.max_concurrent = value
        self._admit()

    def set_admission(self, spec: object) -> None:
        """Hot-swap the admission policy (the policy switcher's knob).

        Running jobs are untouched; only the order of future admissions
        changes.  The batched reallocator keeps its amortization
        counters but is re-pointed at the new policy and invalidated,
        so the next pop re-orders the queue under the new policy rather
        than draining a cache built by the old one.
        """
        self.admission = admission_policy(spec)
        self.reallocator.policy = self.admission
        self.reallocator.invalidate()

    def _finished(self, ticket: JobTicket, result: JobResult) -> None:
        ticket.result = result
        ticket.finished_s = self.sim.now
        self.running.remove(ticket)
        self.completed.append(ticket)
        self.reallocator.note_finish()
        if self.on_event is not None:
            self.on_event("finish", ticket)
        if self.on_job_finished is not None:
            self.on_job_finished(ticket)
        self._admit()

    # -- statistics -----------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Aggregate completion statistics for the run so far.

        Safe at any point in a run — see :func:`aggregate_stats` for
        the key set and the empty-case semantics.

        Control-plane activity is visible here only indirectly (a
        preempted-and-resumed job's ``wait_s`` includes its re-queue
        time); the explicit counters — ``preemptions``, ``migrations``,
        ``throttle_moves``, ``concurrency_high_water`` — live on
        :class:`~repro.runtime.service.ServiceSummary`, which merges
        this dict with the
        :class:`~repro.runtime.control.plane.ControlPlane` stats.
        """
        return aggregate_stats(self.completed, self._first_submit)
