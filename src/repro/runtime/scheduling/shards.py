"""Tenant-sharded scheduling with work-stealing between shards.

One :class:`~repro.runtime.scheduler.JobScheduler` admits every tenant
from one shared queue under one concurrency bound.  The
:class:`ShardedScheduler` splits that queue into N independent shards,
each a full ``JobScheduler`` running the same admission policy over its
own slice of the concurrency budget.  Submissions hash to a shard by
*tenant* (stable CRC-32 of the tenant name — Python's ``hash()`` is
salted per process and would break seeded reproducibility), so one
tenant's flood re-orders only its own shard's queue.

Sharding is an admission policy, not a free speedup, and it can change
outcomes.  Batched re-ordering keeps one queue's policy cheap: on two
DCs one queue drains 1.4–2.8× faster than four shards with identical
outcomes.  Where tenants are homed on their own region pairs, per-shard
admission keeps each shard's running jobs on its tenants' pairs: on the
2000-job homed-tenant burst of ``benchmarks/test_bench_parallel.py``
(32 slots, deadline-EDF, 2 vCPUs) four shards drained in about 1.0 s
against 4.3 s, with a mean JCT of 111.7 s against 127.4 s and 4004
rate solves against 29314.  With arrivals spread in time the outcomes
match one queue's; a budget below one slot per shard still gives every
shard a slot (:func:`split_concurrency`), which raises the effective
bound.

Static tenant hashing alone strands capacity: a shard whose tenants go
quiet idles while another's queue grows.  Work-stealing closes the gap
— whenever a shard has a free slot and an empty queue, it steals the
*next ticket the donor would have admitted* (the donor's own
admission-policy order decides, so deadline-EDF donors give up their
most urgent queued ticket, not an arbitrary one).  Both reallocators
are invalidated so neither shard admits from a stale cached order.

The class mirrors the single scheduler's control surface (``submit`` /
``preempt`` / ``set_max_concurrent`` / ``set_admission`` / ``stats`` /
lifecycle hooks), so the control plane, observability hub, and policy
switcher drive it unchanged.  ``ServiceConfig.scheduler_shards`` picks
the shard count; the default of 1 keeps the plain ``JobScheduler`` and
today's behavior byte-identical.
"""

from __future__ import annotations

import zlib
from itertools import chain
from typing import Callable, Optional

from repro.checks import check_concurrency, check_shards
from repro.gda.engine.cluster import GeoCluster
from repro.gda.engine.dag import JobSpec
from repro.gda.engine.engine import SHUFFLE_OVERHEAD
from repro.gda.engine.engine import DecisionBw, JobCheckpoint
from repro.runtime.scheduler import (
    AdmissionSpec,
    JobScheduler,
    JobTicket,
    PolicySpec,
    aggregate_stats,
)
from repro.runtime.scheduling.policies import AdmissionPolicy
from repro.runtime.scheduling.reallocator import DEFAULT_BATCH
from repro.runtime.scheduling.slo import SLO

__all__ = [
    "ShardedScheduler",
    "shard_for_tenant",
    "split_concurrency",
    "tenant_of_submission",
]


def tenant_of_submission(
    job: JobSpec, slo: Optional[SLO], default_slo: Optional[SLO] = None
) -> str:
    """Tenant routing key for a not-yet-ticketed submission.

    Mirrors :func:`repro.runtime.scheduling.slo.tenant_of` before a
    ticket exists: the SLO's explicit tenant wins (the submission's
    own, else the scheduler default), otherwise the job name's leading
    ``-``-separated word.  Shared by the in-process sharded scheduler
    and the process-parallel shard executor so both route a submission
    to the same shard.
    """
    effective = slo if slo is not None else default_slo
    if effective is not None and effective.tenant:
        return effective.tenant
    return job.name.split("-", 1)[0]


def shard_for_tenant(tenant: str, shards: int) -> int:
    """Stable shard index for a tenant name.

    CRC-32 rather than ``hash()``: the builtin string hash is salted
    per process, and shard routing must be reproducible across runs
    for the seeded scenarios to replay identically.
    """
    check_shards(shards)
    return zlib.crc32(tenant.encode("utf-8")) % shards


def split_concurrency(total: int, shards: int) -> list[int]:
    """Distribute a concurrency budget across shards, ≥ 1 each.

    The first ``total % shards`` shards take the remainder.  When
    ``total < shards`` every shard still gets one slot (a shard that
    cannot run anything cannot steal either), so the effective bound
    is ``max(total, shards)``.
    """
    check_shards(shards)
    base, extra = divmod(max(total, 0), shards)
    return [max(1, base + (1 if i < extra else 0)) for i in range(shards)]


class ShardedScheduler:
    """N independent admission queues over one cluster, stealing on idle.

    Drop-in for :class:`~repro.runtime.scheduler.JobScheduler` from the
    control plane's point of view; construction arguments match so the
    service can swap one for the other off a config knob.
    """

    def __init__(
        self,
        cluster: GeoCluster,
        shards: int = 2,
        max_concurrent: int = 3,
        decision_bw: DecisionBw = None,
        shuffle_overhead: float = SHUFFLE_OVERHEAD,
        default_policy: PolicySpec = "tetrium",
        admission: AdmissionSpec = "fifo",
        default_slo: Optional[SLO] = None,
        admit_batch: int = DEFAULT_BATCH,
    ) -> None:
        self.cluster = cluster
        self.default_slo = default_slo
        self.shards: list[JobScheduler] = []
        for bound in split_concurrency(max_concurrent, shards):  # checks shards
            shard = JobScheduler(
                cluster,
                max_concurrent=bound,
                decision_bw=decision_bw,
                shuffle_overhead=shuffle_overhead,
                default_policy=default_policy,
                admission=admission,
                default_slo=default_slo,
                admit_batch=admit_batch,
            )
            shard.on_event = self._shard_event
            shard.on_job_finished = self._shard_finished
            self.shards.append(shard)
        self.shuffle_overhead = shuffle_overhead
        self._default_policy: PolicySpec = default_policy
        #: Queued tickets moved between shards by work-stealing.
        self.steal_count = 0
        #: Total submissions accepted (the reconciliation anchor:
        #: ``submitted == completed + queued + running`` always).
        self.submitted = 0
        #: Most jobs ever in flight at once, across all shards.
        self.peak_concurrency = 0
        #: Fires after a shard finishes a job (the control plane
        #: chains its own hook here).
        self.on_job_finished: Optional[Callable[[JobTicket], None]] = None
        #: Lifecycle hook: ``("submit" | "admit" | "finish" |
        #: "preempt" | "steal", ticket)``.  Observation-only.
        self.on_event: Optional[Callable[[str, JobTicket], None]] = None

    # -- shared-surface properties --------------------------------------

    @property
    def shard_count(self) -> int:
        """Number of shards (the ``scheduler_shards`` knob)."""
        return len(self.shards)

    @property
    def sim(self):
        """The shared simulator all shards run on."""
        return self.cluster.network.sim

    @property
    def max_concurrent(self) -> int:
        """Total concurrency bound (sum of the per-shard bounds)."""
        return sum(shard.max_concurrent for shard in self.shards)

    @property
    def default_policy(self) -> PolicySpec:
        """Placement policy applied to unpinned submissions."""
        return self._default_policy

    @default_policy.setter
    def default_policy(self, value: PolicySpec) -> None:
        """Propagate the new default policy to every shard."""
        self._default_policy = value
        for shard in self.shards:
            shard.default_policy = value

    @property
    def admission(self) -> AdmissionPolicy:
        """The admission policy instance (identical on every shard)."""
        return self.shards[0].admission

    @property
    def queued(self) -> list[JobTicket]:
        """All queued tickets, shard by shard."""
        return list(chain.from_iterable(s.queued for s in self.shards))

    @property
    def running(self) -> list[JobTicket]:
        """All running tickets, shard by shard."""
        return list(chain.from_iterable(s.running for s in self.shards))

    @property
    def completed(self) -> list[JobTicket]:
        """All completed tickets, shard by shard."""
        return list(chain.from_iterable(s.completed for s in self.shards))

    # -- submission ------------------------------------------------------

    def _tenant(self, job: JobSpec, slo: Optional[SLO]) -> str:
        """Tenant routing key (mirrors ``slo.tenant_of`` pre-ticket)."""
        return tenant_of_submission(job, slo, self.default_slo)

    def shard_of(self, job: JobSpec, slo: Optional[SLO] = None) -> int:
        """The shard index a submission routes to."""
        return shard_for_tenant(self._tenant(job, slo), len(self.shards))

    def submit(
        self,
        job: JobSpec,
        policy: PolicySpec = None,
        slo: Optional[SLO] = None,
    ) -> JobTicket:
        """Queue a job on its tenant's shard; idle shards may steal it."""
        shard = self.shards[self.shard_of(job, slo)]
        self.submitted += 1
        ticket = shard.submit(job, policy, slo)
        self._balance()
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

    def _submit_thunk(
        self, job: JobSpec, policy: PolicySpec, slo: Optional[SLO]
    ) -> Callable[[], None]:
        """A zero-argument deferred submit (bulk-scheduling payload)."""
        return lambda: self.submit(job, policy, slo)

    def submit_many(
        self,
        entries: list[tuple[float, JobSpec, PolicySpec, Optional[SLO]]],
    ) -> None:
        """Bulk-schedule submissions (one heapify; see
        :meth:`JobScheduler.submit_many
        <repro.runtime.scheduler.JobScheduler.submit_many>`).  Routing
        to a tenant's shard still happens per entry at fire time."""
        self.sim.schedule_many(
            (delay_s, self._submit_thunk(job, policy, slo))
            for delay_s, job, policy, slo in entries
        )

    # -- work-stealing ---------------------------------------------------

    def _owner_of(self, ticket: JobTicket) -> Optional[JobScheduler]:
        """The shard currently holding ``ticket`` (queued or running)."""
        for shard in self.shards:
            if any(t is ticket for t in shard.running) or any(t is ticket for t in shard.queued):
                return shard
        return None

    def _steal(self, thief: JobScheduler) -> bool:
        """Move one queued ticket from the longest queue to ``thief``."""
        donor = None
        for candidate in self.shards:
            if candidate is thief or not candidate.queued:
                continue
            if donor is None or len(candidate.queued) > len(donor.queued):
                donor = candidate
        if donor is None:
            return False
        # The donor's own admission order picks the ticket: the thief
        # runs what the donor would have admitted next, so stealing
        # never inverts the donor's policy order either.
        ordered = donor.admission.order(list(donor.queued), donor.view())
        ticket = ordered[0]
        donor.queued.remove(ticket)
        donor.reallocator.invalidate()
        thief.queued.append(ticket)
        thief.reallocator.invalidate()
        self.steal_count += 1
        if self.on_event is not None:
            self.on_event("steal", ticket)
        thief._admit()
        return True

    def _balance(self) -> None:
        """Let idle shards (free slot, empty queue) steal queued work."""
        for thief in self.shards:
            while len(thief.running) < thief.max_concurrent and not thief.queued:
                if not self._steal(thief):
                    # No shard has queued work; nothing left to move.
                    return

    # -- control-plane surface -------------------------------------------

    def preempt(
        self,
        victim: JobTicket,
        beneficiary: Optional[JobTicket] = None,
        migrate: bool = False,
    ) -> JobCheckpoint:
        """Preempt ``victim`` on its shard, optionally for ``beneficiary``.

        A beneficiary queued on a *different* shard is first stolen
        onto the victim's shard (the slot being vacated lives there).
        """
        owner = None
        for shard in self.shards:
            if any(t is victim for t in shard.running):
                owner = shard
                break
        if owner is None:
            raise ValueError(f"ticket {victim.job.name!r} is not running")
        if beneficiary is not None and beneficiary not in owner.queued:
            source = self._owner_of(beneficiary)
            if source is None or beneficiary not in source.queued:
                raise ValueError(f"ticket {beneficiary.job.name!r} is not queued")
            source.queued.remove(beneficiary)
            source.reallocator.invalidate()
            owner.queued.append(beneficiary)
            owner.reallocator.invalidate()
            self.steal_count += 1
            if self.on_event is not None:
                self.on_event("steal", beneficiary)
        checkpoint = owner.preempt(victim, beneficiary, migrate)
        self._balance()
        return checkpoint

    def set_max_concurrent(self, value: int) -> None:
        """Re-split the concurrency budget across shards."""
        check_concurrency(value)
        for shard, bound in zip(self.shards, split_concurrency(value, len(self.shards))):
            shard.set_max_concurrent(bound)
        self._balance()

    def set_admission(self, spec: object) -> None:
        """Hot-swap the admission policy on every shard."""
        for shard in self.shards:
            shard.set_admission(spec)

    # -- hooks -----------------------------------------------------------

    def _shard_event(self, kind: str, ticket: JobTicket) -> None:
        """Forward a shard's lifecycle event, tracking global peak."""
        if kind == "admit":
            in_flight = sum(len(s.running) for s in self.shards)
            if in_flight > self.peak_concurrency:
                self.peak_concurrency = in_flight
        if self.on_event is not None:
            self.on_event(kind, ticket)

    def _shard_finished(self, ticket: JobTicket) -> None:
        """Re-balance after a finish, then run the chained hook."""
        self._balance()
        if self.on_job_finished is not None:
            self.on_job_finished(ticket)

    # -- statistics ------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Merged completion statistics plus shard counters.

        The completed populations of every shard aggregate through the
        same :func:`~repro.runtime.scheduler.aggregate_stats` as the
        single scheduler, so sharded and single-shard runs report
        comparable numbers; ``shards`` / ``steals`` / ``submitted`` /
        ``queued`` / ``running`` ride along for reconciliation.
        """
        first_submits = [s._first_submit for s in self.shards if s._first_submit is not None]
        merged = aggregate_stats(self.completed, min(first_submits) if first_submits else None)
        merged["shards"] = float(len(self.shards))
        merged["steals"] = float(self.steal_count)
        merged["submitted"] = float(self.submitted)
        merged["queued"] = float(sum(len(s.queued) for s in self.shards))
        merged["running"] = float(sum(len(s.running) for s in self.shards))
        return merged
