"""Registered admission policies: who gets the next executor slot.

The :class:`~repro.runtime.scheduler.JobScheduler` keeps submissions in
arrival order and asks an :class:`AdmissionPolicy` — resolved through
:data:`~repro.pipeline.registry.admission_policy_registry`, the same
registry pattern as the pipeline stages — how to *order* them whenever
a slot frees up.  A policy sees a read-only :class:`SchedulerView` of
the scheduler's state, so implementations can weigh waiting time,
deadlines, or achieved per-tenant service without reaching into the
scheduler itself.

Built-ins::

    @register_admission_policy("fifo")          # arrival order (default)
    @register_admission_policy("priority")      # SLO.priority, then FIFO
    @register_admission_policy("deadline-edf")  # earliest deadline first
    @register_admission_policy("fair-share")    # Jain-index-aware shares

Register your own the same way stages are registered — the name is
then selectable from config files, ``WANIFY_SCHEDULER``, ``--scheduler``
on the CLI, and the sweep matrix's ``schedulers`` axis::

    from repro.pipeline.registry import register_admission_policy

    @register_admission_policy("shortest-job-first")
    class ShortestJobFirst:
        name = "shortest-job-first"
        dynamic = False

        def order(self, queued, view):
            return sorted(queued, key=lambda t: t.job.total_input_mb)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.pipeline.registry import register_admission_policy
from repro.runtime.scheduling.slo import jain_index, slo_weight, tenant_of

if TYPE_CHECKING:
    from repro.runtime.scheduler import JobTicket


@dataclass(frozen=True)
class SchedulerView:
    """Read-only scheduler state handed to admission policies."""

    #: Current simulated time.
    now: float
    #: Tickets currently executing.
    running: Sequence["JobTicket"]
    #: Tickets that have finished, in completion order.
    completed: Sequence["JobTicket"]

    def tenant_service(self) -> dict[str, float]:
        """Weight-normalized WAN service (MB) attained per tenant.

        Completed tickets contribute their measured WAN volume; running
        tickets contribute what their transfers have carried *so far*
        (:attr:`~repro.gda.engine.engine.JobRun.wan_mb`), so a tenant
        with a large job in flight is already "ahead" while it runs.
        """
        service: dict[str, float] = {}
        for ticket in self.completed:
            if ticket.result is not None:
                served = ticket.result.wan_gb * 1024.0
            else:
                served = ticket.job.total_input_mb
            tenant = tenant_of(ticket)
            service[tenant] = service.get(tenant, 0.0) + served / slo_weight(ticket)
        for ticket in self.running:
            if ticket.run is not None:
                served = ticket.run.wan_mb
            else:
                served = ticket.job.total_input_mb
            tenant = tenant_of(ticket)
            service[tenant] = service.get(tenant, 0.0) + served / slo_weight(ticket)
        return service


@runtime_checkable
class AdmissionPolicy(Protocol):
    """Orders the admission queue (first = admitted next)."""

    #: Registry key, reported in scheduler stats and sweep rows.
    name: str
    #: ``True`` when the order depends on completions/running service —
    #: the :class:`~repro.runtime.scheduling.reallocator
    #: .BatchedReallocator` then re-plans after every job finish, not
    #: just when the submission batch fills.
    dynamic: bool

    def order(
        self,
        queued: Sequence["JobTicket"],
        view: SchedulerView,
    ) -> list["JobTicket"]:
        """The queued tickets in admission order."""
        ...


@register_admission_policy("fifo")
class FifoAdmission:
    """Arrival order — the legacy behavior and the default."""

    name = "fifo"
    dynamic = False

    def order(
        self,
        queued: Sequence["JobTicket"],
        view: SchedulerView,
    ) -> list["JobTicket"]:
        """Submission order (the queue already is)."""
        return list(queued)


@register_admission_policy("priority")
class PriorityAdmission:
    """Strict :attr:`~repro.runtime.scheduling.slo.SLO.priority` order.

    Higher priority admits first; ties fall back to arrival order, so
    an all-default-SLO run is indistinguishable from FIFO.
    """

    name = "priority"
    dynamic = False

    def order(
        self,
        queued: Sequence["JobTicket"],
        view: SchedulerView,
    ) -> list["JobTicket"]:
        """Descending priority, FIFO within a priority band."""
        return sorted(
            queued,
            key=lambda t: (
                -(t.slo.priority if t.slo is not None else 0),
                t.submitted_s,
                t.seq,
            ),
        )


@register_admission_policy("deadline-edf")
class DeadlineAdmission:
    """Earliest-deadline-first against each ticket's absolute deadline.

    Tickets without a deadline sort last (FIFO among themselves): a
    job that promised nothing should never displace one racing a
    deadline.

    Preemption-aware: a queued ticket that was preempted must pay a
    checkpoint-restart toll before it makes progress again, so its
    *effective* deadline is charged :data:`RESTART_COST_S` per
    preemption suffered — a twice-preempted job sorts as if its
    deadline were a minute closer, biasing admission against bouncing
    the same victim repeatedly.  Never-preempted tickets (every ticket
    in a run without a preemption policy) sort exactly as before.
    """

    name = "deadline-edf"
    dynamic = False

    #: Effective-deadline charge (s) per preemption a queued ticket has
    #: suffered — the restart toll of re-reading its checkpoint.
    RESTART_COST_S = 30.0

    def order(
        self,
        queued: Sequence["JobTicket"],
        view: SchedulerView,
    ) -> list["JobTicket"]:
        """Ascending effective deadline; deadline-free tickets last."""

        def key(ticket: "JobTicket") -> tuple[float, float, int]:
            deadline = (
                ticket.slo.deadline_at(ticket.submitted_s)
                if ticket.slo is not None
                else None
            )
            if deadline is None:
                deadline = float("inf")
            elif ticket.preemptions:
                deadline -= self.RESTART_COST_S * ticket.preemptions
            return (deadline, ticket.submitted_s, ticket.seq)

        return sorted(queued, key=key)


@register_admission_policy("fair-share")
class FairShareAdmission:
    """Weighted fair sharing of WAN service across tenants.

    Greedy Jain maximization: repeatedly admit, among each tenant's
    oldest queued ticket, the candidate whose admission maximizes
    :func:`~repro.runtime.scheduling.slo.jain_index` over projected
    weight-normalized per-tenant service.  Service already attained
    (completed + in-flight WAN volume, from
    :meth:`SchedulerView.tenant_service`) is the starting point, so a
    tenant that hogged the WAN early waits while the others catch up.
    """

    name = "fair-share"
    dynamic = True

    #: Floor (MB) for a tenant's service in the Jain projection.
    #: :func:`~repro.runtime.scheduling.slo.jain_index` drops
    #: non-positive entries, which would make a *completely starved*
    #: tenant invisible — admitting the hog again would then look
    #: perfectly fair.  The floor keeps every known tenant in the
    #: vector.
    SERVICE_FLOOR_MB = 1.0

    def order(
        self,
        queued: Sequence["JobTicket"],
        view: SchedulerView,
    ) -> list["JobTicket"]:
        """Greedy max-Jain admission order over tenant service."""
        service = view.tenant_service()
        tenants = set(service) | {tenant_of(t) for t in queued}

        def fairness(projected: dict[str, float]) -> float:
            return jain_index(
                [
                    max(projected.get(t, 0.0), self.SERVICE_FLOOR_MB)
                    for t in tenants
                ]
            )

        # FIFO within each tenant: only the oldest ticket per tenant is
        # ever a candidate.
        remaining: dict[str, list[JobTicket]] = {}
        for ticket in queued:
            remaining.setdefault(tenant_of(ticket), []).append(ticket)
        ordered: list[JobTicket] = []
        while remaining:
            best_tenant = None
            best_key: tuple[float, float, int] | None = None
            for tenant, tickets in remaining.items():
                head = tickets[0]
                projected = dict(service)
                projected[tenant] = projected.get(tenant, 0.0) + (
                    head.job.total_input_mb / slo_weight(head)
                )
                # Maximize fairness; break ties toward the older
                # submission so equal tenants stay FIFO.
                key = (
                    -fairness(projected),
                    head.submitted_s,
                    head.seq,
                )
                if best_key is None or key < best_key:
                    best_key = key
                    best_tenant = tenant
            tickets = remaining[best_tenant]
            head = tickets.pop(0)
            if not tickets:
                del remaining[best_tenant]
            service[best_tenant] = service.get(best_tenant, 0.0) + (
                head.job.total_input_mb / slo_weight(head)
            )
            ordered.append(head)
        return ordered
