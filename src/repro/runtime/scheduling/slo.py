"""Per-job service-level objectives and fairness accounting.

An :class:`SLO` rides on a :class:`~repro.runtime.scheduler.JobTicket`
from submission to completion.  It is deliberately small — a relative
deadline, an admission priority, a fair-share weight, and a tenant
label — because that is exactly the vocabulary the registered admission
policies speak: ``priority`` orders by :attr:`SLO.priority`,
``deadline-edf`` by the absolute deadline, and ``fair-share`` by
weighted per-tenant service.

:func:`jain_index` lives here (re-exported by
:mod:`repro.runtime.scheduler` for compatibility) so the fair-share
policy and the scheduler's aggregate statistics share one fairness
definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    from repro.runtime.scheduler import JobTicket


def jain_index(values: list[float]) -> float:
    """Jain's fairness index: 1 = perfectly even, → 1/n = one hog.

    >>> round(jain_index([10.0, 10.0, 10.0]), 3)
    1.0
    """
    positives = [v for v in values if v > 0]
    if not positives:
        return 1.0
    total = sum(positives)
    squares = sum(v * v for v in positives)
    return total * total / (len(positives) * squares)


@dataclass(frozen=True)
class SLO:
    """What one job was promised: deadline, priority, fair share.

    All fields are optional in spirit — the zero-value SLO behaves
    exactly like no SLO at all (no deadline, neutral priority, unit
    weight, tenant inferred from the job name).
    """

    #: Completion deadline in seconds *from submission* (``None`` = no
    #: deadline; the job never counts toward SLO attainment).
    deadline_s: Optional[float] = None
    #: Admission priority for the ``priority`` policy (higher admits
    #: earlier).
    priority: int = 0
    #: Fair-share weight — a tenant with weight 2 is entitled to twice
    #: the service of a weight-1 tenant before the ``fair-share``
    #: policy deprioritizes it.
    weight: float = 1.0
    #: Fair-share accounting group.  ``None`` infers the group from the
    #: job name's leading word (``wordcount-3`` → ``wordcount``), which
    #: matches how the default job mix interleaves workload families.
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive: {self.deadline_s}")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive: {self.weight}")

    def deadline_at(self, submitted_s: float) -> Optional[float]:
        """Absolute deadline for a job submitted at ``submitted_s``."""
        if self.deadline_s is None:
            return None
        return submitted_s + self.deadline_s


def tenant_of(ticket: "JobTicket") -> str:
    """The fair-share accounting group a ticket belongs to.

    The SLO's explicit ``tenant`` wins; otherwise the job name's
    leading ``-``-separated word is the group.
    """
    if ticket.slo is not None and ticket.slo.tenant is not None:
        return ticket.slo.tenant
    return ticket.job.name.split("-", 1)[0]


def slo_weight(ticket: "JobTicket") -> float:
    """The ticket's fair-share weight (1.0 without an SLO)."""
    return ticket.slo.weight if ticket.slo is not None else 1.0


def deadline_met(ticket: "JobTicket") -> Optional[bool]:
    """Whether a finished ticket met its deadline.

    ``None`` when the ticket carries no deadline or has not finished —
    such tickets are excluded from attainment accounting entirely.
    """
    if ticket.slo is None or ticket.slo.deadline_s is None:
        return None
    if ticket.finished_s is None:
        return None
    deadline = ticket.slo.deadline_at(ticket.submitted_s)
    return ticket.finished_s <= deadline


def deadline_tally(verdicts: Iterable[Optional[bool]]) -> tuple[int, int, float]:
    """``(attained, missed, attainment)`` over per-job deadline verdicts.

    ``None`` (no deadline promised) counts in neither; when nothing
    promised a deadline, attainment is 1.0 — nothing was broken.
    """
    decided = [met for met in verdicts if met is not None]
    attained = sum(decided)
    return attained, len(decided) - attained, attained / len(decided) if decided else 1.0


def spread_slos(
    mix: list[tuple[float, object]],
    deadline_s: float,
    seed: int = 42,
) -> list[tuple[float, object, SLO]]:
    """Seeded heterogeneous SLOs over a ``(delay, job)`` mix.

    A uniform deadline makes earliest-deadline-first collapse into
    FIFO (same order, same attainment); real mixes promise different
    jobs different latitude.  This helper spreads deadlines over
    ``[0.4, 1.8] × deadline_s`` and cycles priorities 2/1/0, so the
    admission policies have something to disagree about —
    deterministic in ``(mix, deadline_s, seed)``.
    """
    import numpy as np

    if deadline_s <= 0:
        raise ValueError(f"deadline_s must be positive: {deadline_s}")
    rng = np.random.default_rng(seed)
    out: list[tuple[float, object, SLO]] = []
    for index, (delay, job) in enumerate(mix):
        factor = float(rng.uniform(0.4, 1.8))
        slo = SLO(
            deadline_s=deadline_s * factor,
            priority=(2 - index % 3),
        )
        out.append((delay, job, slo))
    return out
