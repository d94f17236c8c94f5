"""Pluggable scheduling: admission policies, SLOs, batched re-planning.

The :class:`~repro.runtime.scheduler.JobScheduler` used to hardwire a
FIFO queue; this package lifts the *policy* out of it, using the same
registry pattern as the pipeline stages:

* :mod:`~repro.runtime.scheduling.slo` — the :class:`SLO` dataclass
  (deadline / priority / weight / tenant), attainment accounting, and
  :func:`jain_index`;
* :mod:`~repro.runtime.scheduling.policies` — the
  :class:`AdmissionPolicy` protocol and the built-in ``fifo`` /
  ``priority`` / ``deadline-edf`` / ``fair-share`` policies, registered
  in :data:`~repro.pipeline.registry.admission_policy_registry` via
  ``@register_admission_policy``;
* :mod:`~repro.runtime.scheduling.reallocator` — the
  :class:`BatchedReallocator`, which amortizes queue re-ordering over
  submission batches so the scheduler holds hundreds of queued jobs
  without quadratic re-plan churn.

Policies are selectable everywhere the layered config reaches —
``scheduler = "deadline-edf"`` in a TOML file, ``WANIFY_SCHEDULER``,
``--scheduler`` on ``serve``, and the sweep matrix's ``schedulers``
axis::

    from repro.runtime import SLO, ServiceConfig, PipelineService

    service = PipelineService.build(
        ServiceConfig(scheduler="deadline-edf", slo_deadline_s=900.0)
    )
    service.submit(job, slo=SLO(deadline_s=300.0, priority=2))
"""

from repro.runtime.scheduling.policies import (
    AdmissionPolicy,
    DeadlineAdmission,
    FairShareAdmission,
    FifoAdmission,
    PriorityAdmission,
    SchedulerView,
)
from repro.runtime.scheduling.reallocator import DEFAULT_BATCH, BatchedReallocator
from repro.runtime.scheduling.slo import (
    SLO,
    deadline_met,
    deadline_tally,
    jain_index,
    slo_weight,
    spread_slos,
    tenant_of,
)

__all__ = [
    "SLO",
    "AdmissionPolicy",
    "BatchedReallocator",
    "DEFAULT_BATCH",
    "DeadlineAdmission",
    "FairShareAdmission",
    "FifoAdmission",
    "PriorityAdmission",
    "SchedulerView",
    "ShardExecutor",
    "ShardedScheduler",
    "deadline_met",
    "deadline_tally",
    "jain_index",
    "slo_weight",
    "spread_slos",
    "tenant_of",
]


def __getattr__(name: str):
    """Lazy re-export of the sharded scheduler and shard executor.

    :mod:`~repro.runtime.scheduling.shards` (and
    :mod:`~repro.runtime.scheduling.parallel`) import
    :mod:`repro.runtime.scheduler`, which imports this package — an
    eager import here would be circular, so the symbols resolve on
    first attribute access instead.
    """
    if name == "ShardedScheduler":
        from repro.runtime.scheduling.shards import ShardedScheduler

        return ShardedScheduler
    if name == "ShardExecutor":
        from repro.runtime.scheduling.parallel import ShardExecutor

        return ShardExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
