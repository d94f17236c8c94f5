"""Batched admission re-planning over the scheduler's queue.

Asking the policy to re-order the whole queue on *every* admission is
quadratic in queue depth — with hundreds of queued jobs the scheduler
would spend its time sorting, not admitting.  The
:class:`BatchedReallocator` amortizes that: it caches one full
admission order and only asks the policy again when

* the cached order is exhausted (every entry admitted),
* ``batch`` new submissions have accumulated since the last ordering
  (fresh tickets are invisible until then — the deliberate staleness
  that buys the amortization), or
* the policy is *dynamic* (``fair-share``) and a job finished, which
  changes attained-service inputs the order depends on.

With ``batch=1`` every admission sees a freshly computed order —
exact policy semantics, quadratic cost; the default ``batch`` keeps a
200-deep queue at a handful of orderings end to end
(:attr:`reorders` vs :attr:`pops` makes the ratio observable).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from repro.checks import check_batch

if TYPE_CHECKING:
    from repro.runtime.scheduler import JobTicket
    from repro.runtime.scheduling.policies import AdmissionPolicy, SchedulerView

#: ``pop`` accepts the view itself or a zero-arg factory — the factory
#: form lets the scheduler skip snapshotting its state on cache-hit
#: pops, where the policy is never consulted.
ViewSpec = Union["SchedulerView", Callable[[], "SchedulerView"]]

#: Default submission batch between re-orderings.
DEFAULT_BATCH = 16


class BatchedReallocator:
    """Caches the policy's admission order between batched re-plans."""

    def __init__(self, policy: "AdmissionPolicy", batch: int = DEFAULT_BATCH) -> None:
        check_batch(batch)
        self.policy = policy
        self.batch = batch
        self._order: deque["JobTicket"] = deque()
        self._pending = 0
        self._dirty = False
        #: Policy orderings computed (the amortized cost).
        self.reorders = 0
        #: Tickets handed to the scheduler (the work amortized over).
        self.pops = 0

    def note_submit(self) -> None:
        """Record one new submission; re-plan once ``batch`` accumulate."""
        self._pending += 1

    def note_finish(self) -> None:
        """Record a completion; dynamic policies re-plan on the next pop."""
        if self.policy.dynamic:
            self._dirty = True

    def invalidate(self) -> None:
        """Force a re-ordering on the next pop (policy swap, SLO edit)."""
        self._dirty = True

    def _replan(self, queued: Sequence["JobTicket"], view: ViewSpec) -> None:
        if callable(view):
            view = view()
        self._order = deque(self.policy.order(list(queued), view))
        self.reorders += 1
        self._pending = 0
        self._dirty = False

    def pop(
        self,
        queued: Sequence["JobTicket"],
        view: ViewSpec,
    ) -> Optional["JobTicket"]:
        """The next ticket to admit (``None`` on an empty queue).

        ``view`` may be a :class:`SchedulerView` or a zero-arg factory;
        a factory is only invoked when a re-ordering actually happens.
        """
        if not queued:
            return None
        if self._dirty or self._pending >= self.batch:
            self._replan(queued, view)
        while self._order:
            ticket = self._order.popleft()
            # Robustness: skip entries no longer queued (a caller may
            # have removed tickets behind our back).
            if ticket.state == "queued":
                self.pops += 1
                return ticket
        # Cache exhausted while tickets wait — they arrived after the
        # last ordering.  Re-plan over the live queue.
        self._replan(queued, view)
        self.pops += 1
        return self._order.popleft()
