"""Autoscaling ``max_concurrent`` from queue depth and attainment.

The scheduler's concurrency bound is a static config knob; under a
flash crowd a fixed bound either wastes slots (too high in the quiet
hours) or builds a deadline-missing queue (too low in the burst).  The
autoscaler closes that loop: each control tick it widens the bound by
one when the queue is backing up — or when any queued job's slack has
already gone negative, the attainment signal — and narrows it by one
when the queue is empty, never below the configured floor.

Scale-downs are *lazy*: the bound drops but running jobs are never
killed; freed slots simply stop back-filling until the count drifts
under the new bound.  Scale-ups take effect immediately
(:meth:`~repro.runtime.scheduler.JobScheduler.set_max_concurrent`
admits on the spot).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.checks import check_autoscale

if TYPE_CHECKING:
    from repro.runtime.scheduler import JobScheduler


class ConcurrencyAutoscaler:
    """One-step-per-tick hysteresis controller for the concurrency bound."""

    def __init__(
        self,
        scheduler: "JobScheduler",
        ceiling: int,
        floor: int = 0,
        scale_up_depth: int = 2,
    ) -> None:
        floor = floor if floor > 0 else scheduler.max_concurrent
        check_autoscale(ceiling, floor)
        self.scheduler = scheduler
        self.floor = floor
        self.ceiling = ceiling
        #: Queued jobs per free-slot deficit before a scale-up (the
        #: depth trigger; urgency triggers regardless of depth).
        self.scale_up_depth = scale_up_depth
        self.scale_ups = 0
        self.scale_downs = 0
        #: Highest bound ever set — `ServiceSummary.concurrency_high_water`
        #: reads the max of this and the achieved peak.
        self.high_water = scheduler.max_concurrent
        #: Observability hook: ``("up" | "down", new_bound)`` on every
        #: adjustment.  Observation-only.
        self.on_scale: Optional[Callable[[str, int], None]] = None

    def tick(self, now: float, urgent_queued: bool) -> None:
        """One control-loop step: at most one bound adjustment."""
        scheduler = self.scheduler
        depth = len(scheduler.queued)
        saturated = len(scheduler.running) >= scheduler.max_concurrent
        pressure = depth >= self.scale_up_depth or (
            urgent_queued and depth > 0
        )
        if saturated and pressure and scheduler.max_concurrent < self.ceiling:
            scheduler.set_max_concurrent(scheduler.max_concurrent + 1)
            self.scale_ups += 1
            self.high_water = max(self.high_water, scheduler.max_concurrent)
            if self.on_scale is not None:
                self.on_scale("up", scheduler.max_concurrent)
        elif depth == 0 and scheduler.max_concurrent > self.floor:
            # Lazy drain: no admission happens on a lowered bound, so
            # plain assignment (not set_max_concurrent) is deliberate.
            scheduler.max_concurrent -= 1
            self.scale_downs += 1
            if self.on_scale is not None:
                self.on_scale("down", scheduler.max_concurrent)
