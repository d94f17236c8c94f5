"""The control plane: one periodic loop driving preempt/throttle/scale.

:class:`ControlPlane` is the piece that closes the loop the scheduler
opened.  The data plane (``JobRun`` + network) runs jobs; the scheduling
plane (admission policies) orders the queue; the control plane watches
*running* state each ``control_interval_s`` tick and intervenes:

1. **autoscale** — widen/narrow the scheduler's ``max_concurrent``
   from queue depth and attainment pressure
   (:class:`~repro.runtime.control.autoscaler.ConcurrencyAutoscaler`);
2. **preempt** — ask the registered
   :class:`~repro.runtime.control.preemption.PreemptionPolicy` for a
   (victim, beneficiary) swap and execute it through
   :meth:`~repro.runtime.scheduler.JobScheduler.preempt`;
3. **govern** — shift WAN share from slack-rich to slack-poor jobs via
   :class:`~repro.runtime.control.governor.BandwidthGovernor` caps;
4. **tune** — let the registered
   :class:`~repro.tuner.switcher.PolicySwitcher` score the live policy
   bundle against the observed regime and hot-swap scheduler /
   preemption policies (``tuner != "none"`` only).

All of them consume one shared
:class:`~repro.runtime.control.slack.SlackEstimator`, so "urgent"
means the same thing to the autoscaler, the preemptor, and the
governor.  The plane is only constructed when the config enables at
least one feature — a default config (``preemption="none"``, governor,
autoscaler and tuner off) never builds one, leaving every existing run
byte-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.pipeline.registry import placement_policy, preemption_policy
from repro.runtime.scheduling.slo import slo_weight
from repro.runtime.control.autoscaler import ConcurrencyAutoscaler
from repro.runtime.control.governor import BandwidthGovernor
from repro.runtime.control.preemption import (
    ControlView,
    NoPreemption,
    PreemptionDecision,
    PreemptionPolicy,
)
from repro.runtime.control.slack import SlackEstimator
from repro.sim.kernel import Process

if TYPE_CHECKING:
    from repro.pipeline.config import ServiceConfig
    from repro.runtime.scheduler import JobScheduler, JobTicket


class ControlPlane:
    """Periodic preemption + governing + autoscaling over one scheduler."""

    def __init__(
        self,
        scheduler: "JobScheduler",
        config: "ServiceConfig",
        predicted_bw: Callable[[], object],
        on_preempt: Optional[Callable[[PreemptionDecision], None]] = None,
        warehouse: Optional[Callable[[], object]] = None,
    ) -> None:
        self.scheduler = scheduler
        self.config = config
        self.predicted_bw = predicted_bw
        self.policy: PreemptionPolicy = preemption_policy(config.preemption)
        self.estimator = SlackEstimator(
            predicted_bw,  # type: ignore[arg-type]
            shuffle_overhead=scheduler.shuffle_overhead,
            achieved_rate_mbps=self._achieved_rate,
        )
        self.governor: Optional[BandwidthGovernor] = (
            BandwidthGovernor(
                scheduler.cluster.network,
                rich_slack_s=config.governor_slack_s,
                throttle_factor=config.governor_throttle_factor,
                # Under continuous recalibration the governor's caps
                # are clamped to the recalibrated per-pair capacity —
                # ``predicted_bw`` returns the service's live decision
                # matrix, which the recalibrator republishes each
                # tick.  Without recalibration the hint stays unset
                # and cap arithmetic is untouched.
                capacity_mbps=(
                    self._published_capacity
                    if getattr(config, "recalibrate", False)
                    else None
                ),
            )
            if config.governor
            else None
        )
        self.autoscaler: Optional[ConcurrencyAutoscaler] = (
            ConcurrencyAutoscaler(scheduler, ceiling=config.autoscale_max)
            if config.autoscale
            else None
        )
        self.switcher = None
        if config.tuner != "none":
            # Deferred import: the tuner package imports the registry,
            # which bootstraps this module for preemption policies.
            from repro.tuner.switcher import PolicySwitcher

            self.switcher = PolicySwitcher(
                scheduler, self, config, warehouse=warehouse
            )
        self.on_preempt = on_preempt
        #: (completion count, median rate) memo for :meth:`_achieved_rate`.
        self._rate_cache: Optional[tuple[int, Optional[float]]] = None
        #: Executed preemption decisions, in order.
        self.decisions: list[PreemptionDecision] = []
        self.preemptions = 0
        self.migrations = 0
        # Completion hook: release the finished job's throttles.  The
        # previous hook (if any) is chained, not replaced.
        self._chained_on_finished = scheduler.on_job_finished
        scheduler.on_job_finished = self._job_finished
        self._process = Process(
            scheduler.sim,
            config.control_interval_s,
            self._tick,
            start_delay=config.control_interval_s,
            priority=6,
        )

    def _published_capacity(self, src: str, dst: str) -> Optional[float]:
        """The live decision matrix's capacity for one pair (Mbps).

        ``None`` when no matrix is published yet or the pair is
        unknown — the governor then caps on rate alone, as before.
        """
        matrix = self.predicted_bw()
        getter = getattr(matrix, "get", None)
        if matrix is None or getter is None:
            return None
        try:
            return float(getter(src, dst))
        except KeyError:
            return None

    def _achieved_rate(self) -> Optional[float]:
        """Median per-job WAN throughput over completed runs (Mbps).

        The slack estimator's calibration feed — completed jobs are
        the ground truth for how fast this workload actually moves
        data on this network (parallel pairs, contention and all).
        Memoized on the completion count: a tick evaluates slack for
        every queued and running ticket, and re-sorting the completed
        list per evaluation would make ticks O(tickets × N log N) on
        the hundreds-of-queued-jobs scale the scheduler targets.
        """
        completed = self.scheduler.completed
        if self._rate_cache is not None and self._rate_cache[0] == len(
            completed
        ):
            return self._rate_cache[1]
        rates = sorted(
            t.result.wan_gb * 8.0 * 1024.0 / t.result.network_s
            for t in completed
            if t.result is not None and t.result.network_s > 0
        )
        value = rates[len(rates) // 2] if rates else None
        self._rate_cache = (len(completed), value)
        return value

    # -- observable state ------------------------------------------------

    @property
    def throttle_moves(self) -> int:
        """Caps the governor has applied (0 with the governor off)."""
        return self.governor.throttle_moves if self.governor else 0

    @property
    def throttle_releases(self) -> int:
        """Caps the governor has released (0 with the governor off)."""
        return self.governor.throttle_releases if self.governor else 0

    @property
    def policy_switches(self) -> int:
        """Bandit-driven policy swaps applied (0 with the tuner off)."""
        return self.switcher.switches if self.switcher is not None else 0

    @property
    def concurrency_high_water(self) -> int:
        """Highest concurrency bound (autoscaled) or achieved peak."""
        bound = (
            self.autoscaler.high_water
            if self.autoscaler is not None
            else self.scheduler.max_concurrent
        )
        return max(bound, self.scheduler.peak_concurrency)

    def view(self) -> ControlView:
        """The state snapshot preemption policies consume."""
        now = self.scheduler.sim.now
        default = self.scheduler.default_policy
        default_name = (
            default
            if isinstance(default, str)
            else getattr(placement_policy(default), "name", "")
        )
        return ControlView(
            now=now,
            running=tuple(self.scheduler.running),
            queued=tuple(self.scheduler.queued),
            slack_s=lambda t: self.estimator.slack_s(t, now),
            remaining_s=lambda t: self.estimator.predicted_remaining_s(
                t, now
            ),
            phase_cost_s=lambda t: (
                t.run.phase_elapsed_s if t.run is not None else 0.0
            ),
            default_policy_name=default_name,
            calibrated=self._achieved_rate() is not None,
        )

    # -- the loop --------------------------------------------------------

    def _tick(self, now: float) -> None:
        view = self.view()
        if self.autoscaler is not None:
            urgent = any(
                (slack := view.slack_s(t)) is not None and slack < 0.0
                for t in view.queued
            )
            self.autoscaler.tick(now, urgent_queued=urgent)
            view = self.view()  # admissions may have changed the sets
        if not isinstance(self.policy, NoPreemption):
            decision = self.policy.select(view)
            if decision is not None:
                self._execute(decision)
                view = self.view()
        if self.governor is not None:
            self.governor.rebalance(
                now, view.running, view.slack_s, weight_of=slo_weight
            )
        if self.switcher is not None:
            # Last: the switcher scores the world the actuators above
            # just made, then (outside its cooldown) may swap policies
            # that only take effect from the next admission on.
            self.switcher.tick(now)

    def _execute(self, decision: PreemptionDecision) -> None:
        if self.governor is not None:
            # The victim's transfers die with the pause; its caps too.
            self.governor.release_job(decision.victim.job.name)
        self.scheduler.preempt(
            decision.victim,
            decision.beneficiary,
            migrate=decision.migrate,
        )
        self.preemptions += 1
        if decision.migrate:
            self.migrations += 1
        self.decisions.append(decision)
        if self.on_preempt is not None:
            self.on_preempt(decision)

    def _job_finished(self, ticket: "JobTicket") -> None:
        if self.governor is not None:
            self.governor.release_job(ticket.job.name)
        if self._chained_on_finished is not None:
            self._chained_on_finished(ticket)

    # -- lifecycle hooks -------------------------------------------------

    def on_replan(self) -> None:
        """A re-plan tore the deployment (and the TC table) down."""
        if self.governor is not None:
            self.governor.forget()

    def close(self) -> None:
        """Stop the loop, restore switched policies, release throttles.

        The switcher restores the baseline policy bundle *before* the
        governor releases its caps, mirroring construction order in
        reverse — teardown leaves neither a switched-in policy nor a
        held throttle behind.
        """
        self._process.stop()
        if self.switcher is not None:
            self.switcher.close()
        if self.governor is not None:
            self.governor.release_all()
