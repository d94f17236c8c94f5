"""Slack estimation: how much latitude a job still has on its deadline.

Every control-plane decision — who to preempt, which pairs to throttle,
when to scale out — reduces to comparing jobs by *slack*: the seconds
between a job's predicted completion and its SLO deadline.  Negative
slack means the job is predicted to miss; large positive slack means it
can afford to donate WAN share.

The estimate is deliberately a heuristic, not a simulation-in-a-
simulation: remaining WAN volume is projected by walking the job's
remaining stages through their ``output_ratio``s (ignoring placement
locality), and the rate is the job's own achieved throughput so far,
falling back to the service's predicted bottleneck BW before a run has
moved data.  Compute time is ignored — shuffles dominate JCT in every
workload here.  Control policies should therefore treat slack as a
*ranking* signal (who is richer than whom) rather than a calibrated
countdown, which is exactly how the built-in policies use it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.gda.engine.dag import JobSpec
from repro.net.matrix import BandwidthMatrix
from repro.gda.engine.engine import wan_mb_ahead

if TYPE_CHECKING:
    from repro.runtime.scheduler import JobTicket

#: Floor on any rate estimate (Mbps) — keeps remaining-time projections
#: finite on links telemetry reports as dead.
MIN_RATE_MBPS = 10.0

#: Achieved-throughput samples need at least this much run time before
#: they outrank the predicted fallback rate.
MIN_OBSERVED_S = 5.0


def job_wan_mb(job: JobSpec, shuffle_overhead: float) -> float:
    """Projected lifetime WAN volume of an un-started job (MB).

    :func:`~repro.gda.engine.engine.wan_mb_ahead` from stage 0 — the
    same projection :meth:`~repro.gda.engine.engine.JobRun
    .remaining_wan_mb` uses mid-run.
    """
    return wan_mb_ahead(job.stages, job.total_input_mb, shuffle_overhead)


class SlackEstimator:
    """Per-ticket slack against the service's predicted network view.

    ``predicted_bw`` is a zero-arg callable returning the service's
    current decision matrix (or ``None`` before the first plan) — the
    same provider each ``JobRun`` reads, so control decisions and
    placement decisions share one belief about the network.
    """

    def __init__(
        self,
        predicted_bw: Callable[[], Optional[BandwidthMatrix]],
        shuffle_overhead: float,
        achieved_rate_mbps: Optional[Callable[[], Optional[float]]] = None,
    ) -> None:
        self.predicted_bw = predicted_bw
        self.shuffle_overhead = shuffle_overhead
        #: Optional calibration source: typical *achieved* per-job WAN
        #: throughput (Mbps) from completed runs.  The control plane
        #: feeds the median over finished tickets here.
        self.achieved_rate_mbps = achieved_rate_mbps

    def fallback_rate_mbps(self) -> float:
        """Rate estimate for jobs with no achieved throughput yet.

        Prefers the calibrated achieved-throughput signal (jobs shuffle
        over many pairs in parallel, so completed-run throughput is the
        realistic scale); before the first completion, falls back to
        the predicted matrix's *bottleneck* BW.  The raw bottleneck
        alone is far too pessimistic — it marks every queued job as
        doomed and turns the preemption policy into a thrash loop.
        """
        if self.achieved_rate_mbps is not None:
            achieved = self.achieved_rate_mbps()
            if achieved is not None and achieved > 0:
                return max(achieved, MIN_RATE_MBPS)
        predicted = self.predicted_bw()
        if predicted is None:
            return MIN_RATE_MBPS
        return max(predicted.min_bw(), MIN_RATE_MBPS)

    def predicted_remaining_s(self, ticket: "JobTicket", now: float) -> float:
        """Seconds until ``ticket`` is predicted to complete."""
        run = ticket.run
        if run is not None and run.started and not run.done:
            remaining_mb = run.remaining_wan_mb()
            # slice_wan_mbits, not wan_mbits: a resumed run carries its
            # checkpoint volume forward, and dividing that by only the
            # post-resume elapsed time would inflate its throughput
            # (and slack) enormously — re-victimizing the very job a
            # preemption just rescued.
            if run.slice_wan_mbits > 0 and run.elapsed_s > MIN_OBSERVED_S:
                rate = max(
                    run.slice_wan_mbits / run.elapsed_s, MIN_RATE_MBPS
                )
            else:
                rate = self.fallback_rate_mbps()
        else:
            checkpoint = ticket.checkpoint
            if checkpoint is not None:
                # Preempted mid-run: resume volume, not full-job volume.
                remaining_mb = wan_mb_ahead(
                    ticket.job.stages[checkpoint.stage_index:],
                    sum(checkpoint.data.values()),
                    self.shuffle_overhead,
                )
            else:
                remaining_mb = job_wan_mb(ticket.job, self.shuffle_overhead)
            rate = self.fallback_rate_mbps()
        return remaining_mb * 8.0 / rate

    def slack_s(self, ticket: "JobTicket", now: float) -> Optional[float]:
        """Deadline minus predicted completion; ``None`` without a deadline."""
        deadline = ticket.deadline_s
        if deadline is None:
            return None
        return deadline - now - self.predicted_remaining_s(ticket, now)
