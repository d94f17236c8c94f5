"""Continuous recalibration vs a static capacity matrix — E-RECAL.

Extension experiment (no paper counterpart): the same deadline-heavy
mix runs twice on the committed multi-path circuit scenario
(``circuit-failover+circuit-flap`` — 30% of links fail over to a
degraded secondary at t ≈ 600 s while another 30% flap on a duty
cycle) —

* **static** — the submit-time predicted matrix is frozen for the
  whole run, exactly as the pre-recalibration service behaved;
* **recalibrated** — the :class:`~repro.runtime.recalibrator
  .CapacityRecalibrator` re-derives each link's usable capacity every
  60 s from the p95 of observed throughput and republishes it to the
  scheduler's decision matrix and the governor.

The static run keeps placing work as if the failed-over links still
carried their pre-failure capacity; the recalibrated run learns the
sustained post-failover level within a few windows and steers later
placements (and deadline math) around the degraded paths.  The
committed cell reports strictly higher SLO attainment with
recalibration on, with nonzero ``recalibrations`` /
``recal_adjustments`` counters; ``benchmarks/test_bench_runtime.py``
pins both into ``BENCH_runtime.json``.
"""

from __future__ import annotations

from typing import Optional

from repro.pipeline.config import ServiceConfig
from repro.runtime.service import (
    PipelineService,
    ServiceSummary,
    default_job_mix,
)

TITLE = "Continuous recalibration vs static capacity — circuit chaos"

#: The committed comparison cell (see module docstring).
REGIONS = ("us-east-1", "us-west-1", "eu-west-1", "ap-southeast-1")
SEED = 42
SCENARIO = "circuit-failover+circuit-flap"
JOBS = 10
SCALE_MB = 12000.0
ARRIVAL_SCALE = 0.3
DEADLINE_S = 900.0
MAX_CONCURRENT = 3


def recal_config(recalibrate: bool, fast: bool = True) -> ServiceConfig:
    """The committed cell's config, recalibrated or static."""
    return ServiceConfig(
        regions=REGIONS,
        seed=SEED,
        scenario=SCENARIO,
        scheduler="deadline-edf",
        max_concurrent=MAX_CONCURRENT,
        slo_deadline_s=DEADLINE_S,
        n_training_datasets=4 if fast else 24,
        n_estimators=3 if fast else 16,
        recalibrate=recalibrate,
    )


def run_service(recalibrate: bool, fast: bool = True) -> PipelineService:
    """One full (stopped) service run of the committed cell."""
    service = PipelineService.build(recal_config(recalibrate, fast))
    mix = default_job_mix(REGIONS, count=JOBS, seed=SEED, scale_mb=SCALE_MB)
    mix = [(delay * ARRIVAL_SCALE, job) for delay, job in mix]
    service.submit_mix(mix)
    service.run()
    service.stop()
    return service


def run(fast: bool = True) -> dict[str, ServiceSummary]:
    """Both runs; keys ``static`` and ``recalibrated``."""
    return {
        "static": run_service(recalibrate=False, fast=fast).summary(),
        "recalibrated": run_service(recalibrate=True, fast=fast).summary(),
    }


def render(results: dict[str, ServiceSummary]) -> str:
    """Side-by-side table plus the recalibration counters."""
    lines = [
        f"{'mode':<14} {'attainment':>10} {'mean JCT':>9} {'recals':>7} "
        f"{'adjusts':>8} {'replans':>8}",
    ]
    for mode, summary in results.items():
        attained = summary.slo_attained
        total = attained + summary.slo_missed
        lines.append(
            f"{mode:<14} {attained:>6}/{total:<3} "
            f"{summary.mean_jct_s:>9.1f} {summary.recalibrations:>7} "
            f"{summary.recal_adjustments:>8} {summary.replans:>8}"
        )
    static = results["static"]
    recal = results["recalibrated"]
    delta = (recal.slo_attainment - static.slo_attainment) * 100.0
    lines.append(
        f"\nrecalibration: {delta:+.0f} pts SLO attainment "
        f"({static.slo_attainment * 100.0:.0f}% -> "
        f"{recal.slo_attainment * 100.0:.0f}%) from "
        f"{recal.recalibrations} gauging ticks adjusting "
        f"{recal.recal_adjustments} link capacities"
    )
    return "\n".join(lines) + "\n"


def main(fast: Optional[bool] = True) -> None:
    """CLI hook: run and print."""
    print(render(run(fast=bool(fast))))


if __name__ == "__main__":
    main()
