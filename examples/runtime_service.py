#!/usr/bin/env python3
"""Runtime service: concurrent jobs, drifting bandwidth, mid-job re-plans.

The quickstart plans once per query at submit time.  This example runs
WANify the way the paper positions it — as a *runtime* service:

1. build a 4-DC cluster whose WAN suffers a step capacity drop the
   trained model never saw,
2. start the service: gauge → plan → deploy AIMD agents that publish
   telemetry to a shared store, with a drift detector watching,
3. submit a mix of WordCount / TeraSort / TPC-DS jobs that run
   *concurrently* on the shared substrate,
4. watch the drift detector fire when the drop hits and the service
   re-gauge + re-plan mid-job,
5. compare against the same run with the submit-time plan frozen.

Run:  python examples/runtime_service.py
"""

from repro.net.profiles import network_profile
from repro.runtime.scenarios import StepDrop
from repro.runtime.service import (
    ServiceConfig,
    PipelineService,
    default_job_mix,
)

REGIONS = ("us-east-1", "us-west-1", "eu-west-1", "ap-southeast-1")
SEED = 11


def serve(online: bool) -> PipelineService:
    config = ServiceConfig(
        regions=REGIONS,
        seed=SEED,
        online=online,
        cooldown_s=180.0,
        n_training_datasets=16,
        n_estimators=12,
    )
    # The substrate loses 65% of its capacity at t=240s — structural
    # drift the offline training campaign never saw.
    base = network_profile(config.profile).fluctuation(seed=SEED)
    weather = StepDrop(base, SEED, at_s=240.0, level=0.35)
    service = PipelineService.build(config, weather=weather)
    for delay, job in default_job_mix(
        REGIONS, count=6, seed=SEED, scale_mb=4000.0
    ):
        service.submit_at(delay, job)
    service.run()  # drains when the last job completes
    service.stop()
    return service


def main() -> None:
    print("== 1. Online service (drift detector armed)")
    online = serve(online=True)
    summary = online.summary()
    for ticket in online.scheduler.completed:
        print(
            f"   {ticket.job.name:<16} wait {ticket.wait_s:6.1f} s  "
            f"jct {ticket.jct_s:7.1f} s"
        )
    print(f"   telemetry samples: {summary.telemetry_samples}")
    for event in summary.events:
        print(f"   re-plan: {event.describe()}")

    print("== 2. Same weather, static submit-time plan")
    static = serve(online=False)
    frozen = static.summary()
    print(
        f"   static total JCT {frozen.total_jct_s:7.1f} s over "
        f"{frozen.completed} jobs"
    )

    print("== 3. What online re-planning bought")
    speedup = frozen.total_jct_s / summary.total_jct_s
    print(
        f"   total JCT {frozen.total_jct_s:.0f} s → "
        f"{summary.total_jct_s:.0f} s  ({speedup:.2f}x), "
        f"{summary.replans} mid-job re-plan(s), "
        f"fairness {summary.fairness:.2f}"
    )


if __name__ == "__main__":
    main()
