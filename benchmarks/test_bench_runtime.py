"""Bench E-ORP + raw scheduler throughput + the BENCH_runtime report.

Baselines future PRs can regress against:

* the online-vs-static re-planning experiment (wall-clock of the full
  sweep plus the speedup/replan assertions),
* raw multi-job scheduler throughput — how many jobs per simulated hour
  the admission queue pushes through a contended 4-DC substrate, and
  how much wall-clock the event-driven executor spends doing it, and
* ``test_runtime_bench_report``, which writes ``BENCH_runtime.json`` at
  the repo root (jobs/sec, re-plan latency, metrics-log ingest
  overhead %) for ``scripts/check_bench.py`` to diff against the
  committed ``benchmarks/BENCH_runtime_baseline.json``.
"""

import json
import time
from pathlib import Path
from typing import Callable

from repro.experiments import online_replanning, recalibration
from repro.gda.engine.cluster import GeoCluster
from repro.gda.engine.dag import JobSpec, StageSpec
from repro.tuner import load_tune, run_tune, rung_plan
from repro.gda.systems.tetrium import TetriumPolicy
from repro.gda.workloads.terasort import terasort_job
from repro.net.dynamics import FluctuationModel, StaticModel
from repro.net.simulator import NetworkSimulator
from repro.net.topology import Topology
from repro.runtime.drift import ReplanEvent
from repro.runtime.observability import MetricsLog
from repro.runtime.scheduler import JobScheduler
from repro.runtime.scheduling import SLO
from repro.runtime.scheduling.shards import ShardedScheduler
from repro.runtime.service import PipelineService, ServiceConfig, default_job_mix
from repro.sim.kernel import Simulator

REGIONS = ("us-east-1", "us-west-1", "eu-west-1", "ap-southeast-1")
N_JOBS = 12


def test_online_replanning_vs_static(regenerate):
    results = regenerate(online_replanning)
    rows = results["rows"]
    # Online re-planning must never lose to the frozen plan, must win
    # clearly on at least one persistent-drift scenario, and must
    # actually fire mid-job re-plans.
    assert all(row["speedup"] >= 0.97 for row in rows.values())
    assert max(row["speedup"] for row in rows.values()) > 1.05
    assert sum(row["replans"] for row in rows.values()) >= 3
    assert all(row["completed"] == 6 for row in rows.values())


def test_recalibration_vs_static(regenerate):
    results = regenerate(recalibration)
    static = results["static"]
    recal = results["recalibrated"]
    # Continuous recalibration must strictly improve SLO attainment on
    # the committed circuit-chaos cell, with the gauging loop actually
    # ticking — and the static run must not have recalibrated at all.
    assert recal.slo_attainment > static.slo_attainment
    assert recal.recalibrations > 0
    assert recal.recal_adjustments > 0
    assert static.recalibrations == 0
    assert static.recal_adjustments == 0
    assert recal.completed == static.completed == 10


def _drain_scheduler() -> JobScheduler:
    cluster = GeoCluster.build(
        REGIONS, "t2.medium", fluctuation=FluctuationModel(seed=3)
    )
    scheduler = JobScheduler(cluster, max_concurrent=3)
    for i in range(N_JOBS):
        scheduler.submit(
            terasort_job({k: 400.0 for k in REGIONS}, name=f"ts-{i}"),
            TetriumPolicy(),
        )
    cluster.network.sim.run()
    return scheduler


def test_scheduler_throughput(benchmark, capsys):
    scheduler = benchmark.pedantic(
        _drain_scheduler, rounds=1, iterations=1
    )
    stats = scheduler.stats()
    with capsys.disabled():
        print()
        print(
            f"scheduler throughput: {stats['jobs_per_hour']:.1f} "
            f"jobs/sim-hour over {N_JOBS} jobs "
            f"(peak concurrency {scheduler.peak_concurrency}, "
            f"fairness {stats['fairness']:.2f})"
        )
    assert stats["completed"] == N_JOBS
    assert scheduler.peak_concurrency == 3
    assert stats["jobs_per_hour"] > 10.0


# ----------------------------------------------------------------------
# The BENCH_runtime.json report
# ----------------------------------------------------------------------

#: Monitor ticks per metrics-log micro-benchmark round.
_LOG_ROUNDS = 20_000

#: The hard ceiling the tentpole promises: warehousing every sample
#: must stay below this share of a run's wall-clock.
MAX_LOG_OVERHEAD_PCT = 5.0


def _metrics_log_ns_per_sample() -> float:
    """Wall nanoseconds one ``MetricsLog.record`` destination costs.

    The ingest path is a bare list append; measuring it in isolation
    (rather than diffing two whole runs) keeps the number stable enough
    to regress against.
    """
    log = MetricsLog()
    rates = {f"dc-{i}": float(i) for i in range(7)}
    start = time.perf_counter()
    for tick in range(_LOG_ROUNDS):
        log.record("src", float(tick), rates)
    elapsed = time.perf_counter() - start
    return elapsed * 1e9 / (_LOG_ROUNDS * len(rates))


def _timed_service_run() -> tuple[dict, float]:
    """One observed service run: (summary row, wall seconds)."""
    config = ServiceConfig(
        regions=REGIONS,
        n_training_datasets=6,
        n_estimators=6,
        scenario="link-failure",
    )
    start = time.perf_counter()
    service = PipelineService.build(config)
    mix = default_job_mix(REGIONS, count=6, seed=42, scale_mb=3000.0)
    service.submit_mix(mix)
    service.run(until=None)
    service.stop()
    wall_s = time.perf_counter() - start
    row = service.summary().to_row()
    row["log_entries"] = service.hub.log.size
    return row, wall_s


def _replan_latency_ms(rounds: int = 5) -> float:
    """Mean wall milliseconds of one forced mid-job re-plan."""
    config = ServiceConfig(
        regions=REGIONS, n_training_datasets=6, n_estimators=6
    )
    service = PipelineService.build(config)
    event = ReplanEvent(
        time=0.0,
        src=REGIONS[0],
        dst=REGIONS[1],
        observed_mbps=50.0,
        predicted_mbps=200.0,
        rel_error=0.75,
    )
    start = time.perf_counter()
    for _ in range(rounds):
        service.replan(event)
    elapsed = time.perf_counter() - start
    service.stop()
    return elapsed * 1e3 / rounds


def _timed_tune_search() -> tuple[int, int, float]:
    """One committed offline-tuner search: (cells executed, the
    unpruned cells × rungs product, wall seconds).

    Runs the example tune file's successive-halving search end to end;
    ``cells_executed`` is fully deterministic (same matrix, same
    pruning decisions), the wall-clock side regresses the search
    throughput.
    """
    spec = load_tune("examples/tune.toml")
    unpruned = len(spec.sweep.cells) * len(rung_plan(spec))
    start = time.perf_counter()
    result = run_tune(spec)
    wall_s = time.perf_counter() - start
    assert result.winner is not None
    return result.cells_executed, unpruned, wall_s


#: Concurrent single-pair transfers in the kernel micro-benchmark —
#: deep in the vectorized kernel's territory (the scalar path walks
#: every transfer per event; the batched path advances them as one
#: numpy expression).
_KERNEL_TRANSFERS = 3000

#: The speedup the vectorized kernel must deliver on that workload.
MIN_KERNEL_SPEEDUP = 5.0


#: Transfer count for the pure event-kernel rate row.  The slow tier
#: (``test_bench_parallel.py``) runs the same workload at one million
#: transfers; this size keeps the default bench under a second.
_EVENT_KERNEL_TRANSFERS = 100_000


def event_kernel_workload() -> tuple[Simulator, Callable[[], None], dict]:
    """Untimed set-up of the bare event-kernel row: ``(sim, arrive,
    state)``.

    Replays the :class:`NetworkSimulator` event shape with the network
    math stripped out: every ``arrive`` cancels and re-arms one shared
    completion event (the ``_schedule_completion`` pattern), whose
    firings then chain until the live count (``state["live"]``) drains.
    Callers drive it in bulk waves of ``arrive`` via ``schedule_many``.
    """
    sim = Simulator()
    state: dict = {"live": 0, "next": None}

    def complete() -> None:
        state["next"] = None
        state["live"] -= 1
        rearm()

    def rearm() -> None:
        if state["next"] is not None:
            state["next"].cancel()
            state["next"] = None
        if state["live"] > 0:
            state["next"] = sim.schedule(1.0, complete, priority=1)

    def arrive() -> None:
        state["live"] += 1
        rearm()

    return sim, arrive, state


def _event_kernel_rate(n_transfers: int) -> tuple[float, float, int]:
    """(events/wall-s, wall seconds, events) for the bare event kernel.

    Arrivals land in bulk waves via ``schedule_many`` (see
    :func:`event_kernel_workload`) and share instants ten at a time,
    so ``run()``'s same-instant batch dispatch is on the measured path
    too.  What this prices is heap discipline alone — tuple entries,
    the skim loop, batch dispatch, and bulk insert.
    """
    sim, arrive, state = event_kernel_workload()
    wave = 1000
    start = time.perf_counter()
    for _ in range(max(1, n_transfers // wave)):
        sim.schedule_many((0.001 * (k // 10), arrive) for k in range(wave))
        sim.run()
    wall_s = time.perf_counter() - start
    assert state["live"] == 0
    return sim.events_processed / wall_s, wall_s, sim.events_processed


def crowded_pair_network(
    kernel: str, n_transfers: int = _KERNEL_TRANSFERS
) -> NetworkSimulator:
    """Untimed set-up of the crowded-pair row: ``n_transfers`` started
    on one WAN pair, ready for ``net.sim.run()`` to drain."""
    topology = Topology.build(("us-east-1", "us-west-1"), "t2.medium")
    net = NetworkSimulator(topology, fluctuation=StaticModel(), kernel=kernel)
    for i in range(n_transfers):
        # Strictly increasing sizes: every transfer completes at its
        # own instant, so each completion re-shares the surviving
        # crowd — the scalar kernel's quadratic worst case.
        net.start_transfer("us-east-1", "us-west-1", 100.0 + 0.25 * i)
    return net


def _sim_event_rate(kernel: str) -> tuple[float, float, int]:
    """(events/wall-s, wall seconds, events) draining one crowded pair."""
    net = crowded_pair_network(kernel)
    start = time.perf_counter()
    net.sim.run()
    wall_s = time.perf_counter() - start
    events = net.sim.events_processed
    return events / wall_s, wall_s, events


def _bench_job(name: str) -> JobSpec:
    pair = ("us-east-1", "us-west-1")
    return JobSpec(
        name=name,
        stages=[
            StageSpec(
                "map", cpu_s_per_mb=0.01, output_ratio=1.0, shuffle=False
            ),
            StageSpec(
                "reduce", cpu_s_per_mb=0.01, output_ratio=0.1, shuffle=True
            ),
        ],
        input_mb_by_dc={k: 40.0 for k in pair},
    )


def _sharded_drain(n_jobs: int = 400) -> tuple[dict, float]:
    """Drain a skewed multi-tenant burst through 4 shards.

    Half the jobs belong to one hot tenant, so the drain exercises
    work-stealing hard; the weather and routing are seeded, making
    ``steals`` a deterministic count.
    """
    cluster = GeoCluster.build(
        ("us-east-1", "us-west-1"),
        "t2.medium",
        fluctuation=FluctuationModel(seed=3),
        kernel="vectorized",
    )
    scheduler = ShardedScheduler(
        cluster, shards=4, max_concurrent=8, admission="deadline-edf"
    )
    start = time.perf_counter()
    for i in range(n_jobs):
        tenant = "hot" if i % 2 == 0 else f"tenant{i % 5}"
        scheduler.submit(
            _bench_job(f"shard-{i}"),
            slo=SLO(
                deadline_s=3600.0 + ((i * 7919) % n_jobs) * 30.0,
                tenant=tenant,
            ),
        )
    cluster.network.sim.run()
    wall_s = time.perf_counter() - start
    return scheduler.stats(), wall_s


def test_runtime_bench_report(capsys):
    """Write BENCH_runtime.json and pin the metrics-log overhead < 5%."""
    row, wall_s = _timed_service_run()
    ns_per_sample = _metrics_log_ns_per_sample()
    # The run-level ingest overhead: per-sample warehouse cost times the
    # samples this run actually warehoused, against its wall-clock.
    overhead_pct = (
        100.0 * row["log_entries"] * ns_per_sample * 1e-9 / wall_s
    )
    replan_ms = _replan_latency_ms()
    tuner_cells, tuner_unpruned, tune_wall_s = _timed_tune_search()
    scalar_rate, scalar_wall, scalar_events = _sim_event_rate("scalar")
    vec_rate, vec_wall, vec_events = _sim_event_rate("vectorized")
    kernel_speedup = scalar_wall / vec_wall
    event_rate, _, event_count = _event_kernel_rate(_EVENT_KERNEL_TRANSFERS)
    sharded_stats, sharded_wall = _sharded_drain()
    recal_results = recalibration.run(fast=True)
    recal = recal_results["recalibrated"]
    recal_gain_pts = (
        recal.slo_attainment - recal_results["static"].slo_attainment
    ) * 100.0
    report = {
        "completed_jobs": row["completed"],
        "jobs_per_wall_s": row["completed"] / wall_s,
        "service_wall_s": wall_s,
        "replan_latency_ms": replan_ms,
        "metrics_log_ns_per_sample": ns_per_sample,
        "metrics_log_entries": row["log_entries"],
        "rollup_rows": row["rollup_rows"],
        "events_traced": row["events_traced"],
        "metrics_log_overhead_pct": overhead_pct,
        "tuner_cells_executed": tuner_cells,
        "tuner_unpruned_cell_runs": tuner_unpruned,
        "tuner_cells_per_s": tuner_cells / tune_wall_s,
        "sim_events_per_s": event_rate,
        "net_events_per_s": vec_rate,
        "sim_kernel_speedup": kernel_speedup,
        "sharded_jobs_per_wall_s": sharded_stats["completed"] / sharded_wall,
        "steal_count": sharded_stats["steals"],
        "recal_ticks": recal.recalibrations,
        "recal_adjustments": recal.recal_adjustments,
        "recal_attainment_gain_pts": recal_gain_pts,
    }
    path = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    with capsys.disabled():
        print()
        print(
            f"runtime bench: {report['jobs_per_wall_s']:.1f} jobs/wall-s, "
            f"re-plan {replan_ms:.1f} ms, metrics-log "
            f"{ns_per_sample:.0f} ns/sample "
            f"({overhead_pct:.3f}% of the run), tuner search "
            f"{tuner_cells}/{tuner_unpruned} cell-runs at "
            f"{report['tuner_cells_per_s']:.1f} cells/wall-s → {path.name}"
        )
        print(
            f"transfer kernel: {vec_rate:.0f} events/s vectorized vs "
            f"{scalar_rate:.0f} scalar ({kernel_speedup:.1f}× over "
            f"{vec_events} events); event kernel {event_rate:.0f} "
            f"events/s over {event_count} events; sharded drain "
            f"{report['sharded_jobs_per_wall_s']:.0f} jobs/wall-s, "
            f"{sharded_stats['steals']:.0f} steals"
        )
        print(
            f"recalibration: {recal.recalibrations} ticks, "
            f"{recal.recal_adjustments} capacity adjustments, "
            f"{recal_gain_pts:+.0f} pts SLO attainment vs static"
        )
    assert row["completed"] == 6
    assert row["rollup_rows"] > 0 and row["events_traced"] > 0
    assert overhead_pct < MAX_LOG_OVERHEAD_PCT
    # Successive halving must beat the unpruned cells × rungs product.
    assert tuner_cells < tuner_unpruned
    # Both kernels drain the same workload through the same events —
    # the vectorized one just walks them ≥5× faster.
    assert scalar_events == vec_events
    assert kernel_speedup >= MIN_KERNEL_SPEEDUP
    # The pure-kernel workload dispatches exactly one arrival and one
    # chained completion per transfer, wall-clock aside.
    assert event_count == 2 * _EVENT_KERNEL_TRANSFERS
    assert sharded_stats["completed"] == 400.0
    assert sharded_stats["steals"] > 0
    # Recalibration must have ticked, moved capacities, and won on
    # attainment — a zero gain means the committed cell stopped
    # differentiating and needs re-tuning, not a looser assert.
    assert recal.recalibrations > 0
    assert recal.recal_adjustments > 0
    assert recal_gain_pts > 0.0
