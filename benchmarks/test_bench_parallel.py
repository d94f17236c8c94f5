"""Scale-tier benchmarks for PR 9: the million-transfer event kernel
and the 2000-job process-parallel shard drain.

Both tests carry ``@pytest.mark.slow`` — tier-1 deselects them via
pytest.ini's addopts and the CI slow-test job runs them with
``-m slow``.  The drain tier writes ``BENCH_parallel.json`` at the
repo root; ``scripts/check_bench.py`` compares it against the
committed ``benchmarks/BENCH_parallel_baseline.json``.

Why the drain tier looks the way it does: the speedup a partitioned
drain shows even on one core comes from WAN-state locality, not just
from multiprocessing.  Every solve in a shared simulation re-prices
the *whole* fleet's active pairs (``_reallocate`` defers one
``_flush`` per instant, which calls ``pair_capacity`` →
``FluctuationModel.factor`` per distinct active pair; the route table
caches only a pair's static inputs, not its weather), while a
partitioned shard re-prices only its own slice of the WAN.  The tier
models geographically *homed* tenants: each tenant's inputs live in
its home region pair, and because shard routing hashes the tenant,
every shard's WAN footprint stays local to its tenants' homes — the
shared simulation walks ~30 active pairs per event where a partitioned
shard walks ~12.  On a multi-core runner the pool stacks process
parallelism on top of that locality win.
"""

import json
import time
from pathlib import Path

import pytest

from repro.gda.engine.cluster import GeoCluster
from repro.gda.engine.dag import JobSpec, StageSpec
from repro.net.dynamics import FluctuationModel
from repro.pipeline.config import ServiceConfig
from repro.runtime.scheduling.parallel import (
    ShardExecutor,
    build_tasks,
    merge_stats,
)
from repro.runtime.scheduling.shards import ShardedScheduler, shard_for_tenant
from repro.runtime.scheduling.slo import SLO

from test_bench_runtime import _event_kernel_rate

#: The committed PR-8 `sim_events_per_s` (the vectorized network drain
#: rate, 5558 events/s).  PR 9 re-defines the row as the bare event
#: kernel's dispatch rate; the acceptance bar is ≥ 2× this number on
#: the million-transfer workload.
PR8_SIM_EVENTS_PER_S = 5558.3

#: Transfers in the slow kernel tier (arrival + chained completion
#: each, so two million dispatched events).
MILLION = 1_000_000

#: The drain tier: 2000 jobs over 4 shards.
TIER_JOBS = 2000
TIER_SHARDS = 4
TIER_WORKERS = 4
TIER_CONCURRENT = 32

TIER_REGIONS = (
    "us-east-1",
    "us-west-1",
    "eu-west-1",
    "ap-south-1",
    "ap-northeast-1",
    "sa-east-1",
    "ap-southeast-1",
    "ap-southeast-2",
)


def _tier_job(name: str, tenant: str) -> JobSpec:
    """A light two-stage job whose inputs live in its tenant's home
    region pair.

    The home pair is derived from the same tenant hash the shard
    router uses, so all of a shard's jobs flow over that shard's two
    home regions — the geographic locality that makes a partitioned
    shard's repricing loop walk a fraction of the fleet's active
    pairs.
    """
    home = shard_for_tenant(tenant, TIER_SHARDS)
    a = TIER_REGIONS[2 * home]
    b = TIER_REGIONS[2 * home + 1]
    return JobSpec(
        name=name,
        stages=[
            StageSpec("map", cpu_s_per_mb=0.005, output_ratio=1.0, shuffle=False),
            StageSpec("reduce", cpu_s_per_mb=0.005, output_ratio=0.1, shuffle=True),
        ],
        input_mb_by_dc={a: 8.0, b: 8.0},
    )


def _tier_entries(count: int = TIER_JOBS):
    """(delay, job, policy, slo) tuples for the drain tier — balanced
    tenants (16 tenants, 4 per shard) and a spread of deadlines."""
    entries = []
    for i in range(count):
        tenant = f"tenant{i % 16}"
        entries.append(
            (
                0.0,
                _tier_job(f"par-{i}", tenant),
                None,
                SLO(
                    deadline_s=3600.0 + ((i * 7919) % count) * 30.0,
                    tenant=tenant,
                ),
            )
        )
    return entries


def _in_process_drain(entries) -> tuple[dict, float]:
    """Wall seconds for the shared-simulation ShardedScheduler drain."""
    cluster = GeoCluster.build(
        TIER_REGIONS,
        "t2.medium",
        fluctuation=FluctuationModel(seed=3),
        kernel="vectorized",
    )
    scheduler = ShardedScheduler(
        cluster,
        shards=TIER_SHARDS,
        max_concurrent=TIER_CONCURRENT,
        admission="deadline-edf",
    )
    start = time.perf_counter()
    scheduler.submit_many(
        [(delay, job, policy, slo) for delay, job, policy, slo in entries]
    )
    cluster.network.sim.run()
    wall_s = time.perf_counter() - start
    return scheduler.stats(), wall_s


def _tier_tasks(entries):
    config = ServiceConfig(
        regions=TIER_REGIONS,
        seed=3,
        kernel="vectorized",
        scheduler="deadline-edf",
        scheduler_shards=TIER_SHARDS,
        max_concurrent=TIER_CONCURRENT,
    )
    return build_tasks(entries, config)


@pytest.mark.slow
def test_kernel_million_transfer_rate():
    """The bare event kernel sustains ≥ 2× the PR-8 committed event
    rate on a million-transfer workload (in practice ≥ 30×)."""
    rate, wall_s, events = _event_kernel_rate(MILLION)
    print(
        f"\nevent kernel: {rate:.0f} events/s over {events} events "
        f"({wall_s:.1f} s wall)"
    )
    assert events == 2 * MILLION
    assert rate >= 2.0 * PR8_SIM_EVENTS_PER_S


@pytest.mark.slow
def test_parallel_drain_2000_jobs():
    """The 2000-job/4-shard tier: partitioned execution with
    ``shard_workers=4`` beats the shared-simulation drain, and the
    pool reproduces the serial partitioned records exactly.

    Writes BENCH_parallel.json; ``parallel_speedup`` must clear 1.5×
    (the measured value is ~2.2× on a single core, and multi-core
    runners stack process parallelism on top).  `check_bench.py`
    additionally diffs the committed row against the baseline.
    """
    entries = _tier_entries()
    stats, base_wall = _in_process_drain(entries)
    assert stats["completed"] == float(TIER_JOBS)

    tasks = _tier_tasks(entries)
    serial = ShardExecutor(0)
    serial_results = serial.run(tasks)
    serial_wall = serial.wall_s

    pooled = ShardExecutor(TIER_WORKERS)
    pooled_results = pooled.run(tasks)
    pooled_wall = pooled.wall_s

    merged = merge_stats(pooled_results)
    assert merged["completed"] == float(TIER_JOBS)
    # The pool is a pure fan-out of the serial partitioned run.
    serial_times = {
        r.name: r.finished_s for res in serial_results for r in res.records
    }
    pooled_times = {
        r.name: r.finished_s for res in pooled_results for r in res.records
    }
    assert serial_times == pooled_times

    speedup = base_wall / pooled_wall
    report = {
        "parallel_jobs": float(TIER_JOBS),
        "parallel_shards": float(TIER_SHARDS),
        "shard_worker_count": 0.0 if pooled.fell_back else float(TIER_WORKERS),
        "in_process_wall_s": base_wall,
        "parallel_serial_wall_s": serial_wall,
        "parallel_wall_s": pooled_wall,
        "parallel_speedup": speedup,
        "parallel_jobs_per_wall_s": TIER_JOBS / pooled_wall,
    }
    path = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"\nparallel drain: in-process {base_wall:.1f} s vs partitioned "
        f"{pooled_wall:.1f} s with {TIER_WORKERS} workers "
        f"({speedup:.2f}×, serial partitioned {serial_wall:.1f} s) "
        f"→ {path.name}"
    )
    assert speedup > 1.5
