#!/usr/bin/env python
"""Diff BENCH_runtime.json (and BENCH_parallel.json) against the
committed baselines.

CI runs the runtime benchmark (``pytest
benchmarks/test_bench_runtime.py::test_runtime_bench_report``), which
writes ``BENCH_runtime.json`` at the repo root, then runs this script
to flag regressions against ``benchmarks/BENCH_runtime_baseline.json``.
The slow-test job regenerates ``BENCH_parallel.json`` (the
2000-job/4-shard drain tier) the same way; whichever copy is on disk
is diffed against ``benchmarks/BENCH_parallel_baseline.json``.

Metrics fall into two classes:

* **deterministic** — counts the simulation fully determines
  (completed jobs, warehouse entries, rollup rows, traced events).
  Any drift beyond ``--tolerance`` (default 20 %) fails the check: the
  run itself changed, not the machine.
* **wall-clock** — throughput and latency numbers that vary with the
  host.  These are flagged at ``--wall-tolerance`` (default 150 %),
  loose enough for shared CI runners but still a backstop against a
  pathological slowdown.  A higher-is-better rate is gated on the
  slowdown it implies (``baseline / current - 1``), so a rate that
  falls to 40 % of its baseline fails like a time that grows 2.5×.

* **ceiling** — rows gated only by a hard absolute ceiling.  The
  metrics-log overhead is ``entries × ns/sample ÷ service_wall_s``:
  both factors of its numerator are gated above (entries as
  deterministic, ns/sample as wall-clock), and against a baseline the
  quotient would fail every speedup of the service itself.  Its ceiling
  (5 % of the run) mirrors the assertion inside the benchmark.

A row of the current report in no class fails the check, so a new
benchmark row cannot land ungated.  Every compared metric's percent
delta is printed even when the check passes, so CI logs show the perf
trajectory, not just a verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Deterministic metrics and their direction (``0`` = either way is a
#: change worth flagging).
DETERMINISTIC = (
    "completed_jobs",
    "metrics_log_entries",
    "rollup_rows",
    "events_traced",
    "tuner_cells_executed",
    "tuner_unpruned_cell_runs",
    "steal_count",
    "parallel_jobs",
    "parallel_shards",
    "shard_worker_count",
    "recal_ticks",
    "recal_adjustments",
    "recal_attainment_gain_pts",
)

#: Wall-clock metrics: name → +1 when higher is better, -1 when lower.
WALL_CLOCK = {
    "jobs_per_wall_s": +1,
    "service_wall_s": -1,
    "replan_latency_ms": -1,
    "metrics_log_ns_per_sample": -1,
    "tuner_cells_per_s": +1,
    "sim_events_per_s": +1,
    "net_events_per_s": +1,
    "sim_kernel_speedup": +1,
    "sharded_jobs_per_wall_s": +1,
    "parallel_speedup": +1,
    "parallel_jobs_per_wall_s": +1,
    "in_process_wall_s": -1,
    "parallel_serial_wall_s": -1,
    "parallel_wall_s": -1,
}

#: Hard absolute ceiling for the warehouse ingest overhead (percent).
MAX_LOG_OVERHEAD_PCT = 5.0

#: Ceiling metrics: name → the value at or above which the check fails.
CEILINGS = {"metrics_log_overhead_pct": MAX_LOG_OVERHEAD_PCT}


def _change_pct(current: float, baseline: float) -> float:
    """Signed percent change from baseline (0 baseline → 0 or inf)."""
    if baseline == 0.0:
        return 0.0 if current == 0.0 else float("inf")
    return 100.0 * (current - baseline) / baseline


def check(
    current: dict, baseline: dict, tolerance: float, wall_tolerance: float
) -> tuple[list[str], list[str]]:
    """(failed comparisons, per-metric delta lines) for one report."""
    complaints = []
    deltas = []
    # A benchmark row silently disappearing is itself a regression —
    # every metric the baseline pins must still be reported.
    for name in sorted(baseline):
        if name not in current:
            complaints.append(
                f"{name}: present in the baseline but missing from the "
                f"current report (benchmark row dropped?)"
            )
    # A row in neither class would be compared against nothing — a new
    # benchmark row must be classified before it can pass.
    for name in sorted(current):
        if not (name in DETERMINISTIC or name in WALL_CLOCK or name in CEILINGS):
            complaints.append(
                f"{name}: in the current report but not DETERMINISTIC, "
                f"WALL_CLOCK or CEILINGS (classify the new row)"
            )
    for name in DETERMINISTIC:
        if name not in baseline:
            continue
        change = _change_pct(
            float(current.get(name, 0.0)), float(baseline[name])
        )
        deltas.append(
            f"{name}: {current.get(name)} vs {baseline[name]} "
            f"({change:+.1f}%, deterministic ±{tolerance:.0f}%)"
        )
        if abs(change) > tolerance:
            complaints.append(
                f"{name}: {current.get(name)} vs baseline "
                f"{baseline[name]} ({change:+.1f}% > ±{tolerance:.0f}%)"
            )
    for name, direction in WALL_CLOCK.items():
        if name not in baseline:
            continue
        change = _change_pct(
            float(current.get(name, 0.0)), float(baseline[name])
        )
        # A regression is the metric moving *against* its direction,
        # measured as a slowdown: a rate's drop is gated as the time
        # growth it implies (10 → 4 per s reads +150 %), since a
        # percent drop can never exceed 100 %.
        regression = (
            _change_pct(float(baseline[name]), float(current.get(name, 0.0)))
            if direction > 0
            else change
        )
        deltas.append(
            f"{name}: {float(current.get(name, 0.0)):.4g} vs "
            f"{float(baseline[name]):.4g} ({change:+.1f}%, "
            f"{'higher' if direction > 0 else 'lower'} is better)"
        )
        if regression > wall_tolerance:
            complaints.append(
                f"{name}: {current.get(name):.4g} vs baseline "
                f"{float(baseline[name]):.4g} "
                f"({regression:+.1f}% worse > {wall_tolerance:.0f}%)"
            )
    for name, ceiling in CEILINGS.items():
        if name not in current:
            continue
        value = float(current[name])
        if name in baseline:
            change = _change_pct(value, float(baseline[name]))
            deltas.append(
                f"{name}: {value:.4g} vs {float(baseline[name]):.4g} "
                f"({change:+.1f}%, ceiling {ceiling:g})"
            )
        if value >= ceiling:
            complaints.append(
                f"{name}: {value:.2f} breaches the hard ceiling of {ceiling:g}"
            )
    return complaints, deltas


def _check_pair(
    current_path: Path,
    baseline_path: Path,
    tolerance: float,
    wall_tolerance: float,
) -> tuple[list[str], int]:
    """Check one report/baseline pair; returns (complaints, compared)."""
    try:
        current = json.loads(current_path.read_text())
        baseline = json.loads(baseline_path.read_text())
    except (OSError, ValueError) as exc:
        return [f"cannot load {current_path.name}: {exc}"], 0
    complaints, deltas = check(current, baseline, tolerance, wall_tolerance)
    print(f"{current_path.name} vs {baseline_path.name}:")
    for line in deltas:
        print(f"  {line}")
    return complaints, len(deltas)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--current",
        default=REPO / "BENCH_runtime.json",
        type=Path,
        help="report written by the runtime benchmark",
    )
    parser.add_argument(
        "--baseline",
        default=REPO / "benchmarks" / "BENCH_runtime_baseline.json",
        type=Path,
        help="committed baseline to diff against",
    )
    parser.add_argument(
        "--parallel-current",
        default=REPO / "BENCH_parallel.json",
        type=Path,
        help="report written by the slow parallel drain tier",
    )
    parser.add_argument(
        "--parallel-baseline",
        default=REPO / "benchmarks" / "BENCH_parallel_baseline.json",
        type=Path,
        help="committed parallel-tier baseline to diff against",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=20.0,
        help="percent drift allowed on deterministic metrics",
    )
    parser.add_argument(
        "--wall-tolerance",
        type=float,
        default=150.0,
        help="percent regression allowed on wall-clock metrics",
    )
    args = parser.parse_args(argv)
    complaints = []
    compared = 0
    for current_path, baseline_path in (
        (args.current, args.baseline),
        (args.parallel_current, args.parallel_baseline),
    ):
        pair_complaints, pair_compared = _check_pair(
            current_path, baseline_path, args.tolerance, args.wall_tolerance
        )
        complaints.extend(pair_complaints)
        compared += pair_compared
    if complaints:
        print("benchmark regression check FAILED:")
        for complaint in complaints:
            print(f"  - {complaint}")
        return 1
    print(
        f"benchmark regression check passed "
        f"({compared} metrics within tolerance)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
