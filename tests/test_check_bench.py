"""The benchmark regression gate (scripts/check_bench.py).

Each case builds a report from a baseline and perturbs one row, so a
failure names exactly the rule that stopped catching it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

TOLERANCE = 20.0
WALL_TOLERANCE = 150.0


@pytest.fixture(scope="module")
def check_bench():
    spec = importlib.util.spec_from_file_location(
        "check_bench", REPO / "scripts" / "check_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def baseline():
    return {
        "completed_jobs": 6.0,
        "rollup_rows": 240.0,
        "jobs_per_wall_s": 10.0,
        "service_wall_s": 1.0,
        "metrics_log_overhead_pct": 0.5,
    }


def complaints(check_bench, current, baseline):
    found, _ = check_bench.check(current, baseline, TOLERANCE, WALL_TOLERANCE)
    return found


class TestCheck:
    def test_identical_report_passes(self, check_bench, baseline):
        found, deltas = check_bench.check(
            dict(baseline), baseline, TOLERANCE, WALL_TOLERANCE
        )
        assert found == []
        assert len(deltas) == len(baseline)

    def test_dropped_row_fails(self, check_bench, baseline):
        current = dict(baseline)
        del current["rollup_rows"]
        found = complaints(check_bench, current, baseline)
        assert any(
            "rollup_rows" in line and "missing" in line for line in found
        )

    def test_deterministic_drift_past_tolerance_fails(
        self, check_bench, baseline
    ):
        within = dict(baseline, completed_jobs=6.0 * 1.19)
        assert complaints(check_bench, within, baseline) == []
        for drifted in (6.0 * 1.25, 6.0 * 0.75):
            found = complaints(
                check_bench, dict(baseline, completed_jobs=drifted), baseline
            )
            assert len(found) == 1 and "completed_jobs" in found[0]

    def test_higher_is_better_regression_fails(self, check_bench, baseline):
        # 10 → 3.9 per s is a 156 % slowdown on a higher-is-better row.
        slower = dict(baseline, jobs_per_wall_s=3.9)
        found = complaints(check_bench, slower, baseline)
        assert len(found) == 1 and "jobs_per_wall_s" in found[0]
        faster = dict(baseline, jobs_per_wall_s=100.0)
        assert complaints(check_bench, faster, baseline) == []
        within = dict(baseline, jobs_per_wall_s=4.1)
        assert complaints(check_bench, within, baseline) == []
        stalled = dict(baseline, jobs_per_wall_s=0.0)
        assert len(complaints(check_bench, stalled, baseline)) == 1

    def test_lower_is_better_regression_fails(self, check_bench, baseline):
        slower = dict(baseline, service_wall_s=2.6)
        found = complaints(check_bench, slower, baseline)
        assert len(found) == 1 and "service_wall_s" in found[0]
        faster = dict(baseline, service_wall_s=0.01)
        assert complaints(check_bench, faster, baseline) == []
        within = dict(baseline, service_wall_s=2.4)
        assert complaints(check_bench, within, baseline) == []

    def test_unclassified_row_fails(self, check_bench, baseline):
        current = dict(baseline, brand_new_rate_per_s=1.0)
        found = complaints(check_bench, current, baseline)
        assert len(found) == 1
        assert "brand_new_rate_per_s" in found[0]
        assert "classify" in found[0]

    def test_log_overhead_ceiling(self, check_bench):
        # No baseline row at all: the absolute ceiling still applies.
        ceiling = check_bench.MAX_LOG_OVERHEAD_PCT
        assert ceiling == 5.0
        under = {"metrics_log_overhead_pct": 4.99}
        assert complaints(check_bench, under, {}) == []
        at = {"metrics_log_overhead_pct": 5.0}
        found = complaints(check_bench, at, {})
        assert len(found) == 1 and "ceiling" in found[0]

    def test_faster_service_with_same_logging_cost_passes(
        self, check_bench, baseline
    ):
        # The overhead row is entries × ns/sample ÷ service wall, so a
        # 4× faster service quadruples it with logging unchanged.
        baseline = dict(
            baseline, metrics_log_entries=2328.0, metrics_log_ns_per_sample=400.0
        )
        faster = dict(
            baseline,
            jobs_per_wall_s=40.0,
            service_wall_s=0.25,
            metrics_log_overhead_pct=2.0,
        )
        assert complaints(check_bench, faster, baseline) == []

    def test_slower_logging_fails(self, check_bench, baseline):
        baseline = dict(baseline, metrics_log_ns_per_sample=400.0)
        slower = dict(baseline, metrics_log_ns_per_sample=400.0 * 2.51)
        found = complaints(check_bench, slower, baseline)
        assert len(found) == 1 and "metrics_log_ns_per_sample" in found[0]
        within = dict(baseline, metrics_log_ns_per_sample=400.0 * 2.49)
        assert complaints(check_bench, within, baseline) == []

    def test_log_overhead_ceiling_with_a_baseline(self, check_bench, baseline):
        under = dict(baseline, metrics_log_overhead_pct=4.99)
        assert complaints(check_bench, under, baseline) == []
        at = dict(baseline, metrics_log_overhead_pct=5.0)
        found = complaints(check_bench, at, baseline)
        assert len(found) == 1 and "ceiling" in found[0]

    def test_committed_reports_are_fully_classified(self, check_bench):
        classified = (
            set(check_bench.DETERMINISTIC)
            | set(check_bench.WALL_CLOCK)
            | set(check_bench.CEILINGS)
        )
        for name in ("BENCH_runtime.json", "BENCH_parallel.json"):
            rows = json.loads((REPO / name).read_text())
            assert set(rows) <= classified, name


class TestMain:
    def test_exit_code_follows_complaints(self, check_bench, baseline, tmp_path):
        paths = {}
        for name, rows in (
            ("current", dict(baseline)),
            ("baseline", baseline),
            ("parallel-current", {"parallel_jobs": 10.0}),
            ("parallel-baseline", {"parallel_jobs": 10.0}),
        ):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(rows))
        argv = [arg for name, path in paths.items() for arg in (f"--{name}", str(path))]
        assert check_bench.main(argv) == 0
        paths["current"].write_text(json.dumps(dict(baseline, unknown_row=1.0)))
        assert check_bench.main(argv) == 1
