"""Tests for the offline tuner (:mod:`repro.tuner.search`).

Covers tune-file validation, the successive-halving rung plan, the
pruning contract (pruned cells never execute again, unchanged-fidelity
survivors reuse their measured row), deterministic parallel execution,
full-fidelity parity of the final rung against the sweep runner's own
``run_cell``, and the winner.toml round-trip through the layered
config loader.
"""

import json

import pytest

from repro.experiments.sweep import CellResult, run_cell
from repro.pipeline.config import ServiceConfig, layered_config
from repro.tuner import (
    TuneError,
    load_tune,
    render_tune_markdown,
    rung_plan,
    run_tune,
    winning_toml,
    write_tune_report,
)
from repro.tuner.search import DEFAULT_TARGET

#: Two tiny regions + miniature training keep a real run in seconds.
FAST_BASE = """
regions = ["us-east-1", "us-west-1"]
n_training_datasets = 3
n_estimators = 2
seed = 11
"""


def write_toml(tmp_path, body, name="tune.toml"):
    path = tmp_path / name
    path.write_text(body)
    return path


class TestLoadTune:
    def test_parses_the_tune_table(self, tmp_path):
        path = write_toml(
            tmp_path,
            FAST_BASE
            + """
[sweep]
gaugers = ["snapshot", "passive-telemetry"]
jobs = 4

[tune]
target = 0.7
eta = 3
min_jobs = 2
""",
        )
        spec = load_tune(path)
        assert spec.target == pytest.approx(0.7)
        assert spec.eta == 3
        assert spec.min_jobs == 2
        assert len(spec.sweep.cells) == 2

    def test_tune_table_is_optional(self, tmp_path):
        path = write_toml(tmp_path, FAST_BASE + "\n[sweep]\njobs = 2\n")
        spec = load_tune(path)
        assert spec.target == DEFAULT_TARGET
        assert spec.eta == 2
        assert spec.min_jobs == 1

    def test_unknown_tune_key_fails(self, tmp_path):
        path = write_toml(
            tmp_path, FAST_BASE + "\n[sweep]\njobs = 1\n\n[tune]\ngoal = 0.9\n"
        )
        with pytest.raises(TuneError, match="goal"):
            load_tune(path)

    def test_bad_target_fails(self, tmp_path):
        path = write_toml(
            tmp_path, FAST_BASE + "\n[sweep]\njobs = 1\n\n[tune]\ntarget = 1.5\n"
        )
        with pytest.raises(TuneError, match="target"):
            load_tune(path)

    def test_bad_eta_fails(self, tmp_path):
        path = write_toml(
            tmp_path, FAST_BASE + "\n[sweep]\njobs = 1\n\n[tune]\neta = 1\n"
        )
        with pytest.raises(TuneError, match="eta"):
            load_tune(path)

    def test_min_jobs_above_jobs_fails(self, tmp_path):
        path = write_toml(
            tmp_path,
            FAST_BASE + "\n[sweep]\njobs = 2\n\n[tune]\nmin_jobs = 3\n",
        )
        with pytest.raises(TuneError, match="min_jobs"):
            load_tune(path)

    def test_example_tune_file_is_valid(self):
        spec = load_tune("examples/tune.toml")
        assert len(spec.sweep.cells) == 8
        assert spec.min_jobs == 2


class TestRungPlan:
    def test_ladder_grows_toward_full_fidelity(self, tmp_path):
        path = write_toml(
            tmp_path,
            FAST_BASE
            + """
[sweep]
gaugers = ["snapshot", "passive-telemetry"]
schedulers = ["fifo", "deadline-edf"]
preemptions = ["none", "urgent-slo"]
jobs = 8
repeats = 2
""",
        )
        # 8 cells, eta 2 -> 3 reduced rungs + the full-fidelity rung.
        assert rung_plan(load_tune(path)) == [(1, 1), (2, 1), (4, 1), (8, 2)]

    def test_min_jobs_floors_the_early_rungs(self):
        spec = load_tune("examples/tune.toml")
        plan = rung_plan(spec)
        assert all(jobs >= spec.min_jobs for jobs, _ in plan)
        assert plan[-1] == (spec.sweep.jobs, spec.sweep.repeats)

    def test_single_cell_matrix_runs_full_fidelity_only(self, tmp_path):
        path = write_toml(
            tmp_path, FAST_BASE + "\n[sweep]\njobs = 4\nrepeats = 3\n"
        )
        assert rung_plan(load_tune(path)) == [(4, 3)]


def synthetic_runner(executed, attainment_by_gauger, cost_by_gauger):
    """A fake ``run_cell`` with scripted metrics, recording every call."""

    def fake_run_cell(rung_spec, cell, trained):
        executed.append((rung_spec.jobs, rung_spec.repeats, cell["gauger"]))
        gauger = cell["gauger"]
        return CellResult(
            cell=dict(cell),
            label=f"gauger={gauger}",
            metrics={
                "slo_attainment": attainment_by_gauger[gauger],
                "probe_cost_usd": cost_by_gauger[gauger],
                "replan_cost_usd": 0.0,
                "mean_jct_s": 100.0,
            },
        )

    return fake_run_cell


class TestPruning:
    """The sweep-runner-reuse contract under successive halving."""

    @pytest.fixture
    def spec(self, tmp_path):
        # Four cells, jobs=2, min_jobs=2: every rung (including the
        # final one) runs at fidelity (2, 1), so the measured-row
        # cache must collapse all re-runs — each cell executes once.
        path = write_toml(
            tmp_path,
            FAST_BASE
            + """
[sweep]
gaugers = ["snapshot", "passive-telemetry"]
schedulers = ["fifo", "deadline-edf"]
jobs = 2

[tune]
min_jobs = 2
target = 0.5
""",
        )
        return load_tune(path)

    def test_unchanged_fidelity_reuses_measured_rows(self, spec, monkeypatch):
        executed = []
        monkeypatch.setattr(
            "repro.experiments.sweep.run_cell",
            synthetic_runner(
                executed,
                {"snapshot": 0.9, "passive-telemetry": 0.2},
                {"snapshot": 0.10, "passive-telemetry": 0.01},
            ),
        )
        result = run_tune(spec)
        # Every rung shares fidelity (2, 1): each of the 4 cells runs
        # exactly once, ever — survivors reuse their measured row.
        assert len(executed) == 4
        assert result.cells_executed == 4
        # Feasible snapshot cells beat cheap-but-infeasible passive ones.
        assert result.winner.cell["gauger"] == "snapshot"
        assert result.feasible
        pruned = {label for rung in result.rungs for label in rung.pruned}
        assert any("passive-telemetry" in label for label in pruned)

    def test_pruned_cells_never_execute_at_higher_fidelity(
        self, tmp_path, monkeypatch
    ):
        path = write_toml(
            tmp_path,
            FAST_BASE
            + """
[sweep]
gaugers = ["snapshot", "passive-telemetry"]
schedulers = ["fifo", "deadline-edf"]
jobs = 4

[tune]
target = 0.5
""",
        )
        spec = load_tune(path)
        assert rung_plan(spec) == [(1, 1), (2, 1), (4, 1)]
        executed = []
        monkeypatch.setattr(
            "repro.experiments.sweep.run_cell",
            synthetic_runner(
                executed,
                {"snapshot": 0.9, "passive-telemetry": 0.2},
                {"snapshot": 0.10, "passive-telemetry": 0.01},
            ),
        )
        result = run_tune(spec)
        # 4 cells at jobs=1, 2 survivors at jobs=2, 1 at jobs=4 —
        # versus 12 cell-runs had nothing been pruned.
        assert result.cells_executed == 7
        # The infeasible passive cells were pruned at the first rung
        # and never ran again at any higher fidelity.
        assert all(
            gauger != "passive-telemetry"
            for jobs, _, gauger in executed
            if jobs > 1
        )
        assert result.winner.cell["gauger"] == "snapshot"

    def test_infeasible_matrix_flags_least_bad_winner(self, spec, monkeypatch):
        executed = []
        monkeypatch.setattr(
            "repro.experiments.sweep.run_cell",
            synthetic_runner(
                executed,
                {"snapshot": 0.4, "passive-telemetry": 0.3},
                {"snapshot": 0.10, "passive-telemetry": 0.01},
            ),
        )
        result = run_tune(spec)
        assert not result.feasible
        # Nothing meets 0.5: ranking falls back to cost, then
        # attainment — the cheap passive cells survive.
        assert result.winner.cell["gauger"] == "passive-telemetry"

    def test_progress_reports_rung_labels(self, spec, monkeypatch):
        executed, seen = [], []
        monkeypatch.setattr(
            "repro.experiments.sweep.run_cell",
            synthetic_runner(
                executed,
                {"snapshot": 0.9, "passive-telemetry": 0.2},
                {"snapshot": 0.10, "passive-telemetry": 0.01},
            ),
        )
        run_tune(spec, progress=lambda done, total, label: seen.append(label))
        assert seen
        assert all("rung" in label for label in seen)


class TestRealRuns:
    @pytest.fixture(scope="class")
    def spec(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("tune") / "tune.toml"
        path.write_text(
            FAST_BASE
            + """
[sweep]
gaugers = ["snapshot", "passive-telemetry"]
jobs = 1
scale_mb = 300.0

[tune]
target = 0.5
"""
        )
        return load_tune(path)

    @pytest.fixture(scope="class")
    def result(self, spec):
        return run_tune(spec)

    def test_parallel_run_matches_sequential(self, spec, result):
        parallel = run_tune(spec, workers=2)
        assert parallel.winner.to_json() == result.winner.to_json()
        assert [r.to_json() for r in parallel.rungs] == [
            r.to_json() for r in result.rungs
        ]
        assert parallel.cells_executed == result.cells_executed

    def test_winner_matches_the_unpruned_sweep_path(self, spec, result):
        # The final rung runs at full (jobs, repeats) through the same
        # run_cell the sweep runner uses, so the winner's row must be
        # identical to a direct full-fidelity measurement of that cell.
        direct = run_cell(spec.sweep, result.winner.cell, {})
        assert direct.to_json() == result.winner.to_json()

    def test_bad_worker_count_rejected(self, spec):
        with pytest.raises(TuneError, match="workers"):
            run_tune(spec, workers=0)

    def test_report_artifacts(self, result, tmp_path):
        json_path, md_path, toml_path = write_tune_report(
            result, tmp_path / "report"
        )
        data = json.loads(json_path.read_text())
        assert data["cells"] == 2
        assert data["cells_executed"] == result.cells_executed
        assert data["winner"]["label"] == result.winner.label
        assert "## Winner" in md_path.read_text()
        assert toml_path.read_text().startswith("# Winning configuration")

    def test_winner_toml_round_trips_through_layered_config(
        self, result, tmp_path
    ):
        _, _, toml_path = write_tune_report(result, tmp_path / "report")
        loaded = layered_config(ServiceConfig, path=toml_path)
        assert loaded == result.best_config()

    def test_markdown_names_the_objective(self, result):
        markdown = render_tune_markdown(result)
        assert "slo_attainment" in markdown
        assert "winner.toml" in markdown

    def test_winning_toml_spells_out_swept_axes(self, result):
        text = winning_toml(result)
        assert f'gauger = "{result.winner.cell["gauger"]}"' in text
        assert "seed = 11" in text


#: A winner file as ``winning_toml`` wrote it before eight knobs left
#: the config: every removed key is spelled out at its old default
#: (``max_replans`` defaulted to unset, so it was never written).
OLD_WINNER = """\
# Winning configuration from `wanify tune`
max_connections = 8
min_difference_mbps = 100.0
n_training_datasets = 3
n_estimators = 2
seed = 11
variant = "wanify-tc"
policy = "tetrium"
gauger = "passive-telemetry"
predictor = "forest"
planner = "window"
cache_ttl_s = 600.0
cache_drift_tolerance = 0.15
regions = ["us-east-1", "us-west-1"]
vm = "t2.medium"
profile = "vpc-peering"
online = true
throttling = true
max_concurrent = 3
scheduler = "fifo"
scheduler_shards = 1
shard_workers = 0
kernel = "scalar"
admit_batch = 16
preemption = "none"
governor = false
autoscale = false
autoscale_max = 6
epoch_s = 5.0
check_interval_s = 30.0
drift_threshold = 0.45
cooldown_s = 240.0
recalibrate = false
observability = true
tuner = "none"
tune_target = 0.9
switch_cooldown_s = 240.0
"""

REMOVED_KEYS = (
    "cache_ttl_s",
    "cache_drift_tolerance",
    "throttling",
    "epoch_s",
    "check_interval_s",
    "tune_target",
    "admit_batch",
)


class TestOldWinners:
    def test_removed_keys_are_ignored(self, tmp_path):
        old = write_toml(tmp_path, OLD_WINNER, name="old.toml")
        kept = "".join(
            line + "\n"
            for line in OLD_WINNER.splitlines()
            if line.split(" = ")[0] not in REMOVED_KEYS
        )
        assert kept.count("\n") == OLD_WINNER.count("\n") - len(REMOVED_KEYS)
        new = write_toml(tmp_path, kept, name="new.toml")
        loaded = layered_config(ServiceConfig, path=old)
        assert loaded == layered_config(ServiceConfig, path=new)
        assert loaded.gauger == "passive-telemetry"
        assert loaded.regions == ("us-east-1", "us-west-1")


class TestRepeatsParity:
    def test_final_rung_repeats_match_direct_run_cell(self, tmp_path):
        # repeats > 1: the winner row must carry the same mean ± stdev
        # the unpruned path computes for that cell.
        path = write_toml(
            tmp_path,
            FAST_BASE
            + """
[sweep]
jobs = 1
scale_mb = 300.0
repeats = 2

[tune]
target = 0.5
""",
        )
        spec = load_tune(path)
        result = run_tune(spec)
        direct = run_cell(spec.sweep, result.winner.cell, {})
        assert result.winner.seeds == direct.seeds
        assert result.winner.metrics == direct.metrics
        assert result.winner.metrics_std == direct.metrics_std
