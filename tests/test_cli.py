"""Tests for the command-line interface (:mod:`repro.cli`)."""

import dataclasses
import io
import typing

import pytest

from repro.checks import AtLeast, Between, OneOf, Positive
from repro.cli import build_parser, main
from repro.ml.forest import RandomForestRegressor
from repro.pipeline.config import PipelineConfig, ServiceConfig
from repro.pipeline.core import Pipeline


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_requires_experiment_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_predict_defaults(self):
        args = build_parser().parse_args(["predict"])
        assert args.vm == "t2.medium"
        assert args.seed == 42
        assert args.datasets == 40


class TestList:
    def test_lists_every_experiment(self):
        code, text = run_cli("list")
        assert code == 0
        for exp_id in ("E-T1", "E-T2", "E-F2", "E-T4", "E-F11", "E-S583"):
            assert exp_id in text

    def test_mentions_how_to_run(self):
        _, text = run_cli("list")
        assert "run <id>" in text


class TestRun:
    def test_unknown_id_fails_cleanly(self):
        code, text = run_cli("run", "E-NOPE")
        assert code == 2
        assert "unknown experiment" in text

    def test_id_is_case_insensitive(self):
        # Table 2 is pure arithmetic — fast enough for a unit test.
        code, text = run_cli("run", "e-t2")
        assert code == 0
        assert "E-T2" in text

    def test_runs_table2_and_prints_table(self):
        code, text = run_cli("run", "E-T2")
        assert code == 0
        # The monitoring-vs-prediction cost rows for 4/6/8 DCs.
        assert "Runtime monitoring" in text or "monitoring" in text.lower()


class TestTopology:
    def test_paper_default_regions(self):
        code, text = run_cli("topology")
        assert code == 0
        assert "8 DCs" in text
        assert "us-east-1" in text
        assert "sa-east-1" in text

    def test_explicit_regions(self):
        code, text = run_cli("topology", "us-east-1", "eu-west-1")
        assert code == 0
        assert "2 DCs" in text
        assert "RTT" in text

    def test_unknown_region_fails_cleanly(self):
        code, text = run_cli("topology", "mars-north-1")
        assert code == 2
        assert "mars-north-1" in text

    def test_unknown_vm_fails_cleanly(self):
        code, text = run_cli("topology", "us-east-1", "--vm", "z9.mega")
        assert code == 2
        assert "z9.mega" in text


class TestPredict:
    def test_small_cluster_end_to_end(self):
        code, text = run_cli(
            "predict",
            "us-east-1",
            "us-west-1",
            "ap-southeast-1",
            "--datasets",
            "6",
            "--estimators",
            "5",
        )
        assert code == 0
        assert "Predicted runtime BWs" in text
        assert "Optimal connection windows" in text
        assert "achievable" in text

    def test_deterministic_given_seed(self):
        argv = (
            "predict",
            "us-east-1",
            "eu-west-1",
            "--datasets",
            "6",
            "--estimators",
            "5",
            "--seed",
            "7",
        )
        _, first = run_cli(*argv)
        _, second = run_cli(*argv)
        assert first == second

    def test_single_region_fails_cleanly(self):
        code, text = run_cli("predict", "us-east-1")
        assert code == 2
        assert text == "predict needs at least 2 regions (no WAN otherwise)\n"


class TestReport:
    def test_report_writes_file(self, tmp_path, monkeypatch):
        # Point the generator at a stub registry so the test stays fast:
        # report generation over all 15 experiments is exercised by the
        # real EXPERIMENTS.md build, not unit tests.
        import repro.experiments.report as report

        class FakeModule:
            __name__ = "repro.experiments.table2"

            @staticmethod
            def run(fast=True):
                return {"value": 1}

            @staticmethod
            def render(results):
                return f"value = {results['value']}"

        monkeypatch.setattr(
            report,
            "EXPERIMENTS",
            [("E-XX", "stub experiment", FakeModule)],
        )
        target = tmp_path / "EXPERIMENTS.md"
        code, text = run_cli("report", "-o", str(target))
        assert code == 0
        assert target.exists()
        content = target.read_text()
        assert "E-XX" in content
        assert "value = 1" in content


class TestServe:
    SMALL = (
        "serve",
        "us-east-1",
        "us-west-1",
        "ap-southeast-1",
        "--jobs",
        "3",
        "--scale-mb",
        "800",
        "--datasets",
        "6",
        "--estimators",
        "5",
    )

    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.scenario == "step-drop"
        assert args.jobs == 6
        assert args.max_concurrent == 3
        assert not args.static

    def test_unknown_scenario_fails_cleanly(self):
        code, text = run_cli("serve", "--scenario", "meteor-strike")
        assert code == 2
        assert "meteor-strike" in text

    def test_unknown_region_fails_cleanly(self):
        code, text = run_cli("serve", "mars-north-1")
        assert code == 2
        assert "mars-north-1" in text

    def test_small_service_end_to_end(self):
        code, text = run_cli(*self.SMALL, "--scenario", "calm")
        assert code == 0
        assert "completed 3 jobs" in text
        assert "wordcount-0" in text
        assert "jobs/sim-hour" in text

    def test_compare_prints_speedup(self):
        code, text = run_cli(
            *self.SMALL, "--scenario", "calm", "--compare"
        )
        assert code == 0
        assert "static plan (no re-planning)" in text
        assert "total-JCT speedup" in text

    def test_deterministic_given_seed(self):
        argv = (*self.SMALL, "--seed", "9")
        _, first = run_cli(*argv)
        _, second = run_cli(*argv)
        assert first == second


class TestSweep:
    def test_dry_run_expands_the_example_matrix(self):
        code, text = run_cli(
            "sweep", "--config", "examples/sweep.toml", "--dry-run"
        )
        assert code == 0
        assert "2×2×2" in text
        assert "8 cells" in text
        assert "gauger=passive-telemetry" in text
        assert "dry run: nothing executed" in text

    def test_missing_config_fails_cleanly(self):
        code, text = run_cli("sweep")
        assert code == 2
        assert "--config" in text

    def test_bad_axis_value_fails_cleanly(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text('[sweep]\ngaugers = ["sonar"]\n')
        code, text = run_cli("sweep", "--config", str(path), "--dry-run")
        assert code == 2
        assert "sonar" in text

    def test_tiny_sweep_writes_reports(self, tmp_path):
        path = tmp_path / "tiny.toml"
        path.write_text(
            'regions = ["us-east-1", "us-west-1"]\n'
            "n_training_datasets = 3\n"
            "n_estimators = 2\n"
            "[sweep]\n"
            'gaugers = ["snapshot", "passive-telemetry"]\n'
            "jobs = 1\n"
            "scale_mb = 300.0\n"
        )
        out_dir = tmp_path / "report"
        code, text = run_cli(
            "sweep", "--config", str(path), "--output", str(out_dir)
        )
        assert code == 0
        assert (out_dir / "sweep.json").exists()
        assert (out_dir / "sweep.md").exists()
        assert "probe_transfers" in text

    def test_schedulers_axis_dry_run(self):
        code, text = run_cli(
            "sweep", "--config", "examples/slo_sweep.toml", "--dry-run"
        )
        assert code == 0
        assert "scheduler=deadline-edf" in text
        assert "scheduler=fair-share" in text

    def test_parallel_workers_match_sequential(self, tmp_path):
        path = tmp_path / "tiny.toml"
        path.write_text(
            'regions = ["us-east-1", "us-west-1"]\n'
            "n_training_datasets = 3\n"
            "n_estimators = 2\n"
            "[sweep]\n"
            'schedulers = ["fifo", "priority"]\n'
            "jobs = 1\n"
            "scale_mb = 300.0\n"
        )
        seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
        code, _ = run_cli("sweep", "--config", str(path), "--output", str(seq_dir))
        assert code == 0
        code, _ = run_cli(
            "sweep", "--config", str(path), "--output", str(par_dir),
            "--jobs", "2",
        )
        assert code == 0
        assert (seq_dir / "sweep.json").read_text() == (
            par_dir / "sweep.json"
        ).read_text()

    def test_bad_worker_count_fails_cleanly(self):
        code, text = run_cli(
            "sweep", "--config", "examples/sweep.toml", "--jobs", "0"
        )
        assert code == 2
        assert "--jobs" in text
        # The check must not be skipped in dry-run mode either.
        code, text = run_cli(
            "sweep", "--config", "examples/sweep.toml", "--jobs", "0",
            "--dry-run",
        )
        assert code == 2
        assert "--jobs" in text


class TestRegisteredNameErrors:
    """Every name an error message advertises must actually resolve."""

    def test_unknown_gauger_fails_cleanly(self):
        code, text = run_cli("serve", "--gauger", "sonar")
        assert code == 2
        assert "unknown gauger" in text

    def test_unknown_predictor_fails_cleanly_in_predict(self):
        code, text = run_cli("predict", "--predictor", "oracle")
        assert code == 2
        assert "unknown predictor" in text

    @staticmethod
    def advertised_names(text: str) -> list[str]:
        known = text.split("known:", 1)[1]
        known = known.split("(")[0]  # drop the "(join with +…)" hint
        return [name.strip() for name in known.split(",") if name.strip()]

    def test_scenario_error_names_all_resolve(self):
        from repro.runtime.scenarios import scenario_known

        _, text = run_cli("serve", "--scenario", "meteor-strike")
        names = self.advertised_names(text)
        assert "diurnal+flash-crowd" in names  # composition is advertised
        for name in names:
            assert scenario_known(name), name

    @pytest.mark.parametrize(
        "flag, registry_name",
        [
            ("--variant", "variant_registry"),
            ("--policy", "policy_registry"),
            ("--gauger", "gauger_registry"),
            ("--predictor", "predictor_registry"),
            ("--planner", "planner_registry"),
            ("--scheduler", "admission_policy_registry"),
        ],
    )
    def test_registry_error_names_all_resolve(self, flag, registry_name):
        import repro.pipeline.registry as registry_module

        registry = getattr(registry_module, registry_name)
        _, text = run_cli("serve", flag, "nope-not-registered")
        names = self.advertised_names(text)
        assert names, text
        for name in names:
            assert name in registry, name


class TestProfiles:
    def test_topology_profile_flag(self):
        code, text = run_cli(
            "topology", "us-east-1", "eu-west-1", "--profile",
            "public-internet",
        )
        assert code == 0
        assert "public-internet" in text

    def test_unknown_profile_fails_cleanly(self):
        code, text = run_cli(
            "topology", "us-east-1", "--profile", "tin-cans"
        )
        assert code == 2
        assert "tin-cans" in text

    def test_public_internet_predicts_lower_bws(self):
        argv = (
            "us-east-1",
            "ap-southeast-1",
            "--datasets",
            "6",
            "--estimators",
            "5",
        )
        _, vpc = run_cli("predict", *argv)
        code, pub = run_cli(
            "predict", *argv, "--profile", "public-internet"
        )
        assert code == 0

        def min_achievable(text: str) -> float:
            line = [l for l in text.splitlines() if "achievable" in l][0]
            return float(line.split("achievable")[1].split()[0])

        assert min_achievable(pub) < min_achievable(vpc)


def outside(check) -> list:
    """Values just outside a field's range: one per end of the range."""
    if isinstance(check, AtLeast):
        return [check.low - 1]
    if isinstance(check, Positive):
        return [0]
    if isinstance(check, Between):
        return [check.low - 1, check.high + 1]
    if isinstance(check, OneOf):
        return ["bogus"]
    raise AssertionError(f"no out-of-range value for {check!r}")


def ranged_rows() -> list:
    """``(command, flag, value, message)`` per out-of-range field value.

    Generated from the config's field metadata: a ``PipelineConfig``
    field goes through ``predict``, a service-only one through
    ``serve``.
    """
    pipeline_fields = {field_.name for field_ in dataclasses.fields(PipelineConfig)}
    hints = typing.get_type_hints(ServiceConfig)
    rows = []
    for field_ in dataclasses.fields(ServiceConfig):
        check = field_.metadata["check"]
        if check is None:
            continue
        command = "predict" if field_.name in pipeline_fields else "serve"
        flag = field_.metadata["cli"] or "--" + field_.name.replace("_", "-")
        # What the flag parses to: the field's type, Optional[X] → X.
        hint = hints[field_.name]
        kind = typing.get_args(hint)[0] if typing.get_args(hint) else hint
        for value in map(kind, outside(check)):
            with pytest.raises(ValueError) as info:
                check(value)
            rows.append(
                pytest.param(
                    command, flag, value, str(info.value), id=f"{field_.name}={value}"
                )
            )
    return rows


class TestBadKnobValues:
    """A rejected knob value exits 2 with one line, never a traceback."""

    REGIONS = ("us-east-1", "us-west-1", "ap-southeast-1")
    SERVE = ("serve", *REGIONS, "--jobs", "1", "--scale-mb", "300")
    PREDICT = ("predict", *REGIONS)
    FAST = ("--datasets", "4", "--estimators", "3")

    # Explicit ids, so deleting a row renames no other.  They are the
    # names pytest numbered these rows with before they had ids.
    @pytest.mark.parametrize(
        "command, flags, message",
        [
            pytest.param(
                "serve",
                ("--slo-deadline-s", "-5"),
                "deadline_s must be positive",
                id="serve-flags0-deadline_s must be positive",
            ),
            pytest.param(
                "serve",
                ("--drift-threshold=-1",),
                "threshold must be positive: -1.0",
                id="serve-flags1-threshold must be positive: -1.0",
            ),
            pytest.param(
                "serve",
                ("--metrics-port", "70000"),
                "port must be in [0, 65535]: 70000",
                id="serve-flags2-port must be in [0, 65535]: 70000",
            ),
            pytest.param(
                "serve",
                ("--metrics-port=-3",),
                "port must be in [0, 65535]: -3",
                id="serve-flags3-port must be in [0, 65535]: -3",
            ),
            pytest.param(
                "serve",
                ("--drift-threshold=0",),
                "threshold must be positive: 0.0",
                id="serve-flags4-threshold must be positive: 0.0",
            ),
            pytest.param(
                "serve",
                ("--slo-deadline-s=nan",),
                "slo_deadline_s must be finite (got nan)",
                id="serve-flags5-slo_deadline_s must be finite (got nan)",
            ),
            pytest.param(
                "predict",
                ("--datasets", "0"),
                "n_datasets must be ≥ 1",
                id="predict-flags6-n_datasets must be ≥ 1",
            ),
            pytest.param(
                "predict",
                ("--max-connections", "0"),
                "max_connections must be ≥ 1",
                id="predict-flags7-max_connections must be ≥ 1",
            ),
            pytest.param(
                "predict",
                ("--estimators", "0"),
                "n_estimators must be ≥ 1",
                id="predict-flags8-n_estimators must be ≥ 1",
            ),
            # Shard counts below 1, in-process and partitioned drain.
            pytest.param(
                "serve",
                ("--scheduler-shards=0",),
                "shard count must be ≥ 1: 0",
                id="serve-flags9-shard count must be ≥ 1: 0",
            ),
            pytest.param(
                "serve",
                ("--scheduler-shards=-3",),
                "shard count must be ≥ 1: -3",
                id="serve-flags10-shard count must be ≥ 1: -3",
            ),
            pytest.param(
                "serve",
                ("--scheduler-shards=0", "--shard-workers", "1"),
                "shard count must be ≥ 1: 0",
                id="serve-flags11-shard count must be ≥ 1: 0",
            ),
            pytest.param(
                "serve",
                ("--scheduler-shards=-3", "--shard-workers", "1"),
                "shard count must be ≥ 1: -3",
                id="serve-flags12-shard count must be ≥ 1: -3",
            ),
        ],
    )
    def test_out_of_range_value_exits_2(self, command, flags, message):
        base = self.SERVE if command == "serve" else self.PREDICT
        code, text = run_cli(*base, *self.FAST, *flags)
        assert code == 2
        assert text.startswith(f"bad configuration: {message}")
        assert text.count("\n") == 1

    @pytest.mark.parametrize("command, flag, value, message", ranged_rows())
    def test_generated_out_of_range_row(self, monkeypatch, command, flag, value, message):
        def train(pipeline):
            raise AssertionError("trained a forest for a rejected config")

        monkeypatch.setattr(Pipeline, "train", train)
        base = self.SERVE if command == "serve" else self.PREDICT
        code, text = run_cli(*base, *self.FAST, f"{flag}={value}")
        assert code == 2
        assert text == f"bad configuration: {message}\n"

    def test_autoscale_ceiling_below_floor_exits_2(self, monkeypatch):
        def train(pipeline):
            raise AssertionError("trained a forest for a rejected config")

        monkeypatch.setattr(Pipeline, "train", train)
        code, text = run_cli(*self.SERVE, *self.FAST, "--autoscale", "--autoscale-max", "1")
        assert code == 2
        assert text == (
            "bad configuration: autoscale_max must be ≥ the concurrency floor (3) "
            "when autoscaling: 1\n"
        )

    def test_bad_shard_count_exits_before_training(self, monkeypatch):
        def train(pipeline):
            raise AssertionError("trained a forest for a rejected config")

        monkeypatch.setattr(Pipeline, "train", train)
        code, text = run_cli(*self.SERVE, *self.FAST, "--scheduler-shards=0")
        assert code == 2
        assert text == "bad configuration: shard count must be ≥ 1: 0\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--drift-threshold=-1",), "threshold must be positive: -1.0"),
        ],
    )
    def test_bad_start_value_exits_before_training(self, monkeypatch, flags, message):
        def train(pipeline):
            raise AssertionError("trained a forest for a rejected config")

        monkeypatch.setattr(Pipeline, "train", train)
        code, text = run_cli(*self.SERVE, *self.FAST, *flags)
        assert code == 2
        assert text == f"bad configuration: {message}\n"

    def test_record_without_observability_exits_before_training(self, monkeypatch, tmp_path):
        def train(pipeline):
            raise AssertionError("trained a forest for a run it cannot record")

        monkeypatch.setattr(Pipeline, "train", train)
        record = tmp_path / "run.json"
        code, text = run_cli(
            *self.SERVE, *self.FAST, "--no-observability", "--record", str(record)
        )
        assert code == 2
        assert text == (
            "cannot record the run: observability is disabled "
            "(--record needs the telemetry warehouse)\n"
        )
        assert not record.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-5"])
    def test_duration_must_be_positive_and_finite(self, value):
        code, text = run_cli(*self.SERVE, *self.FAST, "--duration", value)
        assert code == 2
        assert text == (
            f"--duration must be a positive number of seconds "
            f"(got {float(value)})\n"
        )

    @pytest.mark.parametrize(
        "command, flag, field",
        [
            ("serve", "--drift-threshold", "drift_threshold"),
            ("serve", "--slo-deadline-s", "slo_deadline_s"),
            ("predict", "--min-difference-mbps", "min_difference_mbps"),
        ],
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_flag_rejected(self, command, flag, field, value):
        base = self.SERVE if command == "serve" else self.PREDICT
        # The ``=`` form keeps argparse from reading "-inf" as a flag.
        code, text = run_cli(*base, *self.FAST, f"{flag}={value}")
        assert code == 2
        assert text == (
            f"bad configuration: {field} must be finite (got {float(value)})\n"
        )

    def test_non_finite_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("WANIFY_DRIFT_THRESHOLD", "nan")
        code, text = run_cli(*self.SERVE, *self.FAST)
        assert code == 2
        assert text == "bad configuration: drift_threshold must be finite (got nan)\n"

    def test_non_finite_config_file_value_rejected(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text("min_difference_mbps = inf\n")
        code, text = run_cli(*self.PREDICT, *self.FAST, "--config", str(path))
        assert code == 2
        assert text == (
            "bad configuration: min_difference_mbps must be finite (got inf)\n"
        )


class TestBadSweepValues:
    """A bad value in a sweep or tune file exits 2 before any forest fits."""

    BASE = (
        'regions = ["us-east-1", "us-west-1"]\n'
        "n_training_datasets = 3\n"
        "n_estimators = 2\n"
    )

    @pytest.mark.parametrize("command", ["sweep", "tune"])
    @pytest.mark.parametrize(
        "body, message",
        [
            ("max_concurrent = 0\n", "max_concurrent must be ≥ 1: 0"),
            ('kernel = "bogus"\n', "unknown kernel 'bogus'; known: scalar, vectorized"),
            ("shard_workers = -2\n", "shard workers must be ≥ 0: -2"),
            (
                "max_concurrent = 3\nautoscale_max = 1\n\n[sweep]\nautoscales = [true, false]\n",
                "autoscale_max must be ≥ the concurrency floor (3) when autoscaling: 1",
            ),
        ],
        ids=["max_concurrent", "kernel", "shard_workers", "autoscale_max"],
    )
    def test_bad_value_exits_2(self, tmp_path, monkeypatch, command, body, message):
        def fit(forest, X, y):
            raise AssertionError("fitted a forest for a rejected config")

        monkeypatch.setattr(RandomForestRegressor, "fit", fit)
        path = tmp_path / f"{command}.toml"
        path.write_text(self.BASE + body)
        code, text = run_cli(
            command, "--config", str(path), "--output", str(tmp_path / "out")
        )
        assert code == 2
        assert text == f"bad {command} configuration: {message}\n"
