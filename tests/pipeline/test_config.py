"""Tests for the layered config system and generated CLI arguments."""

import argparse
import dataclasses
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from repro import checks
from repro.cli import main
from repro.pipeline.config import (
    ConfigArguments,
    PipelineConfig,
    ServiceConfig,
    env_overrides,
    layered_config,
    load_config_file,
)
from repro.pipeline.core import Pipeline

ROOT = Path(__file__).resolve().parents[2]


class TestDefaults:
    def test_pipeline_defaults_follow_paper(self):
        config = PipelineConfig()
        assert config.max_connections == 8
        assert config.n_training_datasets == 120
        assert config.n_estimators == 100
        assert config.variant == "wanify-tc"
        assert config.policy == "tetrium"

    def test_service_extends_pipeline(self):
        config = ServiceConfig()
        assert isinstance(config, PipelineConfig)
        assert config.seed == 42  # service override of the base default
        assert config.n_training_datasets == 24
        assert config.max_concurrent == 3

    def test_service_mirrors_drift_defaults(self):
        # The config layer duplicates these to stay import-light; keep
        # them honest against the source of truth.
        from repro.runtime import drift

        config = ServiceConfig()
        assert config.drift_threshold == drift.DEFAULT_THRESHOLD
        assert config.cooldown_s == drift.DEFAULT_COOLDOWN_S

    def test_frozen(self):
        with pytest.raises(Exception):
            PipelineConfig().seed = 99


class TestFileLayer:
    def test_toml_file(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text('seed = 7\nvariant = "wanify-p"\n')
        config = layered_config(PipelineConfig, path=path, environ={})
        assert config.seed == 7
        assert config.variant == "wanify-p"

    def test_json_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"n_estimators": 5}))
        config = layered_config(PipelineConfig, path=path, environ={})
        assert config.n_estimators == 5

    def test_unknown_keys_ignored(self, tmp_path):
        # One file can feed entry points with different config classes.
        path = tmp_path / "run.toml"
        path.write_text('seed = 7\nmax_concurrent = 9\n')
        config = layered_config(PipelineConfig, path=path, environ={})
        assert config.seed == 7
        assert not hasattr(config, "max_concurrent")
        service = layered_config(ServiceConfig, path=path, environ={})
        assert service.max_concurrent == 9

    def test_non_table_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="table"):
            load_config_file(path)


class TestEnvLayer:
    def test_env_coercion(self):
        env = {
            "WANIFY_SEED": "5",
            "WANIFY_GOVERNOR": "off",
            "WANIFY_METRICS_PORT": "3",
            "WANIFY_SCENARIO": "diurnal",
            "WANIFY_UNRELATED": "ignored",
        }
        found = env_overrides(ServiceConfig, env)
        assert found == {
            "seed": 5,
            "governor": False,
            "metrics_port": 3,
            "scenario": "diurnal",
        }

    def test_cli_alias_spelling_accepted(self):
        # --datasets is the flag, so WANIFY_DATASETS must work too.
        found = env_overrides(ServiceConfig, {"WANIFY_DATASETS": "99"})
        assert found == {"n_training_datasets": 99}

    def test_field_name_wins_over_alias(self):
        found = env_overrides(
            ServiceConfig,
            {"WANIFY_DATASETS": "99", "WANIFY_N_TRAINING_DATASETS": "7"},
        )
        assert found == {"n_training_datasets": 7}

    def test_optional_none_spelling(self):
        found = env_overrides(
            ServiceConfig, {"WANIFY_METRICS_PORT": "none"}
        )
        assert found == {"metrics_port": None}

    def test_removed_knob_spelling_is_ignored(self):
        # Constants now; an old environment still starts the service.
        env = {
            "WANIFY_EPOCH_S": "2",
            "WANIFY_MAX_REPLANS": "3",
            "WANIFY_THROTTLING": "off",
            "WANIFY_ADMIT_BATCH": "4",
        }
        assert env_overrides(ServiceConfig, env) == {}

    def test_bad_bool_rejected(self):
        with pytest.raises(ValueError, match="boolean"):
            env_overrides(ServiceConfig, {"WANIFY_GOVERNOR": "maybe"})


class TestPrecedence:
    def test_file_env_override_order(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text("seed = 1\nn_estimators = 11\n")
        config = layered_config(
            PipelineConfig,
            path=path,
            environ={"WANIFY_SEED": "2"},
            overrides={},
            defaults={"seed": 0, "n_training_datasets": 33},
        )
        # file beats defaults; env beats file; untouched = defaults.
        assert config.seed == 2
        assert config.n_estimators == 11
        assert config.n_training_datasets == 33

    def test_explicit_overrides_win(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text("seed = 1\n")
        config = layered_config(
            PipelineConfig,
            path=path,
            environ={"WANIFY_SEED": "2"},
            overrides={"seed": 3},
        )
        assert config.seed == 3


class TestConfigArguments:
    def _parser(self, config_args):
        parser = argparse.ArgumentParser()
        config_args.install(parser)
        return parser

    def test_flags_generated_from_fields(self):
        config_args = ConfigArguments(ServiceConfig)
        parser = self._parser(config_args)
        args = parser.parse_args([])
        # flag-derived namespace attributes, dataclass defaults.
        assert args.datasets == 24
        assert args.max_concurrent == 3
        assert args.vm == "t2.medium"
        assert args.policy == "tetrium"
        assert args.variant == "wanify-tc"
        assert args.config_file is None

    def test_cli_false_fields_have_no_flags(self):
        config_args = ConfigArguments(ServiceConfig)
        parser = self._parser(config_args)
        with pytest.raises(SystemExit):
            parser.parse_args(["--regions", "x"])
        with pytest.raises(SystemExit):
            parser.parse_args(["--online"])

    def test_bool_fields_get_no_variant(self):
        config_args = ConfigArguments(ServiceConfig)
        parser = self._parser(config_args)
        assert parser.parse_args(["--no-governor"]).governor is False
        assert parser.parse_args(["--governor"]).governor is True

    def test_explicit_detects_only_typed_flags(self):
        config_args = ConfigArguments(
            ServiceConfig, defaults={"scenario": "step-drop"}
        )
        explicit = config_args.explicit(
            ["serve", "us-east-1", "--seed", "9", "--no-governor"]
        )
        assert explicit == {"seed": 9, "governor": False}

    def test_resolve_layers_file_env_cli(self, tmp_path):
        path = tmp_path / "svc.toml"
        path.write_text(
            'seed = 1\nvm = "t3.large"\nmax_concurrent = 7\n'
        )
        config_args = ConfigArguments(ServiceConfig)
        parser = self._parser(config_args)
        argv = ["--config", str(path), "--seed", "9"]
        args = parser.parse_args(argv)
        args._argv = argv
        config = config_args.resolve(
            args,
            environ={"WANIFY_VM": "t2.nano"},
            regions=("a", "b"),
        )
        assert config.seed == 9  # explicit CLI beats file
        assert config.vm == "t2.nano"  # env beats file
        assert config.max_concurrent == 7  # file beats defaults
        assert config.regions == ("a", "b")  # extra override

    def test_resolve_without_argv_uses_changed_values(self):
        config_args = ConfigArguments(
            PipelineConfig, defaults={"seed": 42}
        )
        parser = self._parser(config_args)
        args = parser.parse_args(["--estimators", "9"])
        config = config_args.resolve(args, environ={})
        assert config.n_estimators == 9
        assert config.seed == 42


class TestValueChecks:
    """A config checks its own values when it is built, however it is built."""

    @staticmethod
    def serve_says(*flags: str) -> str:
        out = io.StringIO()
        code = main(["serve", "us-east-1", "us-west-1", *flags], out=out)
        assert code == 2
        return out.getvalue()

    def test_ranged_fields(self):
        ranged = {
            field_.name
            for field_ in dataclasses.fields(ServiceConfig)
            if field_.metadata["check"] is not None
        }
        assert ranged == {
            "max_connections",
            "min_difference_mbps",
            "n_training_datasets",
            "n_estimators",
            "max_concurrent",
            "scheduler_shards",
            "shard_workers",
            "kernel",
            "slo_deadline_s",
            "drift_threshold",
            "metrics_port",
        }

    def test_keyword_value_raises_the_cli_text(self):
        with pytest.raises(ValueError) as info:
            ServiceConfig(max_concurrent=0)
        assert str(info.value) == "max_concurrent must be ≥ 1: 0"
        assert self.serve_says("--max-concurrent", "0") == f"bad configuration: {info.value}\n"

    def test_replace_checks_too(self):
        with pytest.raises(ValueError) as info:
            dataclasses.replace(ServiceConfig(), drift_threshold=float("nan"))
        assert str(info.value) == "drift_threshold must be finite (got nan)"
        assert self.serve_says("--drift-threshold=nan") == f"bad configuration: {info.value}\n"

    @pytest.mark.parametrize(
        "name",
        sorted(
            name
            for name, rule in vars(checks).items()
            if isinstance(rule, (checks.AtLeast, checks.Positive))
        ),
    )
    def test_rule_refuses_nan(self, name):
        rule = getattr(checks, name)
        bound = f"≥ {rule.low}" if isinstance(rule, checks.AtLeast) else "positive"
        with pytest.raises(ValueError) as info:
            rule(float("nan"))
        assert str(info.value) == f"{rule.what} must be {bound}: nan"
        low = rule.low if isinstance(rule, checks.AtLeast) else 1e-300
        for value in (low, low + 0.5, float("inf")):
            rule(value)

    def test_constructors_refuse_nan(self):
        from repro.runtime.scheduling.slo import SLO
        from repro.sim.kernel import Process, Simulator

        with pytest.raises(ValueError, match="^deadline_s must be positive: nan$"):
            SLO(deadline_s=float("nan"))
        with pytest.raises(ValueError, match="^interval must be positive: nan$"):
            Process(Simulator(), float("nan"), lambda now: None)
        with pytest.raises(ValueError, match="^threshold must be positive: nan$"):
            checks.check_threshold(float("nan"))

    @pytest.mark.parametrize("port", [70000, -3])
    def test_metrics_port_outside_the_port_range(self, port):
        from repro.runtime.observability.prometheus import MetricsEndpoint

        with pytest.raises(ValueError) as info:
            ServiceConfig(metrics_port=port)
        assert str(info.value) == f"port must be in [0, 65535]: {port}"
        assert self.serve_says(f"--metrics-port={port}") == f"bad configuration: {info.value}\n"
        with pytest.raises(ValueError, match=rf"^port must be in \[0, 65535\]: {port}$"):
            MetricsEndpoint(str, port=port)

    def test_metrics_port_range_ends_are_valid(self):
        for port in (0, 65535):
            assert ServiceConfig(metrics_port=port).metrics_port == port
        with pytest.raises(ValueError, match=r"^port must be in \[0, 65535\]: nan$"):
            checks.check_port(float("nan"))

    def test_pipeline_config_checks_its_fields(self):
        with pytest.raises(ValueError, match="n_estimators must be ≥ 1: 0"):
            PipelineConfig(n_estimators=0)

    def test_unset_optional_value_is_not_checked(self):
        assert ServiceConfig(slo_deadline_s=None).slo_deadline_s is None

    def test_autoscale_rule_only_when_autoscaling(self):
        assert ServiceConfig(autoscale_max=1).autoscale_max == 1
        with pytest.raises(ValueError, match="when autoscaling: 1"):
            ServiceConfig(autoscale=True, autoscale_max=1)

    def test_service_build_refuses_before_training(self, monkeypatch):
        from repro.runtime.service import PipelineService

        def train(pipeline):
            raise AssertionError("trained a forest for a rejected config")

        monkeypatch.setattr(Pipeline, "train", train)
        with pytest.raises(ValueError, match="autoscale_max must be ≥ the concurrency floor"):
            PipelineService.build(ServiceConfig(autoscale=True, autoscale_max=1))

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("max_concurrent", [1, 2, 3, 5])
    def test_autoscale_floor_is_the_schedulers_bound(self, shards, max_concurrent):
        from repro.runtime.scheduling.shards import split_concurrency

        # The bound the autoscaler starts from: every shard keeps a slot.
        floor = sum(split_concurrency(max_concurrent, shards))
        knobs = dict(autoscale=True, scheduler_shards=shards, max_concurrent=max_concurrent)
        assert ServiceConfig(**knobs, autoscale_max=floor).autoscale_max == floor
        with pytest.raises(ValueError, match=rf"floor \({floor}\) when autoscaling: {floor - 1}$"):
            ServiceConfig(**knobs, autoscale_max=floor - 1)

    @pytest.mark.parametrize(
        "path", sorted((ROOT / "examples").glob("*.toml")), ids=lambda p: p.name
    )
    def test_example_files_construct(self, path):
        from repro.tuner.search import load_tune

        # Loading builds every cell's config.
        assert load_tune(path).sweep.cells

    def test_benchmark_workload_configs_construct(self, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        # Registered while it executes: its dataclasses look their module up.
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        for workload in module.WORKLOADS.values():
            for seed in (1, 2, 3):
                assert isinstance(workload.config(seed), PipelineConfig)
