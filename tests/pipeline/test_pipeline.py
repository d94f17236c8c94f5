"""Tests for the composed Pipeline and registry extensions."""

import io

import pytest

from repro.core.globalopt import uniform_plan
from repro.net.dynamics import FluctuationModel
from repro.net.simulator import NetworkSimulator
from repro.pipeline import (
    Deployment,
    Pipeline,
    PipelineConfig,
    register_variant,
    variant_registry,
)
from repro.pipeline.variants import VariantStrategy

REGIONS = ("us-east-1", "us-west-1", "ap-southeast-1")


@pytest.fixture(scope="module")
def trained():
    from repro.net.topology import Topology

    topology = Topology.build(REGIONS, "t2.medium")
    pipeline = Pipeline(
        topology,
        FluctuationModel(seed=9),
        PipelineConfig(n_training_datasets=12, n_estimators=8),
    )
    pipeline.train()
    return topology, pipeline


class TestPipeline:
    def test_train_predict_plan(self, trained):
        topology, pipeline = trained
        assert pipeline.is_trained
        bw = pipeline.predict(at_time=500.0)
        assert bw.keys == topology.keys
        plan = pipeline.plan(bw)
        assert plan.max_bw.min_bw() > 0

    def test_predict_before_training_raises(self, triad):
        pipeline = Pipeline(triad)
        with pytest.raises(RuntimeError, match="train"):
            pipeline.predict()

    def test_deployment_defaults_to_config_variant(self, trained):
        _, pipeline = trained
        deployment = pipeline.deployment(at_time=500.0)
        assert deployment.variant == pipeline.config.variant == "wanify-tc"
        assert deployment.agents and deployment.throttling

    def test_unknown_variant_rejected(self, trained):
        _, pipeline = trained
        with pytest.raises(ValueError, match="unknown variant"):
            pipeline.deployment("wanify-max")

    def test_agent_knobs_forwarded_through_build(self, trained):
        # The service's telemetry sink reaches the strategy at build
        # time (not patched on afterwards), so custom variants see it
        # too.
        topology, pipeline = trained
        samples = []

        def sink(dc, time, rates):
            samples.append((dc, time, rates))

        deployment = pipeline.deployment("wanify-tc", at_time=500.0, telemetry=sink)
        assert deployment.telemetry is sink
        # One monitor tick calls the sink with the monitor's arguments,
        # once per DC.
        network = NetworkSimulator(topology, fluctuation=pipeline.weather)
        deployment.install(network)
        network.start_transfer("us-east-1", "us-west-1", 1e6)
        network.sim.run(until=5.0)
        deployment.teardown(network)
        assert sorted(dc for dc, _, _ in samples) == sorted(topology.keys)
        assert {time for _, time, _ in samples} == {5.0}
        east = next(rates for dc, _, rates in samples if dc == "us-east-1")
        assert east["us-west-1"] > 0.0

    def test_fresh_config_per_instance(self, triad):
        # A default config shared across constructions would alias any
        # mutable field's state between pipelines.
        a, b = Pipeline(triad), Pipeline(triad)
        assert a.config == b.config
        assert a.config is not b.config


class TestCustomStages:
    def test_custom_planner_plugs_in(self, trained):
        topology, pipeline = trained

        class UniformPlanner:
            def plan(self, bw, config, skew_weights=None, rvec=None):
                return uniform_plan(bw, config.max_connections)

        custom = Pipeline(
            topology,
            pipeline.weather,
            pipeline.config,
            predictor=pipeline.predictor,  # reuse trained stage
            planner=UniformPlanner(),
        )
        bw = custom.predict(at_time=500.0)
        plan = custom.plan(bw)
        counts = {
            plan.max_connections.get(a, b)
            for a in topology.keys
            for b in topology.keys
            if a != b
        }
        assert counts == {float(custom.config.max_connections)}

    def test_custom_gauger_plugs_in(self, trained):
        topology, pipeline = trained
        calls = []

        class RecordingGauger:
            def gauge(self, topo, weather, at_time):
                calls.append(at_time)
                from repro.net.measurement import snapshot

                return snapshot(topo, weather, at_time)

        custom = Pipeline(
            topology,
            pipeline.weather,
            pipeline.config,
            gauger=RecordingGauger(),
            predictor=pipeline.predictor,
        )
        custom.predict(at_time=321.0)
        assert calls == [321.0]


class TestCustomVariant:
    def test_builtin_variants_registered(self):
        assert set(variant_registry.names()) >= {
            "single",
            "wanify-p",
            "wanify-dynamic",
            "wanify-tc",
            "global-only",
            "local-only",
        }

    def test_variant_registered_from_test_code(self, trained):
        topology, pipeline = trained

        @register_variant()
        class HalfUniform(VariantStrategy):
            name = "half-uniform"

            def deployment(self, pipeline, bw, skew_weights, rvec):
                plan = uniform_plan(
                    bw, max(1, pipeline.config.max_connections // 2)
                )
                return Deployment(
                    self.name, plan, agents=False, throttling=False
                )

        try:
            deployment = pipeline.deployment("half-uniform", at_time=500.0)
            net = NetworkSimulator(topology)
            deployment.install(net)
            half = max(1, pipeline.config.max_connections // 2)
            assert net.connections(REGIONS[0], REGIONS[1]) == half
            deployment.teardown(net)
        finally:
            variant_registry.unregister("half-uniform")
        with pytest.raises(ValueError, match="unknown variant"):
            pipeline.deployment("half-uniform")


class TestTeardownScoping:
    def test_teardown_clears_only_own_pairs(self, trained):
        topology, pipeline = trained
        net = NetworkSimulator(topology)
        # A different deployment's throttle on the shared substrate.
        net.tc.set_limit("other-job-src", "other-job-dst", 123.0)
        deployment = pipeline.deployment("wanify-tc", at_time=500.0)
        deployment.install(net)
        deployment.teardown(net)
        remaining = net.tc.limits()
        assert remaining == {("other-job-src", "other-job-dst"): 123.0}

    def test_planless_teardown_touches_nothing(self, trained):
        _, pipeline = trained
        from repro.net.topology import Topology

        net = NetworkSimulator(Topology.build(REGIONS, "t2.medium"))
        net.tc.set_limit("a", "b", 50.0)
        deployment = pipeline.deployment("single")
        deployment.install(net)
        deployment.teardown(net)
        assert net.tc.limits() == {("a", "b"): 50.0}


class TestComposedScenarioServe:
    SMALL = (
        "serve",
        "us-east-1",
        "us-west-1",
        "ap-southeast-1",
        "--jobs",
        "2",
        "--scale-mb",
        "600",
        "--datasets",
        "6",
        "--estimators",
        "5",
    )

    def run_cli(self, *argv):
        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_composed_scenario_end_to_end(self):
        code, text = self.run_cli(
            *self.SMALL, "--scenario", "diurnal+flash-crowd"
        )
        assert code == 0
        assert "scenario 'diurnal+flash-crowd'" in text
        assert "completed 2 jobs" in text

    def test_composed_scenario_unknown_part_fails_cleanly(self):
        code, text = self.run_cli(
            *self.SMALL, "--scenario", "diurnal+meteor-strike"
        )
        assert code == 2
        assert "unknown scenario" in text

    def test_policy_and_variant_flags(self):
        code, text = self.run_cli(
            *self.SMALL,
            "--scenario",
            "calm",
            "--policy",
            "kimchi",
            "--variant",
            "wanify-dynamic",
        )
        assert code == 0
        assert "kimchi" in text

    def test_unknown_policy_fails_cleanly(self):
        code, text = self.run_cli(*self.SMALL, "--policy", "chaos")
        assert code == 2
        assert "unknown placement policy" in text

    def test_config_file_reaches_serve(self, tmp_path):
        path = tmp_path / "svc.toml"
        path.write_text('scenario = "meteor-strike"\n')
        code, text = self.run_cli(*self.SMALL, "--config", str(path))
        assert code == 2
        assert "meteor-strike" in text

    def test_env_var_reaches_serve(self, monkeypatch):
        monkeypatch.setenv("WANIFY_SCENARIO", "asteroid")
        code, text = self.run_cli(*self.SMALL)
        assert code == 2
        assert "asteroid" in text

    def test_online_knob_from_env_honored(self, monkeypatch):
        # WANIFY_ONLINE=false freezes the plan unless --static/-less
        # CLI explicitly decides; the header proves the layer won.
        monkeypatch.setenv("WANIFY_ONLINE", "false")
        code, text = self.run_cli(*self.SMALL, "--scenario", "calm")
        assert code == 0
        assert "static plan" in text
        assert "re-plans 0" in text

    def test_regions_from_config_file_honored(self, tmp_path):
        # No positional regions typed → the file layer decides; the
        # unknown region proves the value reached validation.
        path = tmp_path / "svc.toml"
        path.write_text('regions = ["mars-north-1", "us-east-1"]\n')
        code, text = self.run_cli("serve", "--config", str(path))
        assert code == 2
        assert "mars-north-1" in text

    def test_missing_config_file_fails_cleanly(self):
        code, text = self.run_cli(
            "serve", "--config", "/no/such/file.toml"
        )
        assert code == 2
        assert "bad configuration" in text

    def test_bad_env_value_fails_cleanly(self, monkeypatch):
        monkeypatch.setenv("WANIFY_GOVERNOR", "maybe")
        code, text = self.run_cli(*self.SMALL)
        assert code == 2
        assert "bad configuration" in text

    def test_predict_rejects_dead_flags(self):
        # predict stops at the plan; --variant/--policy would be
        # accepted-but-ignored, so they are not generated for it.
        import pytest as _pytest

        with _pytest.raises(SystemExit):
            from repro.cli import build_parser

            build_parser().parse_args(["predict", "--variant", "x"])


class TestComposedScenarioModel:
    def test_shapes_multiply_over_one_base(self):
        from repro.net.dynamics import StaticModel
        from repro.runtime.scenarios import (
            ComposedScenario,
            scenario,
        )

        model = scenario("step-drop+step-drop", seed=4, base=StaticModel())
        assert isinstance(model, ComposedScenario)
        assert model.name == "step-drop+step-drop"
        # Before the step: no effect; after: level² (shapes multiply,
        # the static base contributes exactly once).
        assert model.factor(0, 1, 0.0) == pytest.approx(1.0)
        assert model.factor(0, 1, 10_000.0) == pytest.approx(0.55**2)

    def test_custom_scenario_model_registered_from_test_code(self):
        from dataclasses import dataclass as dc

        from repro.pipeline.registry import scenario_registry
        from repro.runtime.scenarios import (
            ScenarioModel,
            register_scenario_model,
            scenario,
        )

        @dc(frozen=True)
        class MeteorStrike(ScenarioModel):
            name: str = "meteor-strike"

            def shape(self, i, j, t):
                return 0.5 if t >= 100.0 else 1.0

        register_scenario_model(MeteorStrike)
        try:
            model = scenario("meteor-strike+step-drop", seed=2)
            base = model.base
            expected = base.factor(0, 1, 50_000.0) * 0.5 * 0.55
            assert model.factor(0, 1, 50_000.0) == pytest.approx(
                max(expected, 0.02)
            )
        finally:
            scenario_registry.unregister("meteor-strike")


class TestMinDifference:
    """``min_difference_mbps`` (Eq. 3's tolerance) shapes the plan."""

    KEYS = ("us-east-1", "us-west-1", "eu-west-1", "ap-southeast-1")
    BW = [[0, 900, 420, 150], [880, 0, 380, 160], [430, 390, 0, 610], [140, 170, 600, 0]]

    @pytest.mark.parametrize(
        "tolerance, row",
        [(0.0, [1, 2, 5, 8]), (100.0, [1, 4, 7, 8]), (1000.0, [1, 8, 8, 8])],
    )
    def test_tolerance_moves_the_window(self, tolerance, row):
        import numpy as np

        from repro.net.matrix import BandwidthMatrix
        from repro.net.topology import Topology

        bw = BandwidthMatrix(self.KEYS, np.array(self.BW, dtype=float))
        config = PipelineConfig(min_difference_mbps=tolerance)
        plan = Pipeline(Topology.build(self.KEYS), config=config).plan(bw)
        assert plan.max_connections.values[0].tolist() == row
