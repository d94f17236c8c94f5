"""Tests for the GDA execution engine."""

import pytest

from repro.core.globalopt import uniform_plan
from repro.gda.engine.cluster import GeoCluster
from repro.gda.engine.dag import JobSpec, StageSpec
from repro.gda.engine.engine import GdaEngine, JobRun, validate_placement
from repro.gda.systems.vanilla import LocalityPolicy
from repro.net.dynamics import StaticModel
from repro.net.matrix import BandwidthMatrix
from repro.pipeline.deploy import Deployment

TRIAD = ("us-east-1", "us-west-1", "ap-southeast-1")


def make_engine(shuffle_overhead=4.0) -> GdaEngine:
    cluster = GeoCluster.build(TRIAD, "t2.medium", fluctuation=StaticModel())
    return GdaEngine(cluster, shuffle_overhead=shuffle_overhead)


def simple_job(shuffle=True, input_mb=300.0) -> JobSpec:
    stages = [StageSpec("map", 0.1, 1.0)]
    if shuffle:
        stages.append(StageSpec("reduce", 0.1, 0.5, shuffle=True))
    return JobSpec(
        "job", stages, {dc: input_mb / 3 for dc in TRIAD}
    )


class TestExecution:
    def test_compute_only_job_timing(self):
        engine = make_engine()
        result = engine.run(simple_job(shuffle=False), LocalityPolicy())
        # 100 MB per DC × 0.1 cpu-s/MB ÷ 2 slots = 5 s, no WAN.
        assert result.jct_s == pytest.approx(5.0)
        assert result.wan_gb == 0.0
        assert result.network_s == 0.0

    def test_shuffle_moves_cross_dc_data(self):
        engine = make_engine()
        result = engine.run(simple_job(), LocalityPolicy())
        assert result.wan_gb > 0
        assert result.network_s > 0
        reduce_stage = result.stages[1]
        # Uniform placement: 2/3 of 300 MB crosses DCs.
        assert reduce_stage.moved_mb == pytest.approx(200.0, rel=0.01)

    def test_shuffle_overhead_amplifies_wan_bytes(self):
        lean = make_engine(shuffle_overhead=1.0).run(
            simple_job(), LocalityPolicy()
        )
        heavy = make_engine(shuffle_overhead=4.0).run(
            simple_job(), LocalityPolicy()
        )
        assert heavy.wan_gb == pytest.approx(4 * lean.wan_gb, rel=0.01)
        assert heavy.network_s > lean.network_s

    def test_invalid_overhead_rejected(self):
        with pytest.raises(ValueError):
            make_engine(shuffle_overhead=0.5)

    def test_output_ratio_shrinks_downstream(self):
        engine = make_engine()
        job = JobSpec(
            "chain",
            [
                StageSpec("map", 0.01, 0.1),
                StageSpec("reduce", 0.01, 1.0, shuffle=True),
            ],
            {dc: 100.0 for dc in TRIAD},
        )
        result = engine.run(job, LocalityPolicy())
        # Only 30 MB enters the shuffle (×2/3 cross-DC).
        assert result.stages[1].moved_mb == pytest.approx(20.0, rel=0.02)

    def test_cost_includes_all_components(self):
        result = make_engine().run(simple_job(), LocalityPolicy())
        assert result.cost.compute_usd > 0
        assert result.cost.network_usd > 0
        assert result.cost.total_usd > result.cost.compute_usd

    def test_result_metadata(self):
        result = make_engine().run(simple_job(), LocalityPolicy())
        assert result.job_name == "job"
        assert result.system_name == "vanilla-spark"
        assert result.jct_minutes == pytest.approx(result.jct_s / 60.0)

    def test_unknown_input_dc_rejected(self):
        engine = make_engine()
        job = JobSpec(
            "bad", [StageSpec("map", 0.1, 1.0)], {"nowhere-1": 100.0}
        )
        with pytest.raises(KeyError):
            engine.run(job, LocalityPolicy())

    def test_sequential_runs_are_independent(self):
        engine = make_engine()
        first = engine.run(simple_job(), LocalityPolicy())
        second = engine.run(simple_job(), LocalityPolicy())
        assert second.jct_s == pytest.approx(first.jct_s, rel=0.05)
        assert second.wan_gb == pytest.approx(first.wan_gb, rel=0.01)


class TestTransferBatch:
    def test_done_removes_its_own_transfer(self):
        """Two transfers with equal fields in one batch: each one's
        completion removes that object, not the first equal one."""
        cluster = GeoCluster.build(TRIAD, "t2.medium", fluctuation=StaticModel())
        run = JobRun(cluster, simple_job(), LocalityPolicy())
        finished = []
        run._launch(
            [("us-east-1", "us-west-1", 50.0)] * 2,
            "shuffle",
            lambda: finished.append(cluster.network.sim.now),
        )
        first, second = run._inflight
        assert first is not second
        second.on_complete(second)
        assert len(run._inflight) == 1 and run._inflight[0] is first
        first.on_complete(first)
        assert run._inflight == [] and len(finished) == 1


class TestDeploymentLifecycle:
    def test_failed_run_tears_down_its_deployment(self):
        """A run that raises after install leaves no agent running to
        perturb the cluster's later runs."""
        engine = make_engine()
        plan = uniform_plan(BandwidthMatrix.full(TRIAD, 100.0), 4)
        deployment = Deployment(
            "wanify-tc", plan, agents=True, throttling=True
        )
        bad = JobSpec(
            "bad", [StageSpec("map", 0.1, 1.0)], {"nowhere-1": 100.0}
        )
        with pytest.raises(KeyError):
            engine.run(bad, LocalityPolicy(), deployment=deployment)
        assert deployment.agents_running == []
        assert len(deployment.retired_agents) == len(TRIAD)
        after = engine.run(simple_job(), LocalityPolicy())
        fresh = make_engine().run(simple_job(), LocalityPolicy())
        assert after == fresh


class TestMigration:
    def test_policy_migration_executes(self):
        class MigratingPolicy(LocalityPolicy):
            name = "migrator"

            def plan_migration(self, data, bw, cluster, shuffle_mb=0.0):
                return [("ap-southeast-1", "us-east-1", 50.0)]

        engine = make_engine()
        result = engine.run(simple_job(), MigratingPolicy())
        assert result.migration_mb == pytest.approx(50.0)
        assert result.migration_s > 0


class TestPlacementValidation:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            validate_placement({"a": 0.5}, ("a", "b"))

    def test_unknown_dc_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            validate_placement({"z": 1.0}, ("a", "b"))

    def test_negative_fraction_rejected(self):
        with pytest.raises(ValueError, match="sum|negative"):
            validate_placement({"a": 1.5, "b": -0.5}, ("a", "b"))
