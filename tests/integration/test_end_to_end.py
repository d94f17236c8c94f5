"""Integration tests: full WANify pipeline on live GDA queries.

These exercise the whole stack — training, snapshot prediction, global
optimization, agents with AIMD + throttling, the execution engine with
Tetrium/Kimchi placement — on a reduced topology so they stay fast.
"""

import pytest

from repro.gda.engine.cluster import GeoCluster
from repro.gda.engine.engine import GdaEngine
from repro.gda.engine.hdfs import HdfsStore
from repro.gda.systems.kimchi import KimchiPolicy
from repro.gda.systems.tetrium import TetriumPolicy
from repro.gda.systems.vanilla import LocalityPolicy
from repro.gda.workloads.terasort import terasort_job
from repro.gda.workloads.tpcds import tpcds_job
from repro.net.dynamics import FluctuationModel
from repro.net.measurement import measure_independent
from repro.net.topology import Topology
from repro.pipeline import Pipeline, PipelineConfig

REGIONS = ("us-east-1", "us-west-1", "eu-west-1", "ap-southeast-1")


@pytest.fixture(scope="module")
def stack():
    weather = FluctuationModel(seed=77)
    topology = Topology.build(REGIONS, "t2.medium")
    wanify = Pipeline(
        topology,
        weather,
        PipelineConfig(n_training_datasets=15, n_estimators=10),
    )
    wanify.train()
    return topology, weather, wanify


def run_job(weather, job, policy, bw=None, deployment=None):
    cluster = GeoCluster.build(
        REGIONS, "t2.medium", fluctuation=weather, time_offset=1000.0
    )
    return GdaEngine(cluster).run(
        job, policy, decision_bw=bw, deployment=deployment
    )


class TestWanifyOnTerasort:
    def test_wanify_tc_beats_vanilla(self, stack):
        _, weather, wanify = stack
        store = HdfsStore.uniform(REGIONS, 20 * 1024.0)
        job = terasort_job(store.data_by_dc())
        predicted = wanify.predict(at_time=1000.0)

        vanilla = run_job(weather, job, LocalityPolicy())
        enabled = run_job(
            weather, job, LocalityPolicy(),
            deployment=wanify.deployment("wanify-tc", bw=predicted),
        )
        assert enabled.jct_s < vanilla.jct_s
        assert enabled.min_bw_mbps > vanilla.min_bw_mbps

    def test_uniform_parallelism_does_not_lift_min_bw(self, stack):
        _, weather, wanify = stack
        store = HdfsStore.uniform(REGIONS, 20 * 1024.0)
        job = terasort_job(store.data_by_dc())
        predicted = wanify.predict(at_time=1000.0)

        vanilla = run_job(weather, job, LocalityPolicy())
        uniform = run_job(
            weather, job, LocalityPolicy(),
            deployment=wanify.deployment("wanify-p", bw=predicted),
        )
        assert uniform.min_bw_mbps <= vanilla.min_bw_mbps * 1.3


class TestGdaSystems:
    @pytest.mark.parametrize("policy_cls", [TetriumPolicy, KimchiPolicy])
    def test_systems_run_tpcds_with_any_bw_source(self, stack, policy_cls):
        topology, weather, wanify = stack
        store = HdfsStore.uniform(REGIONS, 10 * 1024.0)
        job = tpcds_job(78, store.data_by_dc())
        static = measure_independent(topology, weather, at_time=0.0).matrix
        predicted = wanify.predict(at_time=1000.0)

        with_static = run_job(weather, job, policy_cls(), bw=static)
        with_predicted = run_job(weather, job, policy_cls(), bw=predicted)
        assert with_static.jct_s > 0
        assert with_predicted.jct_s > 0
        # Both runs complete the same logical work.
        assert with_predicted.stages[-1].name == with_static.stages[-1].name

    def test_deployment_reusable_across_runs(self, stack):
        _, weather, wanify = stack
        store = HdfsStore.uniform(REGIONS, 5 * 1024.0)
        job = tpcds_job(95, store.data_by_dc())
        predicted = wanify.predict(at_time=1000.0)
        for _ in range(2):
            deployment = wanify.deployment("wanify-tc", bw=predicted)
            result = run_job(
                weather, job, TetriumPolicy(), bw=predicted,
                deployment=deployment,
            )
            assert result.jct_s > 0
            assert deployment.agents_running == []


class TestPredictionQuality:
    def test_predicted_beats_static_against_runtime(self, stack):
        topology, weather, wanify = stack
        from repro.net.measurement import stable_runtime

        at = 3000.0
        static = measure_independent(topology, weather, at_time=0.0).matrix
        predicted = wanify.predict(at_time=at)
        actual = stable_runtime(topology, weather, at_time=at).matrix
        static_misses = len(static.significant_differences(actual))
        predicted_misses = len(predicted.significant_differences(actual))
        assert predicted_misses <= static_misses
