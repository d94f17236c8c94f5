"""Failure injection: brownouts, degenerate matrices, dead links.

The production question behind each test: does the pipeline degrade
gracefully when the network (or the caller) misbehaves, or does it
crash / wedge / emit garbage?
"""

import numpy as np
import pytest

from repro.core.globalopt import optimize_connections
from repro.gda.engine.cluster import GeoCluster
from repro.gda.engine.dag import JobSpec, StageSpec
from repro.gda.engine.engine import GdaEngine
from repro.gda.systems.base import PlacementPolicy
from repro.gda.systems.tetrium import TetriumPolicy
from repro.gda.workloads.terasort import terasort_job
from repro.gda.workloads.wordcount import wordcount_job
from repro.net.dynamics import FluctuationModel, StaticModel
from repro.net.matrix import BandwidthMatrix
from repro.net.topology import Topology
from repro.pipeline import Pipeline, PipelineConfig

TRIAD = ("us-east-1", "us-west-1", "ap-southeast-1")


class TestBrownout:
    """Violent network weather: capacity repeatedly collapses to the
    fluctuation floor."""

    @pytest.fixture
    def stormy(self):
        return FluctuationModel(seed=66, sigma=0.9, floor=0.05, ceiling=1.2)

    def test_full_deployment_completes_under_storm(self, stormy):
        topology = Topology.build(TRIAD, "t2.medium")
        wanify = Pipeline(
            topology,
            stormy,
            PipelineConfig(n_training_datasets=8, n_estimators=6),
        )
        wanify.train()
        cluster = GeoCluster.from_topology(topology, fluctuation=stormy)
        job = terasort_job({dc: 300.0 for dc in TRIAD})
        predicted = wanify.predict(at_time=3600.0)
        deployment = wanify.deployment("wanify-tc", predicted)
        result = GdaEngine(cluster).run(
            job, TetriumPolicy(), predicted, deployment
        )
        assert result.jct_s > 0
        assert not deployment.agents_running  # torn down

    def test_agents_back_off_when_capacity_collapses(self, stormy):
        """Under a storm the AIMD agents must spend epochs in decrease
        mode rather than pinning the optimistic maximum."""
        topology = Topology.build(TRIAD, "t2.medium")
        wanify = Pipeline(
            topology,
            stormy,
            PipelineConfig(n_training_datasets=8, n_estimators=6),
        )
        wanify.train()
        cluster = GeoCluster.from_topology(topology, fluctuation=stormy)
        job = terasort_job({dc: 1500.0 for dc in TRIAD})
        predicted = wanify.predict(at_time=0.0)
        deployment = wanify.deployment("wanify-dynamic", predicted)
        GdaEngine(cluster).run(job, TetriumPolicy(), predicted, deployment)
        modes = [
            rec.mode
            for agent in deployment.retired_agents
            for rec in agent.optimizer.history
        ]
        assert "decrease" in modes


class TestDegenerateMatrices:
    def test_all_equal_bw_plan_is_well_formed(self):
        bw = BandwidthMatrix.full(TRIAD, 500.0)
        plan = optimize_connections(bw)
        lo = plan.min_connections.values
        hi = plan.max_connections.values
        assert (lo <= hi).all()
        assert (np.diag(lo) == 1).all()
        assert (np.diag(hi) == 1).all()
        assert (plan.min_connections.off_diagonal() >= 1).all()

    def test_zero_bw_matrix_does_not_crash_the_optimizer(self):
        bw = BandwidthMatrix.zeros(TRIAD)
        plan = optimize_connections(bw)
        assert (plan.max_connections.off_diagonal() >= 1).all()
        assert plan.max_bw.min_bw() == 0.0

    def test_dead_link_lp_placement_still_sums_to_one(self):
        cluster = GeoCluster.build(
            TRIAD, "t2.medium", fluctuation=StaticModel()
        )
        bw = BandwidthMatrix(
            TRIAD,
            np.array([[0, 900, 0], [900, 0, 0], [0, 0, 0]], float),
        )
        stage = StageSpec("r", 0.1, 1.0, shuffle=True)
        placement = TetriumPolicy().place_stage(
            stage, {dc: 500.0 for dc in TRIAD}, bw, cluster
        )
        assert sum(placement.values()) == pytest.approx(1.0)
        assert all(f >= -1e-9 for f in placement.values())


class TestDegenerateClusters:
    def test_single_dc_job_never_touches_the_wan(self):
        cluster = GeoCluster.build(
            ("us-east-1",), "t2.medium", fluctuation=StaticModel()
        )
        job = terasort_job({"us-east-1": 2000.0})
        result = GdaEngine(cluster).run(job, TetriumPolicy(), None)
        assert result.wan_gb == 0.0
        assert result.jct_s > 0  # compute still takes time

    def test_zero_intermediate_wordcount_completes(self):
        cluster = GeoCluster.build(
            TRIAD, "t2.medium", fluctuation=StaticModel()
        )
        job = wordcount_job(
            {dc: 100.0 for dc in TRIAD}, intermediate_mb=0.0
        )
        result = GdaEngine(cluster).run(job, TetriumPolicy(), None)
        assert result.jct_s > 0
        assert result.wan_gb == pytest.approx(0.0, abs=1e-6)

    def test_input_at_one_dc_only(self):
        cluster = GeoCluster.build(
            TRIAD, "t2.medium", fluctuation=StaticModel()
        )
        bw = BandwidthMatrix.full(TRIAD, 400.0)
        job = terasort_job({"us-east-1": 900.0})
        result = GdaEngine(cluster).run(job, TetriumPolicy(), bw)
        assert result.jct_s > 0


class TestMalformedPolicies:
    class BrokenPolicy(PlacementPolicy):
        name = "broken"

        def place_stage(self, stage, data, bw, cluster):
            return {dc: 0.6 for dc in cluster.keys}  # sums to 1.8

    class UnknownDcPolicy(PlacementPolicy):
        name = "unknown-dc"

        def place_stage(self, stage, data, bw, cluster):
            return {"narnia-1": 1.0}

    def _run(self, policy):
        cluster = GeoCluster.build(
            TRIAD, "t2.medium", fluctuation=StaticModel()
        )
        job = terasort_job({dc: 100.0 for dc in TRIAD})
        return GdaEngine(cluster).run(job, policy, None)

    def test_fractions_not_summing_to_one_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            self._run(self.BrokenPolicy())

    def test_unknown_dc_rejected(self):
        with pytest.raises(ValueError, match="unknown DCs"):
            self._run(self.UnknownDcPolicy())


class TestPredictionClamping:
    def test_predictions_never_negative_even_off_hull(self):
        topology = Topology.build(TRIAD, "t2.medium")
        weather = FluctuationModel(seed=4)
        wanify = Pipeline(
            topology,
            weather,
            PipelineConfig(n_training_datasets=6, n_estimators=5),
        )
        wanify.train()
        X = np.array(
            [
                [3.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                [3.0, 1e9, 1.0, 1.0, 1e9, 1e5],
                [8.0, -500.0, 0.5, 0.5, 10.0, 5000.0],
            ]
        )
        preds = wanify.predictor.predict_rows(X)
        assert (preds >= 0.0).all()
        assert np.isfinite(preds).all()

    def test_untrained_model_raises_cleanly(self):
        topology = Topology.build(TRIAD, "t2.medium")
        wanify = Pipeline(topology, FluctuationModel(seed=4))
        with pytest.raises(RuntimeError, match="train"):
            wanify.predict()
