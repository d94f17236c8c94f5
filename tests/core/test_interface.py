"""Tests for the Pipeline facade and deployments."""

import pytest

from repro.net.dynamics import FluctuationModel
from repro.net.simulator import NetworkSimulator
from repro.pipeline import Pipeline, PipelineConfig, variant_registry


@pytest.fixture(scope="module")
def trained():
    from repro.net.topology import Topology
    from repro.cloud.regions import PAPER_REGIONS

    topo = Topology.build(PAPER_REGIONS[:4], "t2.medium")
    wanify = Pipeline(
        topo,
        FluctuationModel(seed=9),
        PipelineConfig(n_training_datasets=15, n_estimators=10),
    )
    summary = wanify.train()
    return topo, wanify, summary


class TestTraining:
    def test_summary_fields(self, trained):
        _, wanify, summary = trained
        assert wanify.is_trained
        assert summary["rows"] > 0
        assert summary["train_accuracy_pct"] > 80.0
        assert summary["collection_cost_usd"] > 0

    def test_predict_before_training_raises(self, triad):
        wanify = Pipeline(triad)
        with pytest.raises(RuntimeError, match="train"):
            wanify.predict()


class TestPrediction:
    def test_predict_full_topology(self, trained):
        topo, wanify, _ = trained
        bw = wanify.predict(at_time=1000.0)
        assert bw.keys == topo.keys
        assert bw.min_bw() >= 0

    def test_predict_on_subset(self, trained):
        topo, wanify, _ = trained
        sub = topo.subset(topo.keys[:2])
        bw = wanify.predict(at_time=1000.0, topology=sub)
        assert bw.keys == sub.keys


class TestDeployments:
    def test_unknown_variant_rejected(self, trained):
        _, wanify, _ = trained
        with pytest.raises(ValueError, match="unknown variant"):
            wanify.deployment("wanify-max")

    def test_single_variant_is_noop(self, trained):
        topo, wanify, _ = trained
        deployment = wanify.deployment("single")
        net = NetworkSimulator(topo)
        deployment.install(net)
        assert net.connections(topo.keys[0], topo.keys[1]) == 1
        assert net.tc.limits() == {}

    @pytest.mark.parametrize("variant", variant_registry.names())
    def test_all_variants_install_and_teardown(self, trained, variant):
        topo, wanify, _ = trained
        net = NetworkSimulator(topo)
        deployment = wanify.deployment(variant, at_time=500.0)
        deployment.install(net)
        if deployment.agents:
            assert deployment.agents_running
        deployment.teardown(net)
        assert deployment.agents_running == []
        assert net.tc.limits() == {}

    def test_wanify_p_sets_uniform_counts(self, trained):
        topo, wanify, _ = trained
        net = NetworkSimulator(topo)
        deployment = wanify.deployment("wanify-p", at_time=500.0)
        deployment.install(net)
        counts = {
            net.connections(a, b)
            for a in topo.keys
            for b in topo.keys
            if a != b
        }
        assert counts == {wanify.config.max_connections}

    def test_tc_variant_installs_throttles(self, trained):
        topo, wanify, _ = trained
        net = NetworkSimulator(topo)
        deployment = wanify.deployment("wanify-tc", at_time=500.0)
        deployment.install(net)
        assert len(net.tc.limits()) > 0
        deployment.teardown(net)

    def test_dynamic_variant_no_throttles(self, trained):
        topo, wanify, _ = trained
        net = NetworkSimulator(topo)
        deployment = wanify.deployment("wanify-dynamic", at_time=500.0)
        deployment.install(net)
        assert net.tc.limits() == {}
        deployment.teardown(net)

    def test_global_only_uses_midpoint(self, trained):
        topo, wanify, _ = trained
        bw = wanify.predict(at_time=500.0)
        plan = wanify.plan(bw)
        net = NetworkSimulator(topo)
        deployment = wanify.deployment("global-only", bw=bw)
        deployment.install(net)
        for a in topo.keys:
            for b in topo.keys:
                if a == b:
                    continue
                lo, hi = plan.connection_window(a, b)
                assert lo <= net.connections(a, b) <= hi

    def test_retired_agents_inspectable(self, trained):
        topo, wanify, _ = trained
        net = NetworkSimulator(topo)
        deployment = wanify.deployment("wanify-tc", at_time=500.0)
        deployment.install(net)
        deployment.teardown(net)
        assert len(deployment.retired_agents) == topo.n
