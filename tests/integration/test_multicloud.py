"""Multi-cloud (AWS + GCP) heterogeneity integration (§3.3.3, §5.8.3).

The paper validated WANify across AWS and GCP with similar VM types and
handles provider heterogeneity via the refactoring vector.  These tests
exercise mixed-provider topologies end to end.
"""

import pytest

from repro.core.heterogeneity import refactoring_vector
from repro.gda.engine.cluster import GeoCluster
from repro.gda.engine.engine import GdaEngine
from repro.gda.systems.vanilla import LocalityPolicy
from repro.gda.workloads.terasort import terasort_job
from repro.net.dynamics import FluctuationModel
from repro.net.topology import Topology
from repro.pipeline import Pipeline, PipelineConfig

MIXED = ("us-east-1", "eu-west-1", "gcp-us-east1", "gcp-europe-west1")


class TestMixedProviderTopology:
    def test_builds_with_gcp_regions(self):
        topo = Topology.build(MIXED, "t2.medium")
        assert topo.n == 4
        providers = {dc.region.provider for dc in topo.dcs}
        assert providers == {"aws", "gcp"}

    def test_cross_cloud_rtt_reasonable(self):
        topo = Topology.build(MIXED)
        # AWS US East ↔ GCP US East (S. Carolina) are a few hundred
        # miles apart — RTT should be small.
        assert topo.rtt_ms("us-east-1", "gcp-us-east1") < 20.0

    def test_rvec_from_providers(self):
        topo = Topology.build(MIXED)
        providers = {dc.key: dc.region.provider for dc in topo.dcs}
        rvec = refactoring_vector(providers)
        assert rvec["us-east-1"] == 1.0
        assert rvec["gcp-us-east1"] == 0.9


class TestMixedProviderPipeline:
    def test_wanify_with_rvec_end_to_end(self):
        weather = FluctuationModel(seed=21)
        topo = Topology.build(MIXED, "t2.medium")
        wanify = Pipeline(
            topo,
            weather,
            PipelineConfig(n_training_datasets=10, n_estimators=8),
        )
        wanify.train()
        bw = wanify.predict(at_time=500.0)
        providers = {dc.key: dc.region.provider for dc in topo.dcs}
        rvec = refactoring_vector(providers)
        plan = wanify.plan(bw, rvec=rvec)
        plain = wanify.plan(bw)
        # rvec only rescales achievable BWs, never connection counts.
        assert (
            plan.max_connections.values == plain.max_connections.values
        ).all()
        gcp_pair = ("gcp-us-east1", "gcp-europe-west1")
        assert plan.max_bw.get(*gcp_pair) == pytest.approx(
            plain.max_bw.get(*gcp_pair) * 0.9, rel=1e-6
        )

    def test_job_runs_on_mixed_cluster(self):
        weather = FluctuationModel(seed=21)
        cluster = GeoCluster.build(MIXED, "t2.medium", fluctuation=weather)
        store_mb = {dc: 512.0 for dc in MIXED}
        result = GdaEngine(cluster).run(
            terasort_job(store_mb), LocalityPolicy()
        )
        assert result.jct_s > 0
        assert result.wan_gb > 0
