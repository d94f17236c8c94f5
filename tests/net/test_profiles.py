"""Tests for network profiles (:mod:`repro.net.profiles`) and the
profile-parameterized TCP model."""

import pytest

from repro.net.dynamics import StaticModel
from repro.net.profiles import (
    EDGE_CLOUD,
    PUBLIC_INTERNET,
    VPC_PEERING,
    all_profiles,
    network_profile,
)
from repro.net.simulator import NetworkSimulator
from repro.net.tcp import DEFAULT_MODEL, TcpModel
from repro.net.topology import Topology

TRIAD = ("us-east-1", "us-west-1", "ap-southeast-1")


class TestRegistry:
    def test_lookup_by_key(self):
        assert network_profile("public-internet") is PUBLIC_INTERNET
        assert network_profile("edge-cloud") is EDGE_CLOUD

    def test_unknown_key_lists_known(self):
        with pytest.raises(KeyError, match="vpc-peering"):
            network_profile("carrier-pigeon")

    def test_all_profiles_vpc_first(self):
        profiles = all_profiles()
        assert profiles[0] is VPC_PEERING
        assert len({p.key for p in profiles}) == len(profiles)


class TestTcpModel:
    def test_default_model_matches_module_constants(self):
        assert VPC_PEERING.tcp == DEFAULT_MODEL

    def test_fig1_calibration_endpoints(self):
        # US East–US West ≈ 1700 Mbps, US East–AP SE ≈ 121 Mbps (Fig. 1).
        tcp = VPC_PEERING.tcp
        assert tcp.per_connection_mbps(56.6) == pytest.approx(1700, rel=0.03)
        assert tcp.per_connection_mbps(221.7) == pytest.approx(121, rel=0.05)

    def test_public_internet_slower_at_every_rtt(self):
        for rtt in (20.0, 60.0, 120.0, 250.0):
            assert (
                PUBLIC_INTERNET.tcp.per_connection_mbps(rtt)
                < VPC_PEERING.tcp.per_connection_mbps(rtt)
            )

    def test_edge_cloud_slowest(self):
        for rtt in (20.0, 120.0):
            assert (
                EDGE_CLOUD.tcp.per_connection_mbps(rtt)
                < PUBLIC_INTERNET.tcp.per_connection_mbps(rtt)
            )

    def test_rtt_grows_with_stretch_and_base(self):
        d = 3000.0
        assert (
            PUBLIC_INTERNET.tcp.rtt_ms_for_distance(d)
            > VPC_PEERING.tcp.rtt_ms_for_distance(d)
        )

    def test_loss_scale_raises_retransmissions(self):
        rtt = 150.0
        assert (
            PUBLIC_INTERNET.tcp.loss_rate_estimate(rtt)
            > VPC_PEERING.tcp.loss_rate_estimate(rtt)
        )

    def test_loss_estimate_capped(self):
        assert EDGE_CLOUD.tcp.loss_rate_estimate(500.0) <= 0.05

    def test_custom_model_rejects_bad_rtt(self):
        with pytest.raises(ValueError):
            TcpModel().per_connection_mbps(0.0)
        with pytest.raises(ValueError):
            TcpModel().rtt_ms_for_distance(-1.0)


class TestFluctuationScaling:
    def test_noisier_profiles_scale_sigma(self):
        vpc = VPC_PEERING.fluctuation(seed=3)
        pub = PUBLIC_INTERNET.fluctuation(seed=3)
        edge = EDGE_CLOUD.fluctuation(seed=3)
        assert pub.sigma > vpc.sigma
        assert edge.sigma > pub.sigma

    def test_seed_passes_through(self):
        assert PUBLIC_INTERNET.fluctuation(seed=99).seed == 99


class TestTopologyIntegration:
    def test_default_topology_is_vpc(self):
        topology = Topology.build(TRIAD, "t3.nano")
        assert topology.profile is VPC_PEERING
        assert topology.tcp is VPC_PEERING.tcp

    def test_profile_propagates_through_subset(self):
        topology = Topology.build(TRIAD, "t3.nano", profile=PUBLIC_INTERNET)
        sub = topology.subset(TRIAD[:2])
        assert sub.profile is PUBLIC_INTERNET

    def test_profile_propagates_through_extra_vms(self):
        topology = Topology.build(TRIAD, "t2.medium", profile=EDGE_CLOUD)
        grown = topology.with_extra_vms({"us-east-1": 2})
        assert grown.profile is EDGE_CLOUD
        assert grown.dc("us-east-1").num_vms == 3

    def test_public_internet_has_higher_rtts(self):
        vpc = Topology.build(TRIAD, "t3.nano")
        pub = Topology.build(TRIAD, "t3.nano", profile=PUBLIC_INTERNET)
        for src, dst in (("us-east-1", "us-west-1"),
                         ("us-east-1", "ap-southeast-1")):
            assert pub.rtt_ms(src, dst) > vpc.rtt_ms(src, dst)

    def test_public_internet_has_lower_caps(self):
        vpc = Topology.build(TRIAD, "t3.nano")
        pub = Topology.build(TRIAD, "t3.nano", profile=PUBLIC_INTERNET)
        assert (
            pub.single_connection_cap("us-east-1", "ap-southeast-1")
            < vpc.single_connection_cap("us-east-1", "ap-southeast-1")
        )

    def test_simulator_respects_profile(self):
        """A lone transfer on the public Internet runs measurably slower
        than the same transfer on VPC peering."""

        def completion_time(profile) -> float:
            topology = Topology.build(TRIAD, "t3.nano", profile=profile)
            net = NetworkSimulator(topology, fluctuation=StaticModel())
            net.start_transfer("us-east-1", "ap-southeast-1", 1000.0)
            net.sim.run()
            return net.sim.now

        assert completion_time(PUBLIC_INTERNET) > completion_time(
            VPC_PEERING
        ) * 1.5

    def test_wanify_pipeline_runs_on_any_profile(self):
        """The full predict→optimize pipeline is profile-agnostic."""
        from repro.pipeline import Pipeline, PipelineConfig

        for profile in all_profiles():
            topology = Topology.build(TRIAD, "t2.medium", profile=profile)
            weather = profile.fluctuation(seed=5)
            wanify = Pipeline(
                topology,
                weather,
                PipelineConfig(n_training_datasets=6, n_estimators=5),
            )
            wanify.train()
            bw = wanify.predict(at_time=3600.0)
            plan = wanify.plan(bw)
            assert plan.max_bw.min_bw() >= bw.min_bw() * 0.99
