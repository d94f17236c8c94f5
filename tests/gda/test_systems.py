"""Tests for the placement policies (vanilla, Tetrium, Kimchi)."""

import numpy as np
import pytest

from repro.gda.engine.cluster import GeoCluster
from repro.gda.engine.dag import StageSpec
from repro.gda.systems.kimchi import KimchiPolicy
from repro.gda.systems.tetrium import (
    PlacementLp,
    TetriumPolicy,
    solve_placement_lp,
)
from repro.gda.systems.vanilla import LocalityPolicy
from repro.net.dynamics import StaticModel
from repro.net.matrix import BandwidthMatrix

TRIAD = ("us-east-1", "us-west-1", "ap-southeast-1")


@pytest.fixture
def cluster():
    return GeoCluster.build(TRIAD, "t2.medium", fluctuation=StaticModel())


@pytest.fixture
def bw(cluster):
    return BandwidthMatrix(
        TRIAD,
        np.array([[0, 900, 120], [900, 0, 130], [120, 130, 0]], float),
    )


STAGE = StageSpec("reduce", cpu_s_per_mb=0.1, output_ratio=1.0, shuffle=True)
DATA = {dc: 1000.0 for dc in TRIAD}


class TestVanilla:
    def test_slots_proportional(self, cluster, bw):
        placement = LocalityPolicy().place_stage(STAGE, DATA, bw, cluster)
        assert placement == pytest.approx(
            {dc: 1 / 3 for dc in TRIAD}
        )

    def test_no_migration(self, cluster, bw):
        assert LocalityPolicy().plan_migration(DATA, bw, cluster) == []


class TestPlacementLp:
    def test_fractions_sum_to_one(self, cluster, bw):
        placement = solve_placement_lp(DATA, bw, cluster, 0.1)
        assert sum(placement.values()) == pytest.approx(1.0)
        assert all(f >= 0 for f in placement.values())

    def test_weak_dc_gets_no_more_than_strong(self, cluster, bw):
        placement = solve_placement_lp(DATA, bw, cluster, 0.05)
        assert (
            placement["ap-southeast-1"]
            <= placement["us-east-1"] + 1e-6
        )

    def test_empty_data_uniform(self, cluster, bw):
        placement = solve_placement_lp({}, bw, cluster, 0.1)
        assert placement == pytest.approx({dc: 1 / 3 for dc in TRIAD})

    def test_compute_heavy_stage_balances_slots(self, cluster, bw):
        # With enormous compute weight, placement approaches uniform
        # (equal slots everywhere).
        placement = solve_placement_lp(DATA, bw, cluster, 100.0)
        for fraction in placement.values():
            assert fraction == pytest.approx(1 / 3, abs=0.05)

    def test_cost_weight_shifts_toward_data(self, cluster, bw):
        skewed = {"us-east-1": 2500.0, "us-west-1": 400.0,
                  "ap-southeast-1": 100.0}
        cheap = solve_placement_lp(
            skewed, bw, cluster, 0.1, network_cost_weight=0.0
        )
        costly = solve_placement_lp(
            skewed, bw, cluster, 0.1, network_cost_weight=5000.0
        )
        # Cost-averse placement keeps more work where the data is.
        assert costly["us-east-1"] >= cheap["us-east-1"] - 1e-6

    def test_infeasible_caps_fall_back_to_slots(self, cluster, bw):
        # Caps of half a share each cannot sum to one.
        placement = solve_placement_lp(DATA, bw, cluster, 0.1, spread_factor=0.5)
        assert placement == TetriumPolicy.slots_proportional(cluster)

    def test_zero_vm_dc_places_as_the_full_rows_did(self, bw):
        # A DC without VMs has no NIC capacity; Iridium's LP (no compute
        # rows) still places around it, as HiGHS did on the full rows.
        data = {"us-east-1": 200.0, "us-west-1": 700.0}
        idle = GeoCluster.build(
            TRIAD,
            "t2.medium",
            vms_per_dc={"ap-southeast-1": 0},
            fluctuation=StaticModel(),
        )
        placement = solve_placement_lp(
            data, bw, idle, 0.1, network_only=True, spread_factor=1.5
        )
        assert placement == pytest.approx(
            {"us-east-1": 0.25, "us-west-1": 0.75, "ap-southeast-1": 0.0},
            rel=0.0,
            abs=1e-12,
        )

    @pytest.mark.parametrize(
        "ingress, egress",
        [((10.0, 0.0), (10.0, 10.0)), ((10.0, 10.0), (0.0, 10.0))],
    )
    def test_closed_nic_keeps_the_data_home(self, ingress, egress):
        # All data at DC 0: a closed ingress at DC 1 admits nothing
        # (p_1 ≤ 0), and a closed egress at DC 0 lets nothing leave
        # (p_0 ≥ 1).
        lp = PlacementLp(
            data_mb=np.array([100.0, 0.0]),
            link_mb_s=np.full((2, 2), 10.0),
            ingress_mb_s=np.array(ingress),
            egress_mb_s=np.array(egress),
            compute_s=None,
            cost=np.zeros(2),
            cap=np.ones(2),
        )
        objective, fractions = lp.solve()
        assert fractions == pytest.approx([1.0, 0.0], abs=1e-12)
        assert objective == pytest.approx(0.0, abs=1e-12)

    def test_non_finite_bw_raises(self, cluster, bw):
        bw.set("us-east-1", "us-west-1", float("nan"))
        with pytest.raises(ValueError, match="finite"):
            solve_placement_lp(DATA, bw, cluster, 0.1)


class TestTetrium:
    def test_migrates_bottlenecked_dc_when_shuffle_heavy(self, cluster):
        bw = BandwidthMatrix(
            TRIAD,
            np.array([[0, 900, 20], [900, 0, 25], [20, 25, 0]], float),
        )
        policy = TetriumPolicy()
        moves = policy.plan_migration(DATA, bw, cluster, shuffle_mb=5000.0)
        assert moves
        assert all(src == "ap-southeast-1" for src, _, _ in moves)
        assert sum(mb for _, _, mb in moves) == pytest.approx(700.0)

    def test_no_migration_without_bw(self, cluster):
        assert TetriumPolicy().plan_migration(DATA, None, cluster) == []

    def test_no_migration_when_balanced(self, cluster):
        bw = BandwidthMatrix.full(TRIAD, 500.0)
        assert (
            TetriumPolicy().plan_migration(DATA, bw, cluster, 5000.0) == []
        )

    def test_no_migration_when_shuffle_small(self, cluster):
        bw = BandwidthMatrix(
            TRIAD,
            np.array([[0, 900, 20], [900, 0, 25], [20, 25, 0]], float),
        )
        moves = TetriumPolicy().plan_migration(
            DATA, bw, cluster, shuffle_mb=100.0
        )
        assert moves == []

    def test_place_stage_without_bw_falls_back(self, cluster):
        placement = TetriumPolicy().place_stage(STAGE, DATA, None, cluster)
        assert placement == pytest.approx({dc: 1 / 3 for dc in TRIAD})

    def test_migration_disabled_flag(self, cluster):
        bw = BandwidthMatrix(
            TRIAD,
            np.array([[0, 900, 20], [900, 0, 25], [20, 25, 0]], float),
        )
        policy = TetriumPolicy(migrate_input=False)
        assert policy.plan_migration(DATA, bw, cluster, 5000.0) == []


class TestKimchi:
    def test_invalid_cost_weight(self):
        with pytest.raises(ValueError):
            KimchiPolicy(cost_weight=-1.0)

    def test_stricter_migration_bar_than_tetrium(self, cluster):
        bw = BandwidthMatrix(
            TRIAD,
            np.array([[0, 900, 20], [900, 0, 25], [20, 25, 0]], float),
        )
        # A shuffle size where Tetrium migrates but Kimchi does not
        # (volume 700 vs bars 0.65×1200=780 and 0.55×1200=660).
        tetrium_moves = TetriumPolicy().plan_migration(
            DATA, bw, cluster, shuffle_mb=1200.0
        )
        kimchi_moves = KimchiPolicy().plan_migration(
            DATA, bw, cluster, shuffle_mb=1200.0
        )
        assert tetrium_moves
        assert kimchi_moves == []

    def test_placement_differs_from_tetrium_under_cost_pressure(
        self, cluster, bw
    ):
        skewed = {"us-east-1": 2500.0, "us-west-1": 400.0,
                  "ap-southeast-1": 100.0}
        tetrium = TetriumPolicy().place_stage(STAGE, skewed, bw, cluster)
        kimchi = KimchiPolicy(cost_weight=5000.0).place_stage(
            STAGE, skewed, bw, cluster
        )
        assert kimchi["us-east-1"] >= tetrium["us-east-1"] - 1e-6
