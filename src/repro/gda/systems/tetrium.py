"""Tetrium [21]: multi-resource (network + compute) task placement.

Tetrium chooses reduce-task fractions that jointly minimize the stage's
network and compute completion times.  We solve the fractional
relaxation as a linear program:

    minimize    T_net + T_cmp
    subject to  data_i · p_j  ≤  T_net · BW_ij     for all i ≠ j
                total · p_j · cpu/(slots_j·speed_j) ≤ T_cmp   for all j
                Σ p_j = 1,  p ≥ 0

where BW comes from whatever matrix the experiment supplies — Tetrium's
published system measures it statically with iPerf; WANify swaps in
predicted runtime values.

Tetrium also places *data*: following the §2.2 narrative ("prior works
choose to migrate input data out of AP SE to the nearby DCs"), the
policy evacuates input from a DC whose connectivity is far below the
cluster median, sending it to that DC's best-connected peer.  With
static-independent BWs this picks the statically slowest DC — which at
runtime may be the wrong one, exactly the paper's point.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gda.engine.cluster import GeoCluster
from repro.gda.engine.dag import StageSpec
from repro.gda.systems.base import PlacementPolicy
from repro.pipeline.registry import register_policy
from repro.net.matrix import BandwidthMatrix

#: A DC whose mean connectivity falls below this multiple of the
#: cluster median is evacuated.
EVACUATION_RATIO = 0.55

#: Evacuated data fans out over this many best-connected destinations
#: (a bulk HDFS move parallelizes across receivers).
EVACUATION_FANOUT = 3

#: Floor (MB/s) to keep LP constraints well-conditioned on dead links.
_MIN_BW_MBPS = 1.0

#: The transfer amplification the placement model assumes for framework
#: shuffles (mirrors the engine's SHUFFLE_OVERHEAD; Tetrium's published
#: model is calibrated on measured Spark transfer times, which include
#: this overhead).
TRANSFER_OVERHEAD = 4.0

#: Concentration limit: a DC may receive at most this multiple of its
#: slots-proportional share.  Reduce parallelism is slot-bound — piling
#: reduce tasks into one DC multiplies task waves, which the fractional
#: LP cannot see; the cap keeps its counterfactuals inside the regime
#: where the fluid model (and a real Spark cluster) behaves.
SPREAD_FACTOR = 1.8

#: The LP consumes the BW matrix's *relative* structure: matrices are
#: rescaled to this common mean before use.  Absolute levels depend on
#: how the matrix was measured (uncontended iPerf runs hot, a fully
#: contended mesh runs cold; the truth during a volume-weighted shuffle
#: sits between), and letting that measurement artifact drive the
#: network-vs-compute trade systematically mis-places work.  What a
#: placement decision actually needs is which links are currently weak
#: relative to the rest — exactly what changes between static and
#: runtime measurements.
REFERENCE_MEAN_BW = 250.0


def _mean_connectivity(bw: BandwidthMatrix, dc: str) -> float:
    """Mean of a DC's outgoing and incoming BWs."""
    values = [bw.get(dc, other) for other in bw.keys if other != dc]
    values += [bw.get(other, dc) for other in bw.keys if other != dc]
    return float(np.mean(values))


def _fan_out_migration(
    worst: str,
    volume: float,
    bw: BandwidthMatrix,
    cluster: GeoCluster,
    fanout: int = EVACUATION_FANOUT,
) -> list[tuple[str, str, float]]:
    """Split an evacuation across the best-connected destinations,
    proportionally to their (believed) BW from the evacuated DC."""
    candidates = sorted(
        (dst for dst in cluster.keys if dst != worst),
        key=lambda dst: -bw.get(worst, dst),
    )[:fanout]
    total_bw = sum(bw.get(worst, dst) for dst in candidates)
    if total_bw <= 0:
        return []
    return [
        (worst, dst, volume * bw.get(worst, dst) / total_bw)
        for dst in candidates
    ]


def solve_placement_lp(
    data_mb_by_dc: dict[str, float],
    bw: BandwidthMatrix,
    cluster: GeoCluster,
    cpu_s_per_mb: float,
    network_cost_weight: float = 0.0,
    price_per_gb: float = 0.02,
    network_only: bool = False,
    spread_factor: float = SPREAD_FACTOR,
) -> dict[str, float]:
    """Shared LP core for Tetrium (weight 0), Kimchi (weight > 0), and
    Iridium (``network_only=True``).

    ``network_cost_weight`` converts transfer dollars into objective
    seconds (a cost-aware system accepts slower placements that move
    less paid traffic).  ``network_only`` drops the compute term from
    the objective — Iridium's published formulation minimizes transfer
    time alone.  ``spread_factor`` caps any DC's share at that multiple
    of its slots-proportional share; a system that does not optimize
    compute (Iridium) needs a tighter cap, because nothing else in its
    objective resists piling work onto two well-connected DCs.
    """
    keys = list(cluster.keys)
    n = len(keys)
    data = np.array([data_mb_by_dc.get(k, 0.0) for k in keys])
    total = data.sum()
    if total <= 0:
        return {k: 1.0 / n for k in keys}

    mean_bw = float(bw.off_diagonal().mean())
    bw_scale = REFERENCE_MEAN_BW / mean_bw if mean_bw > 0 else 1.0

    # Variables: p_0..p_{n-1}, T_net, T_cmp
    c = np.zeros(n + 2)
    c[n] = 1.0
    c[n + 1] = 0.0 if network_only else 1.0
    if network_cost_weight > 0:
        for j, key in enumerate(keys):
            inbound_mb = total - data[j]
            c[j] += network_cost_weight * price_per_gb * inbound_mb / 1024.0

    rows, rhs = [], []
    for i, src in enumerate(keys):
        if data[i] <= 0:
            continue
        for j, dst in enumerate(keys):
            if i == j:
                continue
            bw_mb_s = (
                max(bw.get(src, dst) * bw_scale, _MIN_BW_MBPS) / 8.0
            )
            row = np.zeros(n + 2)
            row[j] = data[i] * TRANSFER_OVERHEAD
            row[n] = -bw_mb_s
            rows.append(row)
            rhs.append(0.0)
    # Per-DC aggregate NIC constraints: without them the LP happily
    # routes everything at the advertised per-link rate into one DC,
    # which a real NIC cannot absorb.
    for j, key in enumerate(keys):
        ingress_mb_s = cluster.topology.dc(key).ingress_cap_mbps / 8.0
        row = np.zeros(n + 2)
        row[j] = (total - data[j]) * TRANSFER_OVERHEAD
        row[n] = -ingress_mb_s
        rows.append(row)
        rhs.append(0.0)
    for i, key in enumerate(keys):
        if data[i] <= 0:
            continue
        egress_mb_s = cluster.topology.dc(key).egress_cap_mbps / 8.0
        # data_i leaves i except the fraction placed back at i:
        # data_i (1 − p_i) ≤ T_net × egress.
        row = np.zeros(n + 2)
        row[i] = -data[i] * TRANSFER_OVERHEAD
        row[n] = -egress_mb_s
        rows.append(row)
        rhs.append(-data[i] * TRANSFER_OVERHEAD)
    if not network_only:
        for j, key in enumerate(keys):
            rate = cluster.slots(key) * cluster.speed(key)
            row = np.zeros(n + 2)
            row[j] = total * cpu_s_per_mb / rate
            row[n + 1] = -1.0
            rows.append(row)
            rhs.append(0.0)

    a_eq = np.zeros((1, n + 2))
    a_eq[0, :n] = 1.0
    total_slots = sum(
        cluster.slots(k) * cluster.speed(k) for k in keys
    )
    bounds = [
        (
            0.0,
            min(
                1.0,
                spread_factor
                * cluster.slots(k)
                * cluster.speed(k)
                / total_slots,
            ),
        )
        for k in keys
    ] + [(0.0, None), (0.0, None)]
    # Imported here, not at module level: scipy adds ~49 MB and ~0.5 s
    # to every process that imports the policies but never places.
    from scipy.optimize import linprog

    result = linprog(
        c,
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        A_eq=a_eq,
        b_eq=np.array([1.0]),
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        # Degenerate inputs: fall back to slots-proportional.
        return PlacementPolicy.slots_proportional(cluster)
    fractions = np.clip(result.x[:n], 0.0, 1.0)
    fractions = fractions / fractions.sum()
    return {k: float(f) for k, f in zip(keys, fractions)}


@register_policy()
class TetriumPolicy(PlacementPolicy):
    """Network + compute LP placement with bottleneck-DC evacuation."""

    name = "tetrium"

    def __init__(
        self,
        migrate_input: bool = True,
        evacuation_ratio: float = EVACUATION_RATIO,
    ) -> None:
        self.migrate_input = migrate_input
        self.evacuation_ratio = evacuation_ratio

    def plan_migration(
        self,
        data_mb_by_dc: dict[str, float],
        bw: Optional[BandwidthMatrix],
        cluster: GeoCluster,
        shuffle_mb: float = 0.0,
    ) -> list[tuple[str, str, float]]:
        """Evacuate input from a severely bottlenecked DC — but only
        when the job's shuffle volume justifies paying for the move."""
        if not self.migrate_input or bw is None:
            return []
        scores = {
            dc: _mean_connectivity(bw, dc)
            for dc in cluster.keys
            if data_mb_by_dc.get(dc, 0.0) > 0
        }
        if len(scores) < 2:
            return []
        median = float(np.median(list(scores.values())))
        worst = min(scores, key=scores.get)
        if scores[worst] >= self.evacuation_ratio * median:
            return []
        volume = data_mb_by_dc[worst] * 0.7
        if shuffle_mb > 0 and volume > 0.65 * shuffle_mb:
            # The move itself would dwarf the shuffle it speeds up.
            return []
        return _fan_out_migration(worst, volume, bw, cluster)

    def place_stage(
        self,
        stage: StageSpec,
        data_mb_by_dc: dict[str, float],
        bw: Optional[BandwidthMatrix],
        cluster: GeoCluster,
    ) -> dict[str, float]:
        """LP placement; falls back to slots-proportional without BWs."""
        if bw is None:
            return self.slots_proportional(cluster)
        return solve_placement_lp(
            data_mb_by_dc, bw, cluster, stage.cpu_s_per_mb
        )
