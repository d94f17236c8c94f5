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
predicted runtime values.  Each DC's NIC caps add aggregate ingress and
egress rows, and each ``p_j`` is capped at a multiple of its
slots-proportional share.  Kimchi adds a transfer-cost term to the
objective and Iridium drops ``T_cmp``; all three solve the LP with the
dense dual simplex of :mod:`repro.gda.systems.simplex`, which needs
nothing beyond numpy.

Tetrium also places *data*: following the §2.2 narrative ("prior works
choose to migrate input data out of AP SE to the nearby DCs"), the
policy evacuates input from a DC whose connectivity is far below the
cluster median, sending it to that DC's best-connected peer.  With
static-independent BWs this picks the statically slowest DC — which at
runtime may be the wrong one, exactly the paper's point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.gda.engine.cluster import GeoCluster
from repro.gda.engine.dag import StageSpec
from repro.gda.systems import simplex
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


@dataclass(frozen=True)
class PlacementLp:
    """The numbers one placement LP is built from, in cluster key order.

    ``data_mb`` is each DC's input; ``link_mb_s`` the believed MB/s from
    row to column DC (rescaled to :data:`REFERENCE_MEAN_BW` and floored
    at :data:`_MIN_BW_MBPS`); ``ingress_mb_s``/``egress_mb_s`` each DC's
    NIC caps; ``compute_s`` the seconds each DC would take to run the
    whole stage (``None`` for a network-only objective); ``cost`` the
    objective seconds per unit of fraction placed at each DC (Kimchi's
    transfer dollars); ``cap`` the largest fraction each DC may take.
    """

    data_mb: np.ndarray
    link_mb_s: np.ndarray
    ingress_mb_s: np.ndarray
    egress_mb_s: np.ndarray
    compute_s: Optional[np.ndarray]
    cost: np.ndarray
    cap: np.ndarray

    def solve(self) -> Optional[tuple[float, np.ndarray]]:
        """``(objective, fractions)`` at the optimum, or ``None``.

        Solved as an equivalent LP with one row per kind and DC, in
        the columns ``p_0 … p_{n-1}, T_net[, T_cmp]``: a DC's link and
        ingress rows all bound ``p_j`` by a multiple of ``T_net``, so
        only the tightest multiple is kept (``A_j p_j ≤ T_net``); each
        sending DC's egress row is ``D_i (1 − p_i) ≤ T_net``; each
        compute row is ``K_j p_j ≤ T_cmp``; and ``Σ p = 1``.  A NIC with
        no capacity keeps the full rows' meaning: a DC that would receive
        through it takes nothing (``p_j ≤ 0``), and a DC that sends
        through it keeps all its data (``p_i ≥ 1``).
        """
        n = len(self.data_mb)
        load = self.data_mb * TRANSFER_OVERHEAD
        senders = np.flatnonzero(self.data_mb > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            need = load[:, None] / self.link_mb_s
            inbound = (self.data_mb.sum() - self.data_mb) * TRANSFER_OVERHEAD
            ingress = inbound / self.ingress_mb_s
            egress = load[senders] / self.egress_mb_s[senders]
        np.fill_diagonal(need, 0.0)
        closed_in = self.ingress_mb_s == 0.0
        ingress[closed_in] = 0.0
        closed_out = self.egress_mb_s[senders] == 0.0
        egress[closed_out] = 1.0
        network_only = self.compute_s is None
        k = len(senders)
        t_net, t_cmp = n, n + 1
        rows = n + k + (0 if network_only else n) + 1
        a = np.zeros((rows, n + (1 if network_only else 2)))
        b = np.zeros(rows)
        # A_j p_j ≤ T_net, A_j the largest link or ingress multiple.
        a[:n, :n] = np.diag(np.maximum(need[senders].max(axis=0), ingress))
        a[:n, t_net] = -1.0
        # D_i (1 − p_i) ≤ T_net for each sending DC.
        a[n + np.arange(k), senders] = -egress
        a[n : n + k, t_net] = np.where(closed_out, 0.0, -1.0)
        b[n : n + k] = -egress
        if not network_only:
            # K_j p_j ≤ T_cmp.
            a[n + k : -1, :n] = np.diag(self.compute_s)
            a[n + k : -1, t_cmp] = -1.0
        a[-1, :n] = 1.0
        b[-1] = 1.0
        equal = np.zeros(rows, dtype=bool)
        equal[-1] = True
        c = np.concatenate([self.cost, np.ones(a.shape[1] - n)])
        cap = np.where(closed_in & (inbound > 0), 0.0, self.cap)
        upper = np.concatenate([cap, np.full(a.shape[1] - n, np.inf)])
        solution = simplex.solve(c, a, b, equal, upper)
        if solution is None:
            return None
        return solution.objective, solution.x[:n]


def placement_lp(
    data_mb_by_dc: dict[str, float],
    bw: BandwidthMatrix,
    cluster: GeoCluster,
    cpu_s_per_mb: float,
    network_cost_weight: float = 0.0,
    price_per_gb: float = 0.02,
    network_only: bool = False,
    spread_factor: float = SPREAD_FACTOR,
) -> PlacementLp:
    """The LP :func:`solve_placement_lp` solves for these inputs."""
    keys = list(cluster.keys)
    data = np.array([data_mb_by_dc.get(k, 0.0) for k in keys])
    total = data.sum()
    mean_bw = float(bw.off_diagonal().mean())
    bw_scale = REFERENCE_MEAN_BW / mean_bw if mean_bw > 0 else 1.0
    index = [bw.index(k) for k in keys]
    believed = bw.values[np.ix_(index, index)]
    link_mb_s = np.maximum(believed * bw_scale, _MIN_BW_MBPS) / 8.0
    dcs = [cluster.topology.dc(k) for k in keys]
    slots = [cluster.slots(k) for k in keys]
    speeds = [cluster.speed(k) for k in keys]
    rates = [s * v for s, v in zip(slots, speeds)]
    cost = np.zeros(len(keys))
    if network_cost_weight > 0:
        cost = network_cost_weight * price_per_gb * (total - data) / 1024.0
    total_slots = sum(rates)
    cap = [
        min(1.0, spread_factor * s * v / total_slots)
        for s, v in zip(slots, speeds)
    ]
    return PlacementLp(
        data_mb=data,
        link_mb_s=link_mb_s,
        ingress_mb_s=np.array([dc.ingress_cap_mbps / 8.0 for dc in dcs]),
        egress_mb_s=np.array([dc.egress_cap_mbps / 8.0 for dc in dcs]),
        compute_s=(
            None if network_only else total * cpu_s_per_mb / np.array(rates)
        ),
        cost=cost,
        cap=np.array(cap),
    )


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
    lp = placement_lp(
        data_mb_by_dc,
        bw,
        cluster,
        cpu_s_per_mb,
        network_cost_weight,
        price_per_gb,
        network_only,
        spread_factor,
    )
    if lp.data_mb.sum() <= 0:
        return {k: 1.0 / len(keys) for k in keys}
    optimum = lp.solve()
    if optimum is None:
        # Degenerate inputs: fall back to slots-proportional.
        return PlacementPolicy.slots_proportional(cluster)
    return {k: float(f) for k, f in zip(keys, normalised(optimum[1]))}


def normalised(fractions: np.ndarray) -> np.ndarray:
    """An LP's fractions clipped to [0, 1], then rescaled to sum to 1."""
    fractions = np.clip(fractions, 0.0, 1.0)
    return fractions / fractions.sum()


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
