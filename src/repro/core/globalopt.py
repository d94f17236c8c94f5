"""Static global optimization — Eq. 2 and Eq. 3 (§3.2.1).

From the predicted runtime BW matrix, the global optimizer derives an
*optimal range* of network configurations per DC pair: minimum and
maximum connection counts and the corresponding achievable BWs.  The
greedy rule "favors DC pairs with a higher closeness index" — i.e.
distant, weak pairs get up to ``M`` connections from each source while
strong pairs keep few — because the per-source connection budget is
limited and over-parallelizing strong links causes the race conditions
of Fig. 2(b).

Achievable BW uses the paper's empirical linearity: ``BW × connections``
(optionally scaled by the refactoring vector ``rvec`` for heterogeneous
providers and by skew weights ``ws``; §3.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.checks import check_connections
from repro.core.relations import infer_dc_relations
from repro.net.matrix import BandwidthMatrix
from repro.net.simulator import LAN_MBPS

#: Per-VM connection budget per pair; the paper's examples use M = 8
#: and §5.1 uses 8 uniform connections as the best uniform setting.
DEFAULT_MAX_CONNECTIONS = 8

#: Hard ceiling per pair (the §1 sizing example allows up to 10).
ABSOLUTE_MAX_CONNECTIONS = 10

#: Per-VM sustainable stream budget: Eq. 3's greedy allocation respects
#: "a reference DC that has limited number of total parallel
#: connections" (§3.2.1).  When a row of maxCons sums beyond this, it is
#: proportionally rescaled — which is also how skew weights ws
#: "proportionally re-allocate the optimal range" (§3.3.1): they shift
#: budget between a row's pairs rather than inflating the total.
PER_VM_STREAM_BUDGET = 24


@dataclass
class GlobalPlan:
    """The optimizer's output: per-pair connection ranges and BWs.

    All four matrices share the DC key order of the input.  Local agents
    treat [min, max] as the window AIMD may move within (§3.2.2).
    """

    keys: tuple[str, ...]
    relations: np.ndarray
    min_connections: BandwidthMatrix
    max_connections: BandwidthMatrix
    min_bw: BandwidthMatrix
    max_bw: BandwidthMatrix

    def connection_window(self, src: str, dst: str) -> tuple[int, int]:
        """(min, max) connection counts for a pair."""
        return (
            int(self.min_connections.get(src, dst)),
            int(self.max_connections.get(src, dst)),
        )

    def bw_window(self, src: str, dst: str) -> tuple[float, float]:
        """(min, max) achievable BW for a pair (Mbps)."""
        return self.min_bw.get(src, dst), self.max_bw.get(src, dst)


def _pair_weights(
    keys: tuple[str, ...], skew_weights: dict[str, float] | None
) -> np.ndarray:
    """Per-pair ws factors from per-DC skew weights (§3.3.1).

    Skew weights are normalized to mean 1; a pair's factor is the larger
    of its endpoints' weights, floored at 1 — links touching data-heavy
    DCs get proportionally *more* of the connection budget ("higher
    weightage is given to data-intensive DC regions") and no link is
    penalized below its skew-unaware allocation.
    """
    n = len(keys)
    if not skew_weights:
        return np.ones((n, n))
    w = np.array([float(skew_weights.get(k, 1.0)) for k in keys])
    if (w <= 0).any():
        raise ValueError(f"skew weights must be positive: {skew_weights}")
    w = w / w.mean()
    pair = np.maximum(w[:, None], w[None, :])
    return np.maximum(pair, 1.0)


def _rvec_matrix(
    keys: tuple[str, ...], rvec: dict[str, float] | None
) -> np.ndarray:
    """Refactoring-vector factors per pair (§3.3.3); default all ones.

    ``rvec`` maps DC key → provider/VM scaling; a pair's factor is the
    geometric mean of its endpoints (BW between heterogeneous providers
    varies proportionally on both ends).
    """
    n = len(keys)
    if not rvec:
        return np.ones((n, n))
    r = np.array([float(rvec.get(k, 1.0)) for k in keys])
    if (r <= 0).any():
        raise ValueError(f"rvec entries must be positive: {rvec}")
    return np.sqrt(r[:, None] * r[None, :])


def optimize_connections(
    bw: BandwidthMatrix,
    max_connections: int = DEFAULT_MAX_CONNECTIONS,
    min_difference: float = 100.0,
    skew_weights: dict[str, float] | None = None,
    rvec: dict[str, float] | None = None,
    intra_bw: float = LAN_MBPS,
) -> GlobalPlan:
    """Run Algorithm 1 + Eq. 2/3 on a (predicted) runtime BW matrix.

    ``bw`` carries inter-DC values; the diagonal is replaced by
    ``intra_bw`` so intra-DC lands on the top closeness level, exactly
    as in the paper's worked example.
    """
    check_connections(max_connections)
    n = bw.n
    keys = bw.keys
    work = bw.values.copy()
    np.fill_diagonal(work, intra_bw)

    rel = infer_dc_relations(work, min_difference)

    # Eq. 2
    sum_all = int(rel.sum()) - n
    if sum_all <= 0:
        # Degenerate: all pairs on the top level; fall back to 1 each.
        sum_all = max(1, int(rel.sum()))
    max_per_row = rel.max(axis=1)

    ws = _pair_weights(keys, skew_weights)
    rv = _rvec_matrix(keys, rvec)
    m = max_connections

    # Eq. 3
    min_candidate = np.floor(rel / sum_all * (m - 1))
    min_cons = np.maximum(min_candidate, 1.0) * ws
    max_cons = np.ceil(m * rel / max_per_row[:, None]) * ws

    min_cons = np.clip(np.round(min_cons), 1, ABSOLUTE_MAX_CONNECTIONS)
    max_cons = np.clip(np.round(max_cons), 1, ABSOLUTE_MAX_CONNECTIONS)
    np.fill_diagonal(min_cons, 1)
    np.fill_diagonal(max_cons, 1)

    # Respect the per-VM stream budget row by row (see
    # PER_VM_STREAM_BUDGET): rescale oversubscribed rows proportionally.
    # With skew weights the heavy rows hit the budget first, so the
    # rescale is what "proportionally re-allocates the optimal range"
    # (§3.3.1) — within a data-heavy row, budget shifts from its
    # ws-floored pairs toward its boosted ones.  (Shrinking data-light
    # rows' budgets outright was tried and rejected: it starves the
    # light senders at shared receiver NICs and drags the cluster's
    # minimum BW below the single-connection baseline, the opposite of
    # the paper's Fig. 10 observation.)
    off = ~np.eye(n, dtype=bool)
    for i in range(n):
        row_sum = max_cons[i][off[i]].sum()
        if row_sum > PER_VM_STREAM_BUDGET:
            scale = PER_VM_STREAM_BUDGET / row_sum
            scaled = np.maximum(1, np.floor(max_cons[i] * scale))
            scaled[i] = 1
            max_cons[i] = scaled

    # The window must be well-ordered even after skew scaling.
    min_cons = np.minimum(min_cons, max_cons)

    min_bw = bw.values * min_cons * rv
    max_bw = bw.values * max_cons * rv
    np.fill_diagonal(min_bw, 0.0)
    np.fill_diagonal(max_bw, 0.0)

    return GlobalPlan(
        keys=keys,
        relations=rel,
        min_connections=BandwidthMatrix(keys, min_cons),
        max_connections=BandwidthMatrix(keys, max_cons),
        min_bw=BandwidthMatrix(keys, min_bw),
        max_bw=BandwidthMatrix(keys, max_bw),
    )


def uniform_plan(
    bw: BandwidthMatrix, connections: int = DEFAULT_MAX_CONNECTIONS
) -> GlobalPlan:
    """A uniform-parallelism plan (the WANify-P baseline of §5.3.1):
    every pair gets the same fixed connection count."""
    keys = bw.keys
    n = bw.n
    cons = np.full((n, n), float(connections))
    np.fill_diagonal(cons, 1)
    achievable = bw.values * cons
    np.fill_diagonal(achievable, 0.0)
    return GlobalPlan(
        keys=keys,
        relations=np.ones((n, n), dtype=int),
        min_connections=BandwidthMatrix(keys, cons.copy()),
        max_connections=BandwidthMatrix(keys, cons.copy()),
        min_bw=BandwidthMatrix(keys, achievable.copy()),
        max_bw=BandwidthMatrix(keys, achievable.copy()),
    )


def static_range_plan(
    bw: BandwidthMatrix,
    min_connections: int = 1,
    max_connections: int = DEFAULT_MAX_CONNECTIONS,
) -> GlobalPlan:
    """A fixed [min, max] window for every pair — the "Local only"
    ablation variant of §5.5 (local AIMD without inferred closeness)."""
    keys = bw.keys
    n = bw.n
    lo = np.full((n, n), float(min_connections))
    hi = np.full((n, n), float(max_connections))
    np.fill_diagonal(lo, 1)
    np.fill_diagonal(hi, 1)
    min_bw = bw.values * lo
    max_bw = bw.values * hi
    np.fill_diagonal(min_bw, 0.0)
    np.fill_diagonal(max_bw, 0.0)
    return GlobalPlan(
        keys=keys,
        relations=np.ones((n, n), dtype=int),
        min_connections=BandwidthMatrix(keys, lo),
        max_connections=BandwidthMatrix(keys, hi),
        min_bw=BandwidthMatrix(keys, min_bw),
        max_bw=BandwidthMatrix(keys, max_bw),
    )
