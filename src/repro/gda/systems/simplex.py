"""A dense dual simplex for the placement LP (:mod:`.tetrium`).

Solves ::

    minimize    c · x
    subject to  a_i · x ≤ b_i   (rows where ``equal`` is False)
                a_i · x = b_i   (rows where ``equal`` is True)
                0 ≤ x ≤ upper   (``upper`` may be infinite)

for ``c ≥ 0``, or ``c_j < 0`` only where ``upper_j`` is finite.  Then the
all-slack basis, with each column at the bound its cost prefers, is dual
feasible, and the dual simplex reaches the optimum from it with no first
phase: each pivot moves one out-of-bounds basic variable (a violated row
or a column past its bound) onto that bound, and the ratio test keeps
every reduced cost on the side its column's bound allows.

The placement LP has at most ``3n + 1`` rows and ``n + 2`` columns for
``n`` DCs, so the whole tableau is kept and each pivot is one rank-1
update.  The pivot rule is fixed (see :func:`solve`) and so is the pivot
budget (:data:`MAX_PIVOTS`), so a solve is deterministic; a budget that
runs out, a row that nothing can repair (an infeasible LP), a singular
final basis or a negative cost on an unbounded column returns ``None``;
a non-finite coefficient raises ``ValueError``.  The returned
vertex is solved afresh from the final basis and the original rows, so
it carries one solve's roundoff, not the pivots' accumulated roundoff.

Rows are scaled to a largest coefficient of 1 before the first pivot,
so the feasibility tolerance (:data:`FEASIBILITY_TOL`) is relative to
the data rather than an absolute cut-off that roundoff could cross.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Pivots allowed before a solve gives up.  The placement LPs of the
#: figures and the service take 12 on average and 20 at most.
MAX_PIVOTS = 100

#: A basic variable this far past a bound, on the row-scaled problem,
#: still counts as within it.
FEASIBILITY_TOL = 1e-9

#: Row entries below this fraction of the row's largest entry are
#: roundoff and never pivoted on.
PIVOT_TOL = 1e-9


@dataclass(frozen=True)
class Solution:
    """An optimal vertex: the columns, the objective and one dual value
    per row (≤ 0 on an inequality row, free on an equality row)."""

    x: np.ndarray
    objective: float
    duals: np.ndarray
    pivots: int


def solve(
    c: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    equal: np.ndarray,
    upper: np.ndarray,
    max_pivots: int = MAX_PIVOTS,
) -> Optional[Solution]:
    """The optimum of the LP above, or ``None`` when it cannot be found.

    Pivot rule: the leaving row is the basic variable farthest out of
    its bounds; the entering column is the one with the smallest ratio
    of reduced cost to row entry.  Exact ties go to the lowest index.
    """
    m, n = a.shape
    if not (
        np.isfinite(c).all()
        and np.isfinite(a).all()
        and np.isfinite(b).all()
        and not np.isnan(upper).any()
    ):
        raise ValueError("LP coefficients must be finite")
    if np.isinf(upper[c < 0]).any():
        return None
    scale = np.abs(a).max(axis=1)
    scale[scale == 0.0] = 1.0
    # Columns 0..n-1 are x, n..n+m-1 the rows' slacks (an equality
    # row's slack is fixed at 0).
    tab = np.hstack([a / scale[:, None], np.eye(m)])
    high = np.concatenate([upper, np.where(equal, 0.0, np.inf)])
    cost = np.concatenate([c, np.zeros(m)])
    at_upper = cost < 0
    values = np.where(at_upper, high, 0.0)
    basis = np.arange(n, n + m)
    beta = b / scale - tab[:, :n] @ values[:n]
    d = cost.copy()
    is_basic = np.zeros(n + m, dtype=bool)
    is_basic[basis] = True
    for pivots in range(max_pivots + 1):
        gap = np.maximum(-beta, beta - high[basis])
        r = int(np.argmax(gap))
        if gap[r] <= FEASIBILITY_TOL:
            break
        if pivots == max_pivots:
            return None
        below = beta[r] < 0.0
        row = tab[r]
        # The leaving variable goes down to 0 (below) or up to its
        # bound; an entering column must move it that way when it
        # leaves the bound it sits at.
        push = np.where(at_upper, -row, row)
        if below:
            push = -push
        candidates = np.flatnonzero(
            ~is_basic & (push > PIVOT_TOL * np.abs(row).max())
        )
        if candidates.size == 0:
            return None
        slack = np.where(at_upper, -d, d)[candidates]
        q = candidates[np.argmin(np.maximum(slack, 0.0) / push[candidates])]
        target = 0.0 if below else high[basis[r]]
        theta = (beta[r] - target) / row[q]
        column = tab[:, q].copy()
        beta -= theta * column
        beta[r] = values[q] + theta
        d -= (d[q] / row[q]) * row
        pivot_row = row / row[q]
        tab -= np.outer(column, pivot_row)
        tab[r] = pivot_row
        leaving = basis[r]
        at_upper[leaving] = not below
        values[leaving] = target
        is_basic[leaving] = False
        at_upper[q] = False
        is_basic[q] = True
        basis[r] = q
    # The vertex from the final basis, solved afresh rather than read
    # from the updated tableau, so it carries one solve's roundoff.
    full = np.hstack([a, np.eye(m)])
    nonbasic = ~is_basic
    x = values.copy()
    try:
        x[basis] = np.linalg.solve(
            full[:, basis], b - full[:, nonbasic] @ values[nonbasic]
        )
    except np.linalg.LinAlgError:
        return None
    return Solution(
        x=x[:n],
        objective=float(c @ x[:n]),
        duals=-d[n:] / scale,
        pivots=pivots,
    )
