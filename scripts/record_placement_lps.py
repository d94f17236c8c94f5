#!/usr/bin/env python
"""Record placement LPs with HiGHS's answers, as a test fixture.

Runs the 21 fast figure renderings (``check_experiments.render_all``)
and one serve-online repetition at seed 1 (``perfbench/workloads.py``)
with :meth:`repro.gda.systems.tetrium.PlacementLp.solve` replaced by
:func:`highs_solve`: the LP in its full form, one row per link, NIC and
compute constraint (:func:`highs_rows`), solved by
``scipy.optimize.linprog(method="highs")``.  The runs therefore take
HiGHS's placement decisions, and every LP they meet is recorded with
HiGHS's objective and its fractions after ``solve_placement_lp``'s clip
and renormalisation.

Identical instances are recorded once.  The fixture is
``tests/gda/placement_lps.npz``: one ``n`` per instance, and each
per-DC field concatenated over the instances (``link_mb_s`` row-major,
``n × n`` each).  ``tests/gda/test_placement_oracle.py`` replays it
against the in-repo solver without scipy.

This is the only script that needs scipy.  Run it (about ten seconds)::

    python scripts/record_placement_lps.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "perfbench"))
sys.path.insert(0, str(REPO / "scripts"))

from repro.gda.systems.tetrium import (  # noqa: E402
    TRANSFER_OVERHEAD,
    PlacementLp,
    normalised,
)

FIXTURE = REPO / "tests" / "gda" / "placement_lps.npz"

#: Per-DC fields, concatenated over the instances.
VECTORS = ("data_mb", "ingress_mb_s", "egress_mb_s", "compute_s", "cost", "cap")


def highs_rows(lp: PlacementLp) -> dict:
    """``linprog``'s arguments for ``lp``: a row per link from each
    sending DC, per DC's ingress, per sending DC's egress and per DC's
    compute, in that order."""
    data = lp.data_mb
    n = len(data)
    total = data.sum()
    c = np.zeros(n + 2)
    c[:n] = lp.cost
    c[n] = 1.0
    c[n + 1] = 0.0 if lp.compute_s is None else 1.0
    rows, rhs = [], []
    for i in range(n):
        if data[i] <= 0:
            continue
        for j in range(n):
            if i == j:
                continue
            row = np.zeros(n + 2)
            row[j] = data[i] * TRANSFER_OVERHEAD
            row[n] = -lp.link_mb_s[i, j]
            rows.append(row)
            rhs.append(0.0)
    for j in range(n):
        row = np.zeros(n + 2)
        row[j] = (total - data[j]) * TRANSFER_OVERHEAD
        row[n] = -lp.ingress_mb_s[j]
        rows.append(row)
        rhs.append(0.0)
    for i in range(n):
        if data[i] <= 0:
            continue
        row = np.zeros(n + 2)
        row[i] = -data[i] * TRANSFER_OVERHEAD
        row[n] = -lp.egress_mb_s[i]
        rows.append(row)
        rhs.append(-data[i] * TRANSFER_OVERHEAD)
    if lp.compute_s is not None:
        for j in range(n):
            row = np.zeros(n + 2)
            row[j] = lp.compute_s[j]
            row[n + 1] = -1.0
            rows.append(row)
            rhs.append(0.0)
    a_eq = np.zeros((1, n + 2))
    a_eq[0, :n] = 1.0
    bounds = [(0.0, float(u)) for u in lp.cap] + [(0.0, None), (0.0, None)]
    return dict(
        c=c,
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        A_eq=a_eq,
        b_eq=np.array([1.0]),
        bounds=bounds,
        method="highs",
    )


def highs_solve(lp: PlacementLp):
    """``PlacementLp.solve`` by HiGHS."""
    from scipy.optimize import linprog

    result = linprog(**highs_rows(lp))
    if not result.success:
        return None
    return float(result.fun), result.x[: len(lp.data_mb)]


def record() -> list[tuple[PlacementLp, float, np.ndarray]]:
    """Every distinct LP the runs meet, with HiGHS's objective and
    final fractions, in the order first met."""
    from check_experiments import render_all
    from workloads import WORKLOADS

    seen: dict[bytes, tuple[PlacementLp, float, np.ndarray]] = {}

    def recording_solve(lp: PlacementLp):
        optimum = highs_solve(lp)
        if optimum is None:
            raise RuntimeError("HiGHS found no optimum for a recorded LP")
        seen.setdefault(_key(lp), (lp, optimum[0], normalised(optimum[1])))
        return optimum

    original = PlacementLp.solve
    PlacementLp.solve = recording_solve
    try:
        render_all()
        serve = WORKLOADS["serve-online"]
        serve.rep(serve.setup(1))
    finally:
        PlacementLp.solve = original
    return list(seen.values())


def _key(lp: PlacementLp) -> bytes:
    compute = lp.compute_s if lp.compute_s is not None else np.array([np.nan])
    return b"".join(
        np.ascontiguousarray(v, dtype=float).tobytes()
        for v in (lp.data_mb, lp.link_mb_s, lp.ingress_mb_s, lp.egress_mb_s,
                  compute, lp.cost, lp.cap)
    )


def write(instances, path: Path = FIXTURE) -> None:
    """The fixture described in the module docstring."""
    n = np.array([len(lp.data_mb) for lp, _, _ in instances])
    fields = {
        name: np.concatenate([
            np.full(len(lp.data_mb), np.nan)
            if getattr(lp, name) is None
            else getattr(lp, name)
            for lp, _, _ in instances
        ])
        for name in VECTORS
    }
    np.savez_compressed(
        path,
        n=n,
        link_mb_s=np.concatenate([lp.link_mb_s.ravel() for lp, _, _ in instances]),
        objective=np.array([objective for _, objective, _ in instances]),
        fractions=np.concatenate([f for _, _, f in instances]),
        **fields,
    )


def main() -> int:
    instances = record()
    write(instances)
    sizes = sorted({len(lp.data_mb) for lp, _, _ in instances})
    print(f"{len(instances)} distinct LPs (DC counts {sizes}) -> {FIXTURE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
