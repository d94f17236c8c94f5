"""The placement LP against HiGHS on every recorded instance.

``placement_lps.npz`` holds the distinct LPs that the 21 fast figure
renderings and one serve-online repetition (seed 1) solve, each with
the objective and final fractions ``scipy.optimize.linprog(method=
"highs")`` gave for it.  ``scripts/record_placement_lps.py`` writes it
(and is the only place that needs scipy); this test replays it against
:meth:`PlacementLp.solve` without scipy.  Every recorded instance has a
unique optimal fraction vector, so an exact solver must return HiGHS's
fractions up to rounding.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.gda.systems.tetrium import PlacementLp, normalised

FIXTURE = Path(__file__).with_name("placement_lps.npz")


def recorded() -> list[tuple[PlacementLp, float, np.ndarray]]:
    """``(lp, HiGHS objective, HiGHS fractions)`` per recorded LP."""
    with np.load(FIXTURE) as f:
        fields = {name: f[name] for name in f.files}
    sizes = fields["n"]
    ends = np.cumsum(sizes)
    square_ends = np.cumsum(sizes * sizes)
    out = []
    for k, n in enumerate(sizes):
        dcs = slice(ends[k] - n, ends[k])
        compute = fields["compute_s"][dcs]
        lp = PlacementLp(
            data_mb=fields["data_mb"][dcs],
            link_mb_s=fields["link_mb_s"][
                square_ends[k] - n * n : square_ends[k]
            ].reshape(n, n),
            ingress_mb_s=fields["ingress_mb_s"][dcs],
            egress_mb_s=fields["egress_mb_s"][dcs],
            compute_s=None if np.isnan(compute).all() else compute,
            cost=fields["cost"][dcs],
            cap=fields["cap"][dcs],
        )
        out.append((lp, float(fields["objective"][k]), fields["fractions"][dcs]))
    return out


INSTANCES = recorded()


def test_fixture_covers_every_system_and_size():
    kinds = {
        "iridium" if lp.compute_s is None
        else "kimchi" if (lp.cost > 0).any()
        else "tetrium"
        for lp, _, _ in INSTANCES
    }
    assert kinds == {"tetrium", "kimchi", "iridium"}
    assert {len(lp.data_mb) for lp, _, _ in INSTANCES} == {3, 4, 8}


@pytest.mark.parametrize("k", range(len(INSTANCES)))
def test_matches_highs(k):
    lp, objective, fractions = INSTANCES[k]
    optimum = lp.solve()
    assert optimum is not None
    assert optimum[0] == pytest.approx(objective, rel=1e-9)
    np.testing.assert_allclose(
        normalised(optimum[1]), fractions, rtol=0.0, atol=1e-6
    )
