"""The dual simplex behind the placement LP, checked by certificate.

An optimal vertex proves itself: it is feasible, its duals are feasible
(≤ 0 on every inequality row), and every reduced cost and row slack is
complementary to its bound.  Random bounded LPs are checked that way,
so the solver is tested without any other solver to compare with.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gda.systems import simplex

TOL = 1e-7


def random_lp(seed: int):
    """A feasible LP with a few equality rows, some finite upper bounds
    and ``c ≥ 0`` wherever a column is unbounded above."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 25)), int(rng.integers(2, 12))
    a = rng.normal(size=(m, n)) * rng.choice([0.0, 1.0], size=(m, n), p=[0.3, 0.7])
    upper = np.where(rng.random(n) < 0.5, rng.uniform(0.5, 3.0, n), np.inf)
    c = rng.normal(size=n)
    c[np.isinf(upper)] = np.abs(c[np.isinf(upper)])
    x0 = rng.uniform(0.0, 1.0, n) * np.where(np.isinf(upper), 2.0, upper)
    equal = rng.random(m) < 0.2
    b = a @ x0 + np.where(equal, 0.0, rng.uniform(0.0, 1.0, m))
    return c, a, b, equal, upper


def assert_optimal(c, a, b, equal, upper, solution):
    x, y = solution.x, solution.duals
    scale = 1.0 + np.abs(a).sum(axis=1) * (1.0 + np.abs(x).max())
    slack = b - a @ x
    assert (x >= -TOL).all() and (x <= upper + TOL).all()
    assert (np.abs(slack[equal]) <= TOL * scale[equal]).all()
    assert (slack[~equal] >= -TOL * scale[~equal]).all()
    assert (y[~equal] <= TOL).all()
    assert (np.abs(y * slack) <= TOL * scale * (1.0 + np.abs(y))).all()
    reduced = c - a.T @ y
    size = TOL * (1.0 + np.abs(c) + np.abs(a.T) @ np.abs(y))
    assert (reduced[x < upper - TOL] >= -size[x < upper - TOL]).all()
    assert (reduced[x > TOL] <= size[x > TOL]).all()
    assert solution.objective == pytest.approx(c @ x, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(200))
def test_random_lp_optimum_has_a_certificate(seed):
    lp = random_lp(seed)
    solution = simplex.solve(*lp)
    assert solution is not None
    assert_optimal(*lp, solution)


def test_same_inputs_same_vertex():
    lp = random_lp(7)
    first, second = simplex.solve(*lp), simplex.solve(*lp)
    assert first.x.tobytes() == second.x.tobytes()
    assert first.pivots == second.pivots


def test_known_optimum():
    # min x + 2y  s.t.  x + y = 1, x ≤ 0.25  →  x = 0.25, y = 0.75.
    solution = simplex.solve(
        np.array([1.0, 2.0]),
        np.array([[1.0, 1.0]]),
        np.array([1.0]),
        np.array([True]),
        np.array([0.25, np.inf]),
    )
    np.testing.assert_allclose(solution.x, [0.25, 0.75], atol=1e-15)
    assert solution.objective == pytest.approx(1.75)


def test_negative_cost_starts_at_the_upper_bound():
    # max x  s.t.  x ≤ 3 (row), x ≤ 5 (bound)  →  x = 3.
    solution = simplex.solve(
        np.array([-1.0]),
        np.array([[1.0]]),
        np.array([3.0]),
        np.array([False]),
        np.array([5.0]),
    )
    assert solution.x[0] == pytest.approx(3.0)
    assert solution.duals[0] == pytest.approx(-1.0)


class TestNoOptimum:
    def test_infeasible(self):
        # x + y = 1 with both capped at 0.3.
        assert simplex.solve(
            np.zeros(2),
            np.array([[1.0, 1.0]]),
            np.array([1.0]),
            np.array([True]),
            np.array([0.3, 0.3]),
        ) is None

    def test_pivot_budget(self):
        lp = random_lp(3)
        assert simplex.solve(*lp).pivots > 0
        assert simplex.solve(*lp, max_pivots=0) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_raises(self, bad):
        c, a, b, equal, upper = random_lp(5)
        a[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            simplex.solve(c, a, b, equal, upper)

    def test_unbounded_negative_cost(self):
        # min −x with x unbounded above has no optimum.
        assert simplex.solve(
            np.array([-1.0]),
            np.array([[0.0]]),
            np.array([1.0]),
            np.array([False]),
            np.array([np.inf]),
        ) is None
