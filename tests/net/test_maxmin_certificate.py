"""A max-min certificate that depends on neither solver.

An allocation is weighted max-min fair when it is feasible and every
flow is bottlenecked:

* feasibility: every rate lies in ``[0, cap]``, and every finite NIC
  carries at most its capacity;
* bottleneck: every flow with a finite bound (a finite cap, or a
  finite NIC on either end) is at its cap, or crosses a saturated NIC
  on which its ``rate / weight`` is the largest.

:func:`violations` checks both from the inputs and the rates alone, on
the random instances and recorded drain solves of
``test_sharing_oracle.py``.  It is run against the round-by-round oracle
too, so the certificate is itself checked: the oracle passes it
everywhere except on the instances where its no-progress guard stops
the fill short.

"Saturated" and "at its cap" allow ``1e-9 + 1e-12·|x|`` Mbps: the
oracle freezes a flow once it is within ``1e-9`` of its cap and a NIC
once ``1e-9`` or less of it remains, and sums of rates round.
"""

import math
import random

import pytest
from oracle_sharing import PairFlow
from oracle_sharing import allocate as oracle_allocate
from test_sharing_oracle import (
    ORACLE_SHORT_FILLS,
    RANDOM_INSTANCES,
    _random_instance,
    _recorded_solves,
    solve,
)

SOLVERS = {"allocate": solve, "oracle": oracle_allocate}


def _slack(x: float) -> float:
    return 1e-9 + 1e-12 * abs(x)


def violations(flows, egress, ingress, rates) -> list[tuple]:
    """Every way ``rates`` fails to be a weighted max-min allocation of
    ``flows`` on the NICs ``egress``/``ingress`` (empty if none)."""
    found = []
    nics = [*egress, *ingress]
    # NaN and infinite NICs never saturate (NaN fails ``<`` too).
    finite = [c < math.inf for c in nics]
    ends = [(f.src, len(egress) + f.dst) for f in flows]
    load = [0.0] * len(nics)
    top = [0.0] * len(nics)  # the largest rate / weight through each NIC
    for flow, rate, pair in zip(flows, rates, ends):
        if not 0.0 <= rate <= flow.cap:
            found.append(("outside [0, cap]", flow, rate))
        for r in pair:
            load[r] += rate
            top[r] = max(top[r], rate / flow.weight)
    for r, c in enumerate(nics):
        if finite[r] and load[r] > max(c, 0.0) + _slack(c):
            found.append(("NIC over capacity", r, load[r], c))
    saturated = [finite[r] and load[r] >= c - _slack(c) for r, c in enumerate(nics)]
    for flow, rate, pair in zip(flows, rates, ends):
        if flow.cap == math.inf and not any(finite[r] for r in pair):
            continue  # unbounded: any rate is max-min
        if rate >= flow.cap - _slack(flow.cap):
            continue
        level = rate / flow.weight
        if not any(saturated[r] and level >= top[r] - _slack(top[r]) for r in pair):
            found.append(("not bottlenecked", flow, rate))
    return found


class TestCertificate:
    """The certificate rejects what is not max-min."""

    FLOWS = [PairFlow(0, 1, 1.0, 100.0), PairFlow(0, 1, 3.0, 100.0)]

    def test_accepts_the_weighted_split(self):
        assert violations(self.FLOWS, [40.0, 1e3], [1e3, 1e3], [10.0, 30.0]) == []

    @pytest.mark.parametrize(
        "rates, kind",
        [
            ([10.0, 20.0], "not bottlenecked"),  # 10 Mbps left idle
            ([20.0, 20.0], "not bottlenecked"),  # the light flow gets more per weight
            ([15.0, 30.0], "NIC over capacity"),
            ([-1.0, 41.0], "outside [0, cap]"),
        ],
    )
    def test_rejects(self, rates, kind):
        found = violations(self.FLOWS, [40.0, 1e3], [1e3, 1e3], rates)
        assert kind in {v[0] for v in found}


@pytest.mark.parametrize("solver", SOLVERS)
def test_random_instances_certified(solver):
    solve = SOLVERS[solver]
    rng = random.Random(2025)
    failed = 0
    for _ in range(RANDOM_INSTANCES):
        flows, egress, ingress = _random_instance(rng)
        found = violations(flows, egress, ingress, solve(flows, egress, ingress))
        if found:
            failed += 1
            assert solver == "oracle", (found, egress, ingress)
            # Only a stopped fill leaves flows short; it never overloads.
            assert {v[0] for v in found} == {"not bottlenecked"}
    assert failed == (ORACLE_SHORT_FILLS if solver == "oracle" else 0)


#: Instances whose live weight on a NIC sums past the largest double:
#: priced at ``nic / inf``, their flows froze at 0.
OVERFLOWING_WEIGHTS = {
    "two-huge": ([PairFlow(0, 1, 1e308, 100.0)] * 2, [10.0, 10.0], [10.0, 10.0]),
    "huge-and-light": (
        [PairFlow(0, 1, 1e308, 100.0), PairFlow(0, 1, 1e308, 100.0), PairFlow(0, 1, 1.0, 100.0)],
        [10.0, 10.0],
        [10.0, 10.0],
    ),
    # The capped flow freezes first; the NIC is re-priced on the rest.
    "reprice-after-cap": (
        [PairFlow(0, 1, 1e308, 1.0), PairFlow(0, 1, 1e308, 100.0), PairFlow(0, 1, 1e308, 100.0)],
        [10.0, 10.0],
        [10.0, 10.0],
    ),
    "uncapped-two-nics": (
        [
            PairFlow(0, 1, 1.5e308, math.inf),
            PairFlow(0, 2, 1e308, math.inf),
            PairFlow(1, 2, 1e308, math.inf),
        ],
        [30.0, 20.0, math.inf],
        [math.inf, 40.0, 25.0],
    ),
}


@pytest.mark.parametrize("name", OVERFLOWING_WEIGHTS)
def test_overflowing_weight_sums_certified(name):
    flows, egress, ingress = OVERFLOWING_WEIGHTS[name]
    rates = solve(flows, egress, ingress)
    assert violations(flows, egress, ingress, rates) == []
    assert min(rates) > 0.0


@pytest.mark.parametrize("solver", SOLVERS)
def test_recorded_drain_solves_certified(monkeypatch, solver):
    calls = _recorded_solves(monkeypatch, "scalar")
    assert len(calls) > 50
    for flows, egress, ingress in calls:
        rates = SOLVERS[solver](flows, egress, ingress)
        assert violations(flows, egress, ingress, rates) == []
