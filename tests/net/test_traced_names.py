"""The calls the benchmark's tracer wraps carry the WAN step's work.

``perfbench/tracer.py`` attributes repricing to
``NetworkSimulator.pair_capacity``, weather to
``FluctuationModel.factor`` and the max-min solve to the module global
``repro.net.simulator.allocate``.  A speedup that priced or solved
around those names would empty the traced layers while the run still
passed, so the counts are pinned exactly here, on the deterministic
drains of ``test_deferred_solve.py``: one ``allocate`` per solve, one
``pair_capacity`` per active pair per solve, and one ``factor`` per
priced off-diagonal link.
"""

import pytest
from test_deferred_solve import REGIONS, _run

import repro.net.simulator as simulator_module
from repro.net.dynamics import FluctuationModel
from repro.net.simulator import NetworkSimulator
from repro.runtime.scenarios import scenario


class _Spy:
    def __init__(self, monkeypatch) -> None:
        self.flows = []
        self.priced = []
        self.factors = []
        allocate = simulator_module.allocate
        pair_capacity = NetworkSimulator.pair_capacity
        factor = FluctuationModel.factor

        def spy_allocate(src, dst, weight, cap, egress, ingress):
            self.flows.append(len(weight))
            return allocate(src, dst, weight, cap, egress, ingress)

        def spy_pair_capacity(net, src, dst, connections):
            self.priced.append((src, dst))
            return pair_capacity(net, src, dst, connections)

        def spy_factor(model, i, j, t):
            self.factors.append((i, j))
            return factor(model, i, j, t)

        monkeypatch.setattr(simulator_module, "allocate", spy_allocate)
        monkeypatch.setattr(NetworkSimulator, "pair_capacity", spy_pair_capacity)
        monkeypatch.setattr(FluctuationModel, "factor", spy_factor)


@pytest.mark.parametrize("kernel", ["scalar", "vectorized"])
@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("weather", ["fluctuation", "link-failure"])
def test_traced_calls_carry_the_work(monkeypatch, seed, kernel, weather):
    spy = _Spy(monkeypatch)
    model = scenario(weather, seed=seed + 1) if weather != "fluctuation" else None
    run = _run(NetworkSimulator, seed, kernel, weather=model)
    assert run["solves"] > 0
    assert len(spy.flows) == run["solves"]
    assert len(spy.priced) == sum(spy.flows) > 0
    # Each priced pair reaches the weather once, for its own link.
    links = [(REGIONS.index(src), REGIONS.index(dst)) for src, dst in spy.priced]
    assert spy.factors == links
    assert all(i != j for i, j in links)
