"""Differential tests: the max-min solve and the simulator's flush
against the copies kept in ``oracle_sharing.py``.

:func:`repro.net.sharing.allocate` jumps from freeze event to freeze
event; the oracle raises the level round by round.  Both compute the
same weighted max-min allocation but round differently, so their rates
are compared within :data:`RTOL` (relative, with no absolute slack: a
zero must stay zero) on:

* every solve of a short service drain under ``link-failure``, on
  either kernel (both solve with ``allocate``);
* seeded random instances: 1–8 DCs, 0–60 flows, zero, tiny and
  infinite caps, zero, NaN, infinite and huge NIC caps, tied weights
  and saturated NICs;
* hand-picked edge instances.

The largest relative difference observed on them is 1.5e-14 (random
instances; 2.8e-15 on the drain solves, 0 on the edge instances).

``allocate`` takes the flows as parallel lists; the instances here
are lists of the oracle's ``PairFlow`` records, and :func:`solve`
hands them to ``allocate`` column by column.

``NetworkSimulator._flush`` is still compared bit for bit (as packed
doubles, so ``-0.0``/``0.0`` and NaN count too): the deferred-solve
scripts of ``test_deferred_solve.py`` are replayed through the old
``_flush``, ``pair_capacity`` and ``_schedule_completion`` with the
current ``allocate``, under ``FluctuationModel`` weather and once under
``link-failure``.
"""

import math
import random
import struct

import pytest
from oracle_sharing import OracleNetworkSimulator, PairFlow
from oracle_sharing import allocate as oracle_allocate
from test_deferred_solve import _run

import repro.net.simulator as simulator_module
from repro.net.sharing import allocate
from repro.runtime.scenarios import scenario
from repro.runtime.service import PipelineService, ServiceConfig, default_job_mix

REGIONS = ("us-east-1", "us-west-1", "eu-west-1", "ap-southeast-1", "sa-east-1")
RANDOM_INSTANCES = 10_000

#: Largest relative difference allowed between ``allocate`` and the
#: oracle: under 10× the largest observed (1.5e-14).
RTOL = 1e-13

#: Random instances on which the oracle stops short of max-min.  Its
#: saturation test is absolute (remaining capacity ≤ 1e-9 Mbps), so on
#: the generator's huge NICs (1e11–1e13 Mbps) the rounding residue of a
#: round can stay above it; nothing freezes, and its no-progress guard
#: ends the fill with the other live flows below their max-min rates.
ORACLE_SHORT_FILLS = 12

#: Weather clock at the start of the link-failure replay: its hit
#: links are halfway down the scenario's 60 s ramp from t = 600 s, and
#: have collapsed before the script's run (about 40 s) ends.
LINK_FAILURE_OFFSET = 625.0


def solve(flows, egress, ingress):
    """``allocate`` on ``flows`` given as oracle :class:`PairFlow`
    records."""
    return allocate(
        [f.src for f in flows],
        [f.dst for f in flows],
        [f.weight for f in flows],
        [f.cap for f in flows],
        egress,
        ingress,
    )


def _bits(value):
    """``value`` with every float replaced by its packed IEEE bytes."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_bits(item) for item in value)
    return value


def _close(actual, expected) -> bool:
    return len(actual) == len(expected) and all(
        abs(a - e) <= RTOL * abs(e) for a, e in zip(actual, expected)
    )


def _assert_same_rates(flows, egress, ingress):
    expected = oracle_allocate(flows, egress, ingress)
    assert _close(solve(flows, egress, ingress), expected), (
        [(f.src, f.dst, f.weight, f.cap) for f in flows],
        egress,
        ingress,
    )


def _recorded_solves(monkeypatch, kernel: str) -> list[tuple]:
    """Every solve a short service drain runs on ``kernel``."""
    calls = []

    def record(src, dst, weight, cap, egress, ingress):
        flows = [PairFlow(*flow) for flow in zip(src, dst, weight, cap)]
        calls.append((flows, list(egress), list(ingress)))
        return allocate(src, dst, weight, cap, egress, ingress)

    monkeypatch.setattr(simulator_module, "allocate", record)
    config = ServiceConfig(
        regions=REGIONS,
        seed=31,
        online=True,
        max_concurrent=4,
        kernel=kernel,
        n_training_datasets=4,
        n_estimators=4,
    )
    service = PipelineService.build(
        config, weather=scenario("link-failure", seed=13)
    )
    for delay, job in default_job_mix(REGIONS, count=5, seed=7, scale_mb=1500.0):
        service.submit_at(delay * 0.3, job)
    service.run()
    service.stop()
    return calls


@pytest.mark.parametrize("kernel", ("scalar", "vectorized"))
def test_recorded_drain_solves_match(monkeypatch, kernel):
    calls = _recorded_solves(monkeypatch, kernel)
    assert len(calls) > 50
    assert max(len(flows) for flows, _, _ in calls) >= 10
    for flows, egress, ingress in calls:
        _assert_same_rates(flows, egress, ingress)


def _random_instance(rng: random.Random) -> tuple[list[PairFlow], list, list]:
    n_dcs = rng.randint(1, 8)
    weights = [rng.lognormvariate(0.0, 1.0) for _ in range(3)]
    caps = [rng.uniform(1.0, 500.0) for _ in range(3)]
    flows = []
    for _ in range(rng.randint(0, 60)):
        roll = rng.random()
        if roll < 0.1:
            cap = 0.0
        elif roll < 0.15:
            cap = 1e-10
        elif roll < 0.3:
            cap = math.inf
        elif roll < 0.5:
            cap = rng.choice(caps)  # tied caps
        else:
            cap = rng.uniform(0.0, 1000.0)
        weight = (
            rng.choice(weights) if rng.random() < 0.5 else rng.uniform(1e-3, 10.0)
        )
        flows.append(
            PairFlow(rng.randrange(n_dcs), rng.randrange(n_dcs), weight, cap)
        )

    def nic() -> float:
        roll = rng.random()
        if roll < 0.08:
            return 0.0
        if roll < 0.12:
            return math.nan
        if roll < 0.2:
            return math.inf
        if roll < 0.45:
            return rng.uniform(0.0, 20.0)  # saturates early
        if roll < 0.55:
            # Rounding leaves a residue above the saturation epsilon,
            # so nothing freezes: the no-progress guard ends the fill.
            return rng.uniform(1e11, 1e13)
        return rng.uniform(20.0, 2000.0)

    return flows, [nic() for _ in range(n_dcs)], [nic() for _ in range(n_dcs)]


def test_random_instances_match():
    rng = random.Random(2025)
    short = 0
    for _ in range(RANDOM_INSTANCES):
        flows, egress, ingress = _random_instance(rng)
        expected = oracle_allocate(flows, egress, ingress)
        actual = solve(flows, egress, ingress)
        if _close(actual, expected):
            continue
        # Where the oracle stopped short, the event-driven fill carries
        # on from the same frozen flows: no rate falls, and one rises.
        # (test_maxmin_certificate.py shows that the oracle's
        # allocation is not max-min there and this one is.)
        short += 1
        assert max(c for c in egress + ingress if c < math.inf) >= 1e11
        assert all(a >= e - RTOL * e for a, e in zip(actual, expected))
    assert short == ORACLE_SHORT_FILLS


@pytest.mark.parametrize(
    ("flows", "egress", "ingress"),
    [
        ([], [1.0], [1.0]),
        ([PairFlow(0, 1, 1.0, math.inf)], [math.inf] * 2, [math.inf] * 2),
        ([PairFlow(0, 1, 1.0, 5.0)] * 3, [math.nan] * 2, [10.0] * 2),
        ([PairFlow(0, 0, 2.0, 9.0), PairFlow(0, 0, 2.0, 9.0)], [4.0], [-0.0]),
        ([PairFlow(0, 1, 1e-300, 1e300)], [1e300] * 2, [1e300] * 2),
        ([PairFlow(0, 1, 1.0, 5.0), PairFlow(1, 0, 1.0, 5.0)], [-3.0, 8.0], [8.0] * 2),
    ],
    ids=[
        "empty",
        "unbounded",
        "nan-nic",
        "negative-zero-nic",
        "extremes",
        "negative-nic",
    ],
)
def test_edge_instances_match(flows, egress, ingress):
    _assert_same_rates(flows, egress, ingress)


class OracleFlushSimulator(OracleNetworkSimulator):
    """The old ``_flush``, ``pair_capacity`` and
    ``_schedule_completion`` around the current ``allocate``, so the
    replays pin the flush and the pricing alone."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._solve = solve


@pytest.mark.parametrize("kernel", ("scalar", "vectorized"))
@pytest.mark.parametrize("seed", range(4))
def test_flush_replays_match(seed, kernel):
    """The deferred-solve scripts finish every transfer at the same
    instant, with the same per-pair statistics, through either flush."""
    expected = _run(OracleFlushSimulator, seed, kernel)
    assert _bits(_run(simulator_module.NetworkSimulator, seed, kernel)) == _bits(
        expected
    )


@pytest.mark.parametrize("kernel", ("scalar", "vectorized"))
def test_flush_replay_under_link_failure_matches(kernel):
    """A replay whose links collapse mid-script, through either flush."""
    weather = scenario("link-failure", seed=13)
    expected = _run(
        OracleFlushSimulator, 0, kernel, weather=weather, time_offset=LINK_FAILURE_OFFSET
    )
    # Some links of the script's mesh have failed by the end.
    end = LINK_FAILURE_OFFSET + expected["now"]
    assert min(weather.shape(i, j, end) for i in range(4) for j in range(4) if i != j) < 0.1
    actual = _run(
        simulator_module.NetworkSimulator,
        0,
        kernel,
        weather=weather,
        time_offset=LINK_FAILURE_OFFSET,
    )
    assert _bits(actual) == _bits(expected)
