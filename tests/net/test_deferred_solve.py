"""Differential tests: the once-per-instant solve against an eager oracle.

:class:`~repro.net.simulator.NetworkSimulator` defers its max-min
re-solve to the end of each simulated instant.  The test-only
:class:`EagerNetworkSimulator` solves on every change instead, which is
how the simulator behaved before deferral.  Over seeded random scripts
mixing same-instant bursts, cancels, zero-size transfers, traffic
control, connection changes, whole connection plans (some landing in
the same instant as a count change, a traffic-control limit and a
start on one pair), follow-up transfers and mid-instant observers,
with a daemon poller ticking on the script's grid, under
``FluctuationModel`` weather and both kernels, the two must agree bit
for bit: every transfer's finish time, the per-pair statistics and the
kernel's event count.
"""

import random

import pytest

from repro.net.dynamics import FluctuationModel
from repro.net.matrix import BandwidthMatrix
from repro.net.simulator import WEATHER_REFRESH_S, NetworkSimulator
from repro.net.topology import Topology
from repro.sim.kernel import Process

REGIONS = ("us-east-1", "us-west-1", "eu-west-1", "ap-southeast-1")
KERNELS = ("scalar", "vectorized")
SEEDS = range(12)
GRID_S = 0.5


class EagerNetworkSimulator(NetworkSimulator):
    """The oracle: every change re-solves at once."""

    def _reallocate(self) -> None:
        super()._reallocate()
        self._flush()


def _topology(regions=REGIONS):
    return Topology.build(regions, "t2.medium")


def _plan(rng: random.Random) -> list[list[float]]:
    """A connection-count matrix over ``REGIONS``: counts up to 12, past
    the knee, some fractional (installed truncated)."""
    return [
        [
            1.0 if src == dst else rng.randint(1, 12) + rng.choice((0.0, 0.0, 0.5))
            for dst in REGIONS
        ]
        for src in REGIONS
    ]


def _script(seed: int) -> list[tuple]:
    """A seeded list of ``(time, action, args)``, independent of any run.

    Times sit on a coarse grid so several actions share an instant;
    transfer references are indices into the run's started transfers.
    """
    rng = random.Random(seed)
    actions = []
    grid = [GRID_S * k for k in range(0, 80)]
    for _ in range(60):
        time = rng.choice(grid)
        roll = rng.random()
        if roll < 0.35:
            burst = rng.choice((1, 1, 2, 5))
            specs = []
            for _ in range(burst):
                src = rng.choice(REGIONS)
                dst = src if rng.random() < 0.1 else rng.choice(REGIONS)
                size = 0.0 if rng.random() < 0.1 else rng.uniform(20.0, 3000.0)
                follow = rng.choice((None, None, "direct", "zero-delay"))
                specs.append((src, dst, size, follow, rng.uniform(10.0, 800.0)))
            actions.append((time, "start", specs))
        elif roll < 0.5:
            actions.append((time, "cancel", rng.randrange(40)))
        elif roll < 0.62:
            src, dst = rng.sample(REGIONS, 2)
            actions.append((time, "tc-set", (src, dst, rng.uniform(30.0, 400.0))))
        elif roll < 0.7:
            src, dst = rng.sample(REGIONS, 2)
            actions.append((time, "tc-clear", (src, dst)))
        elif roll < 0.85:
            src, dst = rng.sample(REGIONS, 2)
            actions.append((time, "connections", (src, dst, rng.randint(1, 12))))
        elif roll < 0.92:
            actions.append((time, "plan", _plan(rng)))
        else:
            actions.append((time, "observe", None))
    # A new plan sharing its instant with a count change (before or
    # after it), a traffic-control limit and a start on one pair.
    for plan_first in (False, True, True):
        time = rng.choice(grid)
        src, dst = rng.sample(REGIONS, 2)
        change = (time, "connections", (src, dst, rng.randint(1, 12)))
        plan = (time, "plan", _plan(rng))
        actions.extend((plan, change) if plan_first else (change, plan))
        actions.append((time, "tc-set", (src, dst, rng.uniform(30.0, 400.0))))
        actions.append((time, "start", [(src, dst, rng.uniform(20.0, 3000.0), None, 0.0)]))
    return actions


def _run(cls, seed: int, kernel: str, weather=None, time_offset: float = 0.0):
    """Play the script; return everything the comparison reads.

    The weather is ``FluctuationModel(seed=seed + 1)`` unless given.
    """
    net = cls(
        _topology(),
        fluctuation=weather if weather is not None else FluctuationModel(seed=seed + 1),
        kernel=kernel,
        time_offset=time_offset,
    )
    sim = net.sim
    transfers = []
    order = []
    observed = []

    def start(src, dst, size, follow, follow_size):
        index = len(transfers)

        def done(_transfer):
            order.append(index)
            if follow == "direct":
                start(dst, src, follow_size, None, 0.0)
            elif follow == "zero-delay":
                sim.schedule(0.0, lambda: start(dst, src, follow_size, None, 0.0))

        transfers.append(net.start_transfer(src, dst, size, on_complete=done))

    def act(action, args):
        if action == "start":
            for spec in args:
                start(*spec)
        elif action == "cancel":
            if transfers:
                net.cancel_transfer(transfers[args % len(transfers)])
        elif action == "tc-set":
            net.tc.set_limit(*args)
        elif action == "tc-clear":
            net.tc.clear_limit(*args)
        elif action == "connections":
            net.set_connections(*args)
        elif action == "plan":
            net.set_connection_plan(BandwidthMatrix(REGIONS, args))
        else:
            observed.append(
                (sim.now, net.rate_matrix().values.tobytes(), len(net.active_transfers()))
            )

    for time, action, args in _script(seed):
        sim.schedule_at(time, lambda a=action, g=args: act(a, g))
    # A daemon poller shares every scripted instant, as the service's
    # monitors share the instants of its transfer changes.
    Process(sim, GRID_S, lambda now: None, start_delay=GRID_S)
    sim.run()
    stats = {
        pair: (s.mbits, s.active_seconds, s.min_rate_mbps)
        for pair, s in net.pair_statistics().items()
    }
    return {
        "finishes": [(t.finish_time, t.cancelled) for t in transfers],
        "order": order,
        "stats": stats,
        "events": sim.events_processed,
        "now": sim.now,
        "observed": observed,
        "solves": net.solves,
        "requests": net.solve_requests,
    }


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", SEEDS)
def test_deferred_solve_matches_eager_oracle(seed, kernel):
    eager = _run(EagerNetworkSimulator, seed, kernel)
    deferred = _run(NetworkSimulator, seed, kernel)
    for key in ("finishes", "order", "stats", "events", "now", "observed"):
        assert deferred[key] == eager[key], key
    assert any(finish is not None for finish, _ in deferred["finishes"])
    # Same changes asked for a solve; deferral ran fewer solves.
    assert deferred["requests"] == eager["requests"]
    assert eager["solves"] == eager["requests"]
    assert deferred["solves"] < eager["solves"]


def _empty_then_refill(cls):
    """A completion whose callback restarts its pair through a zero-delay
    event; returns the two finishes and the weather refresh pending
    right after the refill."""
    triad = ("us-east-1", "us-west-1", "ap-southeast-1")
    src, dst = triad[0], triad[2]
    net = cls(_topology(triad), fluctuation=FluctuationModel(seed=3))
    sim = net.sim
    follow = []

    def refill(_transfer):
        sim.schedule(0.0, lambda: follow.append(net.start_transfer(src, dst, 2000.0)))

    # Sized to finish between two weather refreshes.
    first = net.start_transfer(src, dst, net.pair_capacity(src, dst, 1) * 7.0, on_complete=refill)
    sim.run(until=7.5)
    refresh = net._weather_event.time
    sim.run()
    return first.finish_time, follow[0].finish_time, refresh


def test_pair_emptied_and_refilled_within_an_instant_gets_fresh_weather():
    """The weather refresh restarts from the refill, as it did when every
    change solved at once.  Scheduling it lazily, at the deferred solve,
    would keep the emptied pair's old refresh time and move the next
    finish."""
    first, follow, refresh = _empty_then_refill(NetworkSimulator)
    assert WEATHER_REFRESH_S < first < 2 * WEATHER_REFRESH_S
    assert refresh == first + WEATHER_REFRESH_S
    assert (first, follow, refresh) == _empty_then_refill(EagerNetworkSimulator)


def test_burst_of_starts_solves_once():
    net = NetworkSimulator(_topology(), fluctuation=FluctuationModel(seed=5))
    oracle = EagerNetworkSimulator(_topology(), fluctuation=FluctuationModel(seed=5))
    pairs = [(a, b) for a in REGIONS for b in REGIONS if a != b][:6]
    for subject in (net, oracle):
        subject.sim.schedule(
            1.0,
            lambda s=subject: [s.start_transfer(a, b, 500.0) for a, b in pairs],
        )
        subject.sim.run(until=1.0)
    assert net.solve_requests == oracle.solve_requests == len(pairs)
    assert oracle.solves == len(pairs)
    assert net.solves == 1


def _start_at_a_poller_tick(cls, at):
    """One transfer started at an instant that a daemon poller shares:
    from an event at ``at``, or before the run when ``at`` is 0."""
    net = cls(_topology())
    sim = net.sim
    started = []

    def start():
        started.append(net.start_transfer("us-east-1", "eu-west-1", 100.0))

    if at:
        sim.schedule(at, start)
    else:
        start()
    Process(sim, 1.0, lambda now: None, start_delay=at)
    sim.run()
    return started[0].finish_time, sim.now


@pytest.mark.parametrize("at", (0.0, 1.0))
def test_start_at_a_daemon_tick_still_completes(at):
    """The start's solve is deferred past the poller's same-instant
    tick; the open-ended run must not end before that solve schedules
    the completion."""
    finish, now = _start_at_a_poller_tick(NetworkSimulator, at)
    assert finish is not None and finish > at
    assert now == finish
    assert (finish, now) == _start_at_a_poller_tick(EagerNetworkSimulator, at)


def test_observer_flushes_pending_solve():
    net = NetworkSimulator(_topology())
    transfer = net.start_transfer("us-east-1", "eu-west-1", 800.0)
    assert net.solves == 0  # deferred: nothing has solved yet
    assert net.current_rate("us-east-1", "eu-west-1") > 0
    assert net.solves == 1
    assert transfer.rate_mbps > 0
    net.sim.run()
    assert net.solves == 2  # the completion's re-solve; the pending flush was spent
    assert transfer.finish_time is not None
