"""Fault injection against a live :class:`PipelineService`.

The chaos tier's contract is *invariants under faults*: whatever the
injector does mid-run, the service must come out the other side with
its books balanced.  Four fault families cover the subsystems this
repo's runtime grew — circuits (network), telemetry (estimation),
recalibration (control), and shard workers (scale-out):

``kill_circuit``
    Pin a directed pair's weather factor to the scenario floor by
    wrapping the network's fluctuation model — the same mechanism the
    circuit scenarios use, but imperative and mid-run.  ``restore``
    undoes it (failover-and-recover chaos).
``corrupt_telemetry``
    Feed absurd throughput samples for seeded-random pairs straight
    into the shared :class:`~repro.runtime.telemetry.TelemetryStore`,
    as a buggy or compromised monitor would.
``stall_recalibrator``
    Swallow the next N recalibration ticks
    (:meth:`~repro.runtime.recalibrator.CapacityRecalibrator.stall`) —
    the gauger process wedging while the world keeps moving.
``poison_shard_task``
    A :class:`~repro.runtime.scheduling.parallel.ShardTask` clone whose
    worker process crashes on arrival (its admission-policy name does
    not resolve), for killing workers mid-drain.

Faults are scheduled onto the service's own simulator clock via
:meth:`FaultInjector.at`, so a chaos test reads as a timeline.  Every
injection is appended to :attr:`FaultInjector.log` for assertions
("the corruption actually landed").
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Optional

from repro.runtime.scenarios import FACTOR_FLOOR
from repro.runtime.scheduling.parallel import ShardTask

#: A corrupt sample's order of magnitude (Mbps) — far above any real
#: link, so a recalibrator that trusted it would blow through its
#: ceiling guard, which is exactly what the bounds invariant checks.
ABSURD_RATE_MBPS = 1.0e7

#: The admission-policy name no registry resolves; a worker handed a
#: task carrying it dies with ``KeyError`` while rebuilding its shard.
POISON_ADMISSION = "chaos-crashed-worker"


class KilledCircuits:
    """A fluctuation-model proxy pinning killed pairs to the floor.

    Wraps any ``factor``/``snapshot_jitter`` model; pairs in
    :attr:`killed` (topology indices, directed) read
    :data:`~repro.runtime.scenarios.FACTOR_FLOOR` — a dead-but-not-
    disconnected circuit, matching the scenario layer's convention.
    """

    def __init__(self, inner, floor: float = FACTOR_FLOOR) -> None:
        self.inner = inner
        self.floor = floor
        self.killed: set[tuple[int, int]] = set()

    def factor(self, i: int, j: int, t: float) -> float:
        if (i, j) in self.killed:
            return self.floor
        return self.inner.factor(i, j, t)

    def snapshot_jitter(
        self, i: int, j: int, t: float, window_s: float
    ) -> float:
        return self.inner.snapshot_jitter(i, j, t, window_s)


class FaultInjector:
    """Seeded fault scheduler for one service under test."""

    def __init__(self, service, seed: int = 0) -> None:
        self.service = service
        self.rng = random.Random(seed)
        #: ``(sim_time, fault_kind, detail)`` per injection, in order.
        self.log: list[tuple[float, str, tuple]] = []
        self._wrapper: Optional[KilledCircuits] = None

    def at(self, delay_s: float, fault, *args) -> None:
        """Schedule ``fault(*args)`` ``delay_s`` sim-seconds from now.

        Daemon events: pending faults never keep the run alive after
        the workload drains.
        """
        self.service.sim.schedule(
            delay_s, lambda: fault(*args), daemon=True
        )

    def _note(self, kind: str, *detail) -> None:
        self.log.append((self.service.sim.now, kind, detail))

    # -- circuits --------------------------------------------------------

    def _circuits(self) -> KilledCircuits:
        network = self.service.network
        if (
            self._wrapper is None
            or network.fluctuation is not self._wrapper
        ):
            self._wrapper = KilledCircuits(network.fluctuation)
            network.fluctuation = self._wrapper
        return self._wrapper

    def kill_circuit(
        self, src: str, dst: str, both_ways: bool = True
    ) -> None:
        """Drop a circuit to the factor floor, effective immediately."""
        wrapper = self._circuits()
        index = self.service.network.topology.index
        wrapper.killed.add((index(src), index(dst)))
        if both_ways:
            wrapper.killed.add((index(dst), index(src)))
        # Re-solve allocations now rather than waiting out the 5 s
        # weather-refresh tick — a chaos kill is an instant, not a drift.
        self.service.network._reallocate()
        self._note("kill_circuit", src, dst)

    def restore_circuit(
        self, src: str, dst: str, both_ways: bool = True
    ) -> None:
        """Bring a killed circuit back (failover-and-recover)."""
        wrapper = self._circuits()
        index = self.service.network.topology.index
        wrapper.killed.discard((index(src), index(dst)))
        if both_ways:
            wrapper.killed.discard((index(dst), index(src)))
        self.service.network._reallocate()
        self._note("restore_circuit", src, dst)

    # -- telemetry -------------------------------------------------------

    def corrupt_telemetry(
        self, samples: int = 8, rate_mbps: float = ABSURD_RATE_MBPS
    ) -> None:
        """Record ``samples`` absurd throughput readings for random pairs."""
        keys = list(self.service.network.topology.keys)
        now = self.service.sim.now
        for _ in range(samples):
            src, dst = self.rng.sample(keys, 2)
            rate = rate_mbps * self.rng.uniform(0.5, 1.0)
            self.service.telemetry.record(src, now, {dst: rate})
            self._note("corrupt_telemetry", src, dst, rate)

    # -- recalibration ---------------------------------------------------

    def stall_recalibrator(self, ticks: int = 1) -> None:
        """Wedge the capacity recalibrator for its next ``ticks`` fires."""
        recalibrator = self.service.recalibrator
        if recalibrator is None:
            raise RuntimeError(
                "service has no recalibrator (recalibrate=False)"
            )
        recalibrator.stall(ticks)
        self._note("stall_recalibrator", ticks)

    # -- shard workers ---------------------------------------------------

    @staticmethod
    def poison_shard_task(task: ShardTask) -> ShardTask:
        """A clone of ``task`` whose worker crashes on arrival."""
        return replace(task, config=replace(task.config, scheduler=POISON_ADMISSION))
