"""Flow-level WAN simulator.

Transfers between DC pairs are *fluid flows*: whenever the set of active
transfers, the connection plan, a traffic-control limit, or the network
weather changes, the simulator re-solves the weighted max-min allocation
(:mod:`repro.net.sharing`) and re-schedules the next completion event.
This is the standard flow-level abstraction for WAN studies — accurate
at the timescales that matter here (seconds), and fast enough to run
hundreds of geo-analytics queries on a laptop.

Rates are re-solved once per simulated instant, not once per change: a
change accrues progress at the old rates and marks the rates stale, and
the solve is deferred (:meth:`~repro.sim.kernel.Simulator.defer`) to
the end of the instant, after its last change — a burst of same-instant
starts, cancels and completions costs one solve.  Observers that read
rates (:meth:`~NetworkSimulator.current_rate`,
:meth:`~NetworkSimulator.rate_matrix`,
:meth:`~NetworkSimulator.active_transfers`) flush a pending solve
first.

A solve pays only for what can change between solves.  Each active
pair's connection count comes from an integer table that
:meth:`~NetworkSimulator.set_connections` updates and
:meth:`~NetworkSimulator.set_connection_plan` rebuilds; its indices,
RTT, aggregate cap and contention weight come from a route table keyed
by ``(src, dst, count)`` and filled on first use; the DC NIC
capacities are read once, at construction.  Per solve remain the
weather factor and the traffic-control limit (one
:meth:`~NetworkSimulator.pair_capacity` call per pair, which reads the
clock and the controller's limit table directly and calls the weather
model's ``factor`` once), the congestion overload and the max-min
solve itself, through the module-global ``allocate``, which jumps from
one freeze event to the next (at most one per flow).  Those three
names carry the work on purpose: the benchmark's tracer attributes
repricing, weather and solving by them.  A solve is one pass over the
sorted pairs into parallel per-pair lists (sources, destinations,
RTTs, weights, caps), which ``allocate`` takes as they are; writing
each bucket's share returns that bucket's next completion, so the
completion event is re-armed without a second walk of the store.
A DC side with no active connections skips the per-VM efficiency
call (``vm_efficiency(0)`` is 1.0).  Progress between solves is one
walk of the in-flight store that also accrues each pair's statistics
and, at a completion, collects the finishers, clamping by comparisons
rather than ``min``/``max`` calls; observers read a DC's outgoing
rates with one flush (:meth:`~NetworkSimulator.outgoing_rates`) and
its delivered volumes with one progress
(:meth:`~NetworkSimulator.sent_mbits`).  :class:`Transfer` and
:class:`PairStats` are slotted.

Model summary (see DESIGN.md §5):

* each ordered DC pair carries one aggregate flow whose *weight* is
  ``parallel_efficiency(k) / RTT`` — k parallel connections compete like
  k TCP streams with the pair's RTT bias;
* the aggregate flow's *cap* is ``per_connection_mbps(RTT) ×
  parallel_efficiency(k)``, times the link's time-varying weather
  factor, and clipped by any traffic-control limit;
* DC egress and ingress NIC capacities are the shared resources;
* transfers sharing a pair split the pair's rate equally (the
  connection pool is multiplexed);
* intra-DC transfers ride the LAN at a fixed high rate, uncontended
  (§2.1: a single connection fully utilizes intra-DC bandwidth).

In-flight transfers live in one store, a
:class:`~repro.net.batch.VectorKernel`; the ``kernel`` knob picks only
its array threshold (``_THRESHOLDS``).  Both kernels solve with
:func:`~repro.net.sharing.allocate`, so they finish every transfer at
the same instant, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from repro.checks import check_kernel
from repro.net import tcp
from repro.net.batch import SMALL_BUCKET, VectorKernel
from repro.net.dynamics import FluctuationModel, StaticModel
from repro.net.matrix import BandwidthMatrix
from repro.net.sharing import allocate
from repro.net.topology import Topology
from repro.net.traffic_control import TrafficController
from repro.sim.kernel import Event, Simulator

#: What each of :data:`~repro.checks.KERNELS` picks: the bucket
#: population above which progress runs on numpy arrays.
_THRESHOLDS = {"scalar": math.inf, "vectorized": SMALL_BUCKET}

#: Never called: ``perfbench/tracer.py`` patches this name.  The line
#: goes with the ``kernel`` knob.
allocate_batch = allocate

#: Intra-DC (LAN) rate per transfer, Mbps.  High enough that it never
#: bottlenecks a geo-analytics stage.
LAN_MBPS = 8000.0

#: How often the weather factors are refreshed while traffic is active.
WEATHER_REFRESH_S = 5.0

#: Congestion RTT bias: when a VM's egress demand exceeds its capacity,
#: long-RTT flows lose share super-proportionally (slow loss recovery,
#: buffer pressure).  This is the §2.2 "race condition and network
#: contention" that makes uniform parallelism useless for distant pairs
#: and is precisely what WANify's throttling neutralizes — capping the
#: BW-rich pairs removes the overload, restoring the weak flows' share.
CONGESTION_RTT_BIAS = 0.3

#: RTT normalization for the congestion bias (ms).
_RTT_NORM_MS = 100.0

_EPS = 1e-9
_INF = float("inf")


def _bucket_key(src: str, dst: str) -> object:
    """A transfer's bucket in the in-flight store."""
    return VectorKernel.LAN if src == dst else (src, dst)


def _off_diagonal_counts(plan: BandwidthMatrix) -> dict[tuple[str, str], int]:
    """``int`` of every off-diagonal count, keyed by ordered pair."""
    keys = plan.keys
    return {
        (src, dst): int(count)
        for src, row in zip(keys, plan.values.tolist())
        for dst, count in zip(keys, row)
        if src != dst
    }


class _RouteTable(dict):
    """Each pair's static pricing inputs, per connection count.

    Maps ``(src, dst, k)`` to ``(i, j, rtt, aggregate cap, rtt
    weight)``: the DC indices, the RTT, and the TCP model's
    ``aggregate_cap_mbps`` and ``rtt_weight`` at ``k`` streams.  An
    entry is computed on first use and kept: the topology, its TCP
    model and the knee are fixed for the simulator's life, and ``k``
    is part of the key, so a new connection plan only adds entries.
    """

    def __init__(self, topology: Topology, knee: int) -> None:
        super().__init__()
        self.topology = topology
        self.knee = knee

    def __missing__(self, key: tuple[str, str, int]) -> tuple:
        src, dst, k = key
        topology = self.topology
        i, j = topology.index(src), topology.index(dst)
        rtt = topology.rtt_ms(src, dst)
        route = (
            i,
            j,
            rtt,
            topology.tcp.aggregate_cap_mbps(rtt, k, self.knee),
            topology.tcp.rtt_weight(rtt, k, self.knee),
        )
        self[key] = route
        return route


@dataclass(eq=False, slots=True)
class Transfer:
    """One data transfer between DCs (or within one DC).

    ``size_mbits`` is the payload in megabits.  ``rate_mbps`` is the
    instantaneous fluid rate, updated by the simulator's solve at the
    end of each instant that changed it.  Transfers compare by
    identity: two transfers with equal fields are still two transfers.
    Slotted: the fields above are all a transfer has.
    """

    src: str
    dst: str
    size_mbits: float
    on_complete: Optional[Callable[["Transfer"], None]] = None
    tag: str = ""
    start_time: float = 0.0
    finish_time: Optional[float] = None
    transferred_mbits: float = 0.0
    rate_mbps: float = 0.0
    cancelled: bool = False

    @property
    def remaining_mbits(self) -> float:
        """Payload still to deliver."""
        # ``max(0.0, remaining)``: NaN and -0.0 read 0.0 too.
        remaining = self.size_mbits - self.transferred_mbits
        return remaining if remaining > 0.0 else 0.0

    @property
    def done(self) -> bool:
        """True when fully delivered or cancelled."""
        return self.cancelled or self.remaining_mbits <= _EPS


@dataclass(slots=True)
class PairStats:
    """Accumulated statistics for one ordered DC pair (slotted)."""

    mbits: float = 0.0
    active_seconds: float = 0.0
    min_rate_mbps: float = float("inf")

    @property
    def avg_rate_mbps(self) -> float:
        """Average achieved rate while the pair was active."""
        if self.active_seconds <= 0:
            return 0.0
        return self.mbits / self.active_seconds


class _StatsTable(dict):
    """``(src, dst)`` → :class:`PairStats`; a missing pair's entry is
    created on first subscript, as the kernel's walk accrues it."""

    def __missing__(self, pair: tuple[str, str]) -> PairStats:
        stats = self[pair] = PairStats()
        return stats


class NetworkSimulator:
    """The WAN: topology + connection plan + weather + active transfers."""

    def __init__(
        self,
        topology: Topology,
        sim: Optional[Simulator] = None,
        fluctuation: Optional[FluctuationModel | StaticModel] = None,
        knee: int = tcp.DEFAULT_KNEE,
        time_offset: float = 0.0,
        kernel: str = "scalar",
    ) -> None:
        self.topology = topology
        #: DC keys in topology order.
        self._keys = topology.keys
        self.sim = sim or Simulator()
        self.fluctuation = fluctuation if fluctuation is not None else StaticModel()
        self.knee = knee
        check_kernel(kernel)
        #: Transfer advancement kernel, one of :data:`~repro.checks.KERNELS`.
        self.kernel = kernel
        #: Every in-flight transfer, bucketed by pair.
        self._inflight = VectorKernel(_THRESHOLDS[kernel])
        #: Offset added to simulator time when evaluating network
        #: weather — lets measurement replays probe "the same network at
        #: a different hour" without restarting the clock.
        self.time_offset = time_offset
        self.tc = TrafficController()
        self.tc.bind(self._reallocate)
        #: The controller's limit table, which pricing reads directly.
        self._limits = self.tc._limits
        self._connections = BandwidthMatrix.full(topology.keys, 1.0)
        #: ``int`` of each off-diagonal count in ``_connections``, what
        #: a solve reads; kept in step by the two setters.
        self._counts = _off_diagonal_counts(self._connections)
        #: ``(src, dst, k)`` → ``(i, j, rtt, aggregate cap, rtt weight)``.
        self._routes = _RouteTable(topology, knee)
        #: Per DC: ``(egress cap, ingress cap, max(1, num_vms))``.
        self._nics = [
            (dc.egress_cap_mbps, dc.ingress_cap_mbps, max(1, dc.num_vms))
            for dc in topology.dcs
        ]
        self._stats = _StatsTable()
        self._last_progress_time = self.sim.now
        self._completion_event: Optional[Event] = None
        self._weather_event: Optional[Event] = None
        #: True while a change awaits its deferred solve.
        self._stale = False
        #: Changes that asked for a re-solve, and solves actually run;
        #: the difference is what deferring to the instant's end saved.
        self.solve_requests = 0
        self.solves = 0

    # ------------------------------------------------------------------
    # Connection plan
    # ------------------------------------------------------------------

    def set_connections(self, src: str, dst: str, count: int) -> None:
        """Set the parallel-connection count for one ordered pair.

        A fractional count is truncated (2.5 streams are 2); a count
        below 1 or not finite is a :class:`ValueError`.
        """
        if not math.isfinite(count):
            raise ValueError(
                f"connection count for {src}→{dst} must be finite: {count}"
            )
        if count < 1:
            raise ValueError(f"connection count must be ≥ 1: {count}")
        self._connections.set(src, dst, float(count))
        self._counts[src, dst] = int(float(count))
        self._reallocate()

    def set_connection_plan(self, plan: BandwidthMatrix) -> None:
        """Install a whole connection-count matrix at once.

        Off-diagonal counts are truncated like :meth:`set_connections`'s;
        one below 1 or not finite is a :class:`ValueError`.  The
        diagonal (intra-DC) is not read.
        """
        if plan.keys != self.topology.keys:
            plan = plan.subset(self.topology.keys)
        bad = ~np.isfinite(plan.values) & ~np.eye(plan.n, dtype=bool)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(
                f"connection plan has a non-finite count for "
                f"{plan.keys[i]}→{plan.keys[j]}: {plan.values[i, j]}"
            )
        if (plan.off_diagonal() < 1).any():
            raise ValueError("connection plan has counts < 1")
        self._connections = plan.copy()
        self._counts = _off_diagonal_counts(self._connections)
        self._reallocate()

    def connections(self, src: str, dst: str) -> int:
        """Current connection count for the pair."""
        count = self._counts.get((src, dst))
        if count is None:  # the diagonal, or an unknown DC
            return int(self._connections.get(src, dst))
        return count

    def connection_plan(self) -> BandwidthMatrix:
        """Copy of the current connection-count matrix."""
        return self._connections.copy()

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------

    def start_transfer(
        self,
        src: str,
        dst: str,
        size_mbits: float,
        on_complete: Optional[Callable[[Transfer], None]] = None,
        tag: str = "",
    ) -> Transfer:
        """Begin a transfer now; completion fires ``on_complete``."""
        if not math.isfinite(size_mbits):
            raise ValueError(
                f"transfer size for {src}→{dst} must be finite: {size_mbits}"
            )
        if size_mbits < 0:
            raise ValueError(f"negative transfer size: {size_mbits}")
        self.topology.index(src)
        self.topology.index(dst)
        transfer = Transfer(src, dst, size_mbits, on_complete, tag)
        transfer.start_time = self.sim.now
        if size_mbits <= _EPS:
            # Zero-size transfer completes immediately (still async).
            self.sim.schedule(0.0, lambda: self._finish(transfer))
            return transfer
        self._inflight.add(_bucket_key(src, dst), transfer)
        self._reallocate()
        return transfer

    def cancel_transfer(self, transfer: Transfer) -> None:
        """Abort a transfer; ``on_complete`` does not fire."""
        if transfer.cancelled or transfer.finish_time is not None:
            return
        transfer.cancelled = True
        if transfer.size_mbits <= _EPS:
            # Never entered the store; its pending zero-delay delivery
            # sees the flag, so there is nothing to re-solve.
            return
        self._remove(transfer)
        self._reallocate()

    def _remove(self, transfer: Transfer) -> None:
        self._inflight.remove(_bucket_key(transfer.src, transfer.dst), transfer)

    def _finish(self, transfer: Transfer) -> None:
        if transfer.cancelled:
            return
        # Removal first: an array bucket writes its progress back to
        # the object, which can sit up to FINISH_EPS short of the size.
        self._remove(transfer)
        transfer.transferred_mbits = transfer.size_mbits
        transfer.finish_time = self.sim.now
        if transfer.on_complete is not None:
            transfer.on_complete(transfer)

    # ------------------------------------------------------------------
    # Rate allocation
    # ------------------------------------------------------------------

    def pair_capacity(self, src: str, dst: str, connections: int) -> float:
        """Aggregate ceiling for a pair with ``connections`` streams now
        (weather and traffic control included, contention excluded)."""
        i, j, _rtt, cap, _weight = self._routes[src, dst, connections]
        cap *= self.fluctuation.factor(i, j, self.sim.now + self.time_offset)
        # ``min(cap, limit)``, with no limit an infinite one.
        limit = self._limits.get((src, dst), _INF)
        return limit if limit < cap else cap

    def _progress(self, collect: bool = False) -> list[Transfer]:
        """Advance all active transfers to the current time.

        The kernel advances every bucket and accrues each pair's
        statistics in one walk.  With ``collect``, the transfers whose
        payload is now fully delivered are gathered in that walk too
        and returned — the completion event's fast path.  Collection
        happens even when no time has passed: a transfer can finish
        exactly at an instant another event already progressed to.
        """
        dt = self.sim.now - self._last_progress_time
        self._last_progress_time = self.sim.now
        if collect:
            return self._inflight.advance(dt, self._stats)
        if dt > 0:
            self._inflight.progress(dt, self._stats)
        return []

    def _reallocate(self) -> None:
        """Note a change to the rates' inputs; solve at the instant's end.

        Progress and the weather refresh stay eager: transfers accrue
        at the old rates up to now, and a pair that empties and refills
        within one instant gets a fresh refresh time.  Only the solve
        waits, so any number of same-instant changes share one.
        """
        self._progress()
        self._schedule_weather()
        self.solve_requests += 1
        if not self._stale:
            self._stale = True
            self.sim.defer(self._flush)

    def _flush(self) -> None:
        """Run the pending solve, if any: re-solve rates and re-schedule
        the next completion event (observers call this first)."""
        if not self._stale:
            return
        self._stale = False
        self.solves += 1
        buckets = self._inflight.pairs
        pairs = sorted(buckets)
        counts = self._counts
        routes = self._routes
        nics = self._nics
        n = len(nics)
        # One pass reads each pair's count and route (indices, RTT,
        # weight) and prices it now, into parallel per-pair lists.
        # Per-VM congestion: a DC juggling many active streams loses
        # effective NIC throughput (see tcp.vm_efficiency), so
        # connections are tallied per DC.
        src: list[int] = []
        dst: list[int] = []
        rtt: list[float] = []
        weight: list[float] = []
        cap: list[float] = []
        caps_by_src = [0.0] * n
        out_conns = [0] * n
        in_conns = [0] * n
        for pair in pairs:
            k = counts[pair]
            from_dc, to_dc = pair
            i, j, pair_rtt, _agg, pair_weight = routes[from_dc, to_dc, k]
            pair_cap = self.pair_capacity(from_dc, to_dc, k)
            src.append(i)
            dst.append(j)
            rtt.append(pair_rtt)
            weight.append(pair_weight)
            cap.append(pair_cap)
            caps_by_src[i] += pair_cap
            out_conns[i] += k
            in_conns[j] += k
        # Each DC's overload (``caps / max(NIC, eps) − 1``) and NICs,
        # counted per VM so association (more VMs per DC) raises the
        # knee.
        overload = []
        egress = []
        ingress = []
        for i, (egress_cap, ingress_cap, vms) in enumerate(nics):
            overload.append(
                caps_by_src[i] / (_EPS if _EPS > egress_cap else egress_cap) - 1.0
            )
            # An idle side keeps its NIC: ``vm_efficiency(0)`` is 1.0,
            # and ``x * 1.0`` is ``x``.
            conns = out_conns[i]
            egress.append(
                egress_cap * tcp.vm_efficiency(conns // vms) if conns else egress_cap
            )
            conns = in_conns[i]
            ingress.append(
                ingress_cap * tcp.vm_efficiency(conns // vms) if conns else ingress_cap
            )
        # Congestion RTT bias: overloaded senders squeeze their
        # long-RTT flows harder than fair weighting would.
        for idx, i in enumerate(src):
            excess = overload[i]
            if excess > 0:
                weight[idx] /= 1.0 + (
                    CONGESTION_RTT_BIAS * excess * rtt[idx] / _RTT_NORM_MS
                )
        # Through the module global, so a patched ``allocate`` applies
        # to live simulators too.
        rates = allocate(src, dst, weight, cap, egress, ingress)
        # Each bucket's share comes back with its next completion.
        eta = _INF
        for pair, rate in zip(pairs, rates):
            bucket = buckets[pair]
            bucket_eta = bucket.set_share(rate / len(bucket.transfers))
            if bucket_eta < eta:
                eta = bucket_eta
        lan_eta = self._inflight.lan.set_share(LAN_MBPS)
        if lan_eta < eta:
            eta = lan_eta
        self._schedule_completion(eta)

    def _schedule_completion(self, eta: float) -> None:
        """Re-arm the completion event ``eta`` seconds from now (none
        when ``eta`` is infinite)."""
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if eta < _INF:
            self._completion_event = self.sim.schedule(
                eta, self._on_completion, priority=1
            )

    def _on_completion(self) -> None:
        self._completion_event = None
        for transfer in self._progress(collect=True):
            self._finish(transfer)
        self._reallocate()

    def _schedule_weather(self) -> None:
        if not self._inflight.pairs:
            if self._weather_event is not None:
                self._weather_event.cancel()
                self._weather_event = None
            return
        if self._weather_event is None:
            self._weather_event = self.sim.schedule(
                WEATHER_REFRESH_S, self._on_weather, priority=2, daemon=True
            )

    def _on_weather(self) -> None:
        self._weather_event = None
        self._reallocate()

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def active_transfers(self) -> list[Transfer]:
        """The WAN transfers currently in flight (LAN excluded).

        Each carries its ``tag`` (a :class:`~repro.gda.engine.engine.JobRun` tags transfers
        ``"<job>:<stage>"``), pair, and instantaneous ``rate_mbps`` —
        the control plane's bandwidth governor reads this to attribute
        per-pair WAN share to jobs before shifting it.
        """
        self._flush()
        self._inflight.sync_objects()
        out: list[Transfer] = []
        for bucket in self._inflight.pairs.values():
            out.extend(bucket.transfers)
        return out

    def current_rate(self, src: str, dst: str) -> float:
        """Instantaneous aggregate rate of an ordered pair (Mbps)."""
        self._flush()
        return self._inflight.rate_total(_bucket_key(src, dst))

    def outgoing_rates(self, src: str) -> dict[str, float]:
        """:meth:`current_rate` from ``src`` to every other DC, in
        topology key order, after one flush."""
        self._flush()
        buckets = self._inflight.pairs
        out = {}
        for dst in self._keys:
            if dst != src:
                bucket = buckets.get((src, dst))
                out[dst] = bucket.total if bucket is not None else 0.0
        return out

    def rate_matrix(self) -> BandwidthMatrix:
        """Instantaneous rates for all pairs."""
        self._flush()
        out = BandwidthMatrix.zeros(self.topology.keys)
        for (src, dst), bucket in self._inflight.pairs.items():
            out.set(src, dst, bucket.rate_total())
        return out

    def pair_statistics(self) -> dict[tuple[str, str], PairStats]:
        """Accumulated per-pair stats (bytes, active time, min rate)."""
        self._progress()
        return {pair: stats for pair, stats in self._stats.items()}

    def sent_mbits(self, src: str, dsts: Iterable[str]) -> list[float]:
        """Megabits delivered so far from ``src`` to each of ``dsts``,
        in order (0.0 for a pair with no statistics), after one
        progress.

        Reads only the pairs asked for: a WANify agent's epoch needs
        its own DC's row, not a copy of :meth:`pair_statistics`.
        """
        self._progress()
        get = self._stats.get
        out = []
        for dst in dsts:
            pair = get((src, dst))
            out.append(pair.mbits if pair is not None else 0.0)
        return out

    def reset_statistics(self) -> None:
        """Zero the accumulated per-pair statistics."""
        self._progress()
        self._stats.clear()

    def total_wan_mbits(self) -> float:
        """Total inter-DC payload delivered so far."""
        self._progress()
        return sum(s.mbits for s in self._stats.values())

    def egress_mbits_by_dc(self) -> dict[str, float]:
        """WAN egress per source DC (for network-cost accounting)."""
        self._progress()
        out: dict[str, float] = {}
        for (src, _dst), stats in self._stats.items():
            out[src] = out.get(src, 0.0) + stats.mbits
        return out

    def min_observed_bw(self, volume_fraction: float = 0.005) -> float:
        """Weakest average pair rate among pairs that carried real
        traffic — the "minimum BW of the cluster" reported throughout §5.

        Pairs carrying less than ``volume_fraction`` of the total WAN
        volume are ignored: a trickle pair's average rate says nothing
        about link capacity (ifTop-style monitoring would not surface
        it either).
        """
        self._progress()
        total = sum(s.mbits for s in self._stats.values())
        if total <= 0:
            return 0.0
        floor = total * volume_fraction
        rates = [
            s.avg_rate_mbps
            for s in self._stats.values()
            if s.mbits >= floor and s.active_seconds > 0
        ]
        return min(rates) if rates else 0.0

    def observed_bw_matrix(self) -> BandwidthMatrix:
        """Average achieved rate per pair over the measured interval."""
        self._progress()
        out = BandwidthMatrix.zeros(self.topology.keys)
        for (src, dst), stats in self._stats.items():
            out.set(src, dst, stats.avg_rate_mbps)
        return out
