"""The max-min solve as it was before the flat-list rewrite, kept as
the oracle for ``repro.net.sharing.allocate`` and the simulator's
``_flush``.

``allocate`` is the progressive filling that scanned every flow twice
per iteration and aggregated per-resource weights in dicts.
:class:`OracleNetworkSimulator` re-solves with the ``_flush`` that
looked each pair's indices, RTT and connection count up once per pass,
with this ``allocate`` on either kernel, and prices each pair with the
``pair_capacity`` that derived the indices, RTT and aggregate cap from
the topology on every call (before the route table), so a pricing bug
in ``repro.net`` cannot hide behind a shared method.  All three are
copied unchanged; ``test_sharing_oracle.py`` requires the current code
to match them bit for bit.  Do not edit them to follow ``repro.net``.

The code they call that has since left ``repro.net`` is copied here
unchanged too: :class:`PairFlow`, the validated per-flow record the
old ``allocate`` took, and the no-argument ``_schedule_completion``,
which walked every bucket after the shares were set for the earliest
completion (:func:`_min_eta`, once ``_Bucket.min_eta``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net import tcp
from repro.net.simulator import (
    _EPS,
    _RTT_NORM_MS,
    CONGESTION_RTT_BIAS,
    LAN_MBPS,
    NetworkSimulator,
)

_INF = float("inf")


@dataclass
class PairFlow:
    """An aggregate flow between a DC pair.

    ``src``/``dst`` are topology indices; ``weight`` is the contention
    weight; ``cap`` the flow's own ceiling in Mbps.
    """

    src: int
    dst: int
    weight: float
    cap: float

    def __post_init__(self) -> None:
        # Written so NaN fails both tests: an infinite or NaN weight, or
        # a NaN cap, would make the filling hand out garbage rates.
        if not 0.0 < self.weight < _INF:
            raise ValueError(
                f"flow weight must be positive and finite: {self.weight}"
            )
        if not self.cap >= 0.0:
            raise ValueError(f"flow cap must be ≥ 0 (inf allowed): {self.cap}")


def _min_eta(bucket) -> float:
    """Seconds until the bucket's next completion (inf when idle).

    ``max(0, min(size - transferred)) / share`` over the members
    that carry the share.  Every such member moves at exactly
    ``share`` and fresh ones at 0, and correctly rounded division
    by one positive number is monotonic, so this equals the
    minimum of each rate-carrying transfer's ``remaining / rate``
    bit for bit.
    """
    limit = len(bucket.transfers) - bucket.fresh
    if bucket.share <= 0 or limit <= 0:
        return float("inf")
    if bucket.size is None:
        remaining = min(
            [
                t.size_mbits - t.transferred_mbits
                for t in bucket.transfers[:limit]
            ]
        )
    else:
        remaining = float(
            (bucket.size[:limit] - bucket.transferred[:limit]).min()
        )
    return max(0.0, remaining) / bucket.share


def allocate(
    flows: list[PairFlow],
    egress_caps: list[float],
    ingress_caps: list[float],
) -> list[float]:
    """Allocate rates (Mbps) to ``flows``; returns rates in input order.

    >>> flows = [PairFlow(0, 1, weight=1.0, cap=100.0)]
    >>> allocate(flows, [50.0, 50.0], [50.0, 50.0])
    [50.0]
    """
    n_flows = len(flows)
    if n_flows == 0:
        return []
    rates = [0.0] * n_flows
    frozen = [False] * n_flows
    remaining_egress = list(egress_caps)
    remaining_ingress = list(ingress_caps)

    # Flows with zero cap are frozen immediately.
    for idx, flow in enumerate(flows):
        if flow.cap <= _EPS:
            frozen[idx] = True

    while True:
        active = [i for i in range(n_flows) if not frozen[i]]
        if not active:
            break

        # Aggregate unfrozen weight per resource.
        egress_weight: dict[int, float] = {}
        ingress_weight: dict[int, float] = {}
        for i in active:
            flow = flows[i]
            egress_weight[flow.src] = (
                egress_weight.get(flow.src, 0.0) + flow.weight
            )
            ingress_weight[flow.dst] = (
                ingress_weight.get(flow.dst, 0.0) + flow.weight
            )

        # Largest permissible water-level increment.
        delta = float("inf")
        for i in active:
            flow = flows[i]
            delta = min(delta, (flow.cap - rates[i]) / flow.weight)
        for src, weight in egress_weight.items():
            delta = min(delta, remaining_egress[src] / weight)
        for dst, weight in ingress_weight.items():
            delta = min(delta, remaining_ingress[dst] / weight)

        if delta == float("inf"):
            break
        delta = max(delta, 0.0)

        # Advance the water level.
        for i in active:
            flow = flows[i]
            gain = flow.weight * delta
            rates[i] += gain
            remaining_egress[flow.src] -= gain
            remaining_ingress[flow.dst] -= gain

        # Freeze flows at their caps and flows through saturated resources.
        progressed = False
        for i in active:
            flow = flows[i]
            if rates[i] >= flow.cap - _EPS:
                frozen[i] = True
                progressed = True
        for i in [i for i in range(n_flows) if not frozen[i]]:
            flow = flows[i]
            if (
                remaining_egress[flow.src] <= _EPS
                or remaining_ingress[flow.dst] <= _EPS
            ):
                frozen[i] = True
                progressed = True
        if not progressed:
            # Numerical guard: nothing froze despite a finite delta.
            break

    return [max(0.0, min(r, flows[i].cap)) for i, r in enumerate(rates)]


class OracleNetworkSimulator(NetworkSimulator):
    """The simulator with the old ``_flush``, ``pair_capacity``,
    ``_schedule_completion`` and ``allocate``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._solve = allocate

    def pair_capacity(self, src: str, dst: str, connections: int) -> float:
        """Aggregate ceiling for a pair with ``connections`` streams now
        (weather and traffic control included, contention excluded)."""
        i, j = self.topology.index(src), self.topology.index(dst)
        rtt = self.topology.rtt_ms(src, dst)
        cap = self.topology.tcp.aggregate_cap_mbps(rtt, connections, self.knee)
        cap *= self.fluctuation.factor(i, j, self.sim.now + self.time_offset)
        return min(cap, self.tc.limit(src, dst))

    def _flush(self) -> None:
        """Run the pending solve, if any: re-solve rates and re-schedule
        the next completion event (observers call this first)."""
        if not self._stale:
            return
        self._stale = False
        self.solves += 1
        buckets = self._inflight.pairs
        pairs = sorted(buckets)
        flows = []
        caps_by_src: dict[str, float] = {}
        specs = []
        for src, dst in pairs:
            k = int(self._connections.get(src, dst))
            rtt = self.topology.rtt_ms(src, dst)
            cap = self.pair_capacity(src, dst, k)
            specs.append((src, dst, k, rtt, cap))
            caps_by_src[src] = caps_by_src.get(src, 0.0) + cap
        for src, dst, k, rtt, cap in specs:
            i, j = self.topology.index(src), self.topology.index(dst)
            weight = self.topology.tcp.rtt_weight(rtt, k, self.knee)
            # Congestion RTT bias: overloaded senders squeeze their
            # long-RTT flows harder than fair weighting would.
            egress = self.topology.dcs[i].egress_cap_mbps
            overload = max(0.0, caps_by_src[src] / max(egress, _EPS) - 1.0)
            if overload > 0:
                weight /= 1.0 + (
                    CONGESTION_RTT_BIAS * overload * rtt / _RTT_NORM_MS
                )
            flows.append(PairFlow(i, j, weight=weight, cap=cap))
        # Per-VM congestion: a DC juggling many active streams loses
        # effective NIC throughput (see tcp.vm_efficiency).  Counted per
        # VM so association (more VMs per DC) raises the knee.
        out_conns = {i: 0 for i in range(self.topology.n)}
        in_conns = {j: 0 for j in range(self.topology.n)}
        for src, dst in pairs:
            k = int(self._connections.get(src, dst))
            out_conns[self.topology.index(src)] += k
            in_conns[self.topology.index(dst)] += k
        egress = []
        ingress = []
        for i, dc in enumerate(self.topology.dcs):
            egress.append(
                dc.egress_cap_mbps
                * tcp.vm_efficiency(out_conns[i] // max(1, dc.num_vms))
            )
            ingress.append(
                dc.ingress_cap_mbps
                * tcp.vm_efficiency(in_conns[i] // max(1, dc.num_vms))
            )
        rates = self._solve(flows, egress, ingress)
        for pair, rate in zip(pairs, rates):
            bucket = buckets[pair]
            bucket.set_share(rate / len(bucket.transfers))
        self._inflight.lan.set_share(LAN_MBPS)
        self._schedule_completion()

    def _schedule_completion(self) -> None:
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        eta = float("inf")
        for bucket in self._inflight._buckets():
            eta = min(eta, _min_eta(bucket))
        if eta < float("inf"):
            self._completion_event = self.sim.schedule(
                eta, self._on_completion, priority=1
            )
