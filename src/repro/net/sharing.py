"""Weighted max-min bandwidth allocation (progressive filling).

Given a set of aggregate pair-flows — one per active (src DC, dst DC)
pair — each with a contention *weight* (``k_eff / RTT``, TCP's RTT bias)
and a *rate cap* (the aggregate TCP ceiling for its connection count,
path cap, and any traffic-control limit), allocate the DC egress and
ingress capacities by weighted progressive filling:

* raise a global water level λ; each unfrozen flow's rate is
  ``weight × λ``;
* a flow freezes when it hits its rate cap;
* when a resource (an egress or ingress NIC) saturates, every unfrozen
  flow through it freezes at its current rate.

The result is the classic weighted max-min allocation: feasible, Pareto
efficient, and biased toward short-RTT (heavy-weight) flows — which is
precisely why uniform parallelism fails to lift the weak links in
Fig. 2(b) while heterogeneous connection counts succeed in Fig. 2(c).

:func:`allocate` runs on every deferred solve of the WAN simulator, so
it works on flat per-flow lists and an active index list that shrinks
only when flows freeze.  Its float operations and their order are part
of its contract — per-resource weight sums and NIC subtractions in
active-index order, a running ``if v < delta`` minimum — because finish
times follow the rates to the last bit; ``tests/net/oracle_sharing.py``
keeps the earlier implementation it must match exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

_EPS = 1e-9
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
    if not flows:
        return []
    src = [flow.src for flow in flows]
    dst = [flow.dst for flow in flows]
    weight = [flow.weight for flow in flows]
    cap = [flow.cap for flow in flows]
    # A flow freezes at its cap once its rate reaches ``cap - _EPS``.
    cap_floor = [c - _EPS for c in cap]
    rates = [0.0] * len(flows)
    remaining_egress = list(egress_caps)
    remaining_ingress = list(ingress_caps)
    n_egress = len(remaining_egress)
    n_ingress = len(remaining_ingress)

    # Unfrozen flows in index order; flows with zero cap start frozen.
    active = [i for i, c in enumerate(cap) if not c <= _EPS]
    while active:
        # Aggregate unfrozen weight per resource, and the largest
        # permissible water-level increment: each flow's headroom
        # first, then each used resource's (weights are positive, so a
        # resource is used exactly when its sum is).  ``if v < delta``
        # is exactly ``delta = min(delta, v)``.
        egress_weight = [0.0] * n_egress
        ingress_weight = [0.0] * n_ingress
        delta = _INF
        for i in active:
            w = weight[i]
            egress_weight[src[i]] += w
            ingress_weight[dst[i]] += w
            v = (cap[i] - rates[i]) / w
            if v < delta:
                delta = v
        for resource, w in enumerate(egress_weight):
            if w > 0.0:
                v = remaining_egress[resource] / w
                if v < delta:
                    delta = v
        for resource, w in enumerate(ingress_weight):
            if w > 0.0:
                v = remaining_ingress[resource] / w
                if v < delta:
                    delta = v

        if delta == _INF:
            break
        delta = max(delta, 0.0)

        # Advance the water level; freeze flows at their caps.
        below_cap = []
        for i in active:
            gain = weight[i] * delta
            rate = rates[i] + gain
            rates[i] = rate
            remaining_egress[src[i]] -= gain
            remaining_ingress[dst[i]] -= gain
            if not rate >= cap_floor[i]:
                below_cap.append(i)

        # Freeze flows through saturated resources.
        unfrozen = [
            i
            for i in below_cap
            if not (
                remaining_egress[src[i]] <= _EPS
                or remaining_ingress[dst[i]] <= _EPS
            )
        ]
        if len(unfrozen) == len(active):
            # Numerical guard: nothing froze despite a finite delta.
            break
        active = unfrozen

    return [max(0.0, min(r, c)) for r, c in zip(rates, cap)]
