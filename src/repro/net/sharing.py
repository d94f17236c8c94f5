"""Weighted max-min bandwidth allocation (weighted water-filling).

Given a set of aggregate pair-flows — one per active (src DC, dst DC)
pair — each with a contention *weight* (``k_eff / RTT``, TCP's RTT bias)
and a *rate cap* (the aggregate TCP ceiling for its connection count,
path cap, and any traffic-control limit), allocate the DC egress and
ingress capacities by weighted water-filling:

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
it jumps from one freeze event to the next instead of raising the level
in rounds that touch every flow.  The next level is the lower of the
next flow-cap level (``cap / weight``, sorted once per solve) and the
lowest NIC saturation level (``(NIC − rate frozen on it) / weight still
unfrozen on it``); only the NICs that a freezing flow crosses are
re-priced, and each flow's rate is written once, when it freezes — a
cap-bound flow gets exactly its cap.  The rates agree with the round-by-
round filling kept in ``tests/net/oracle_sharing.py`` to within a few
units in the 14th significant digit, not bit for bit;
``tests/net/test_maxmin_certificate.py`` checks the max-min property
itself, independently of either implementation.
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

    A flow with a cap of at most ``1e-9`` gets 0.  A NaN or infinite NIC
    never saturates; a negative NIC (``-0.0`` too) gives its flows 0.
    When no finite level is left, the unfrozen flows keep the rate of
    the last finite level, so a lone unbounded flow gets 0.

    >>> flows = [PairFlow(0, 1, weight=1.0, cap=100.0)]
    >>> allocate(flows, [50.0, 50.0], [50.0, 50.0])
    [50.0]
    """
    if not flows:
        return []
    n = len(flows)
    # Resources are the egress NICs, then the ingress NICs.
    n_egress = len(egress_caps)
    nics = [*egress_caps, *ingress_caps]
    weight = [flow.weight for flow in flows]
    cap = [flow.cap for flow in flows]
    out_of = [flow.src for flow in flows]
    into = [n_egress + flow.dst for flow in flows]
    live = [c > _EPS for c in cap]
    # The flows through each NIC that can saturate (finite, not NaN);
    # a NIC's level is ``_INF`` once none of them is live.
    bounded = [nic < _INF for nic in nics]
    members: list[list[int]] = [[] for _ in nics]
    for idx in range(n):
        if live[idx]:
            if bounded[out_of[idx]]:
                members[out_of[idx]].append(idx)
            if bounded[into[idx]]:
                members[into[idx]].append(idx)
    used = [0.0] * len(nics)
    levels = [_INF] * len(nics)
    for r, through in enumerate(members):
        if through:
            total = 0.0
            for j in through:
                total += weight[j]
            levels[r] = nics[r] / total
    cap_level = [
        c / w if alive and c < _INF else _INF
        for c, w, alive in zip(cap, weight, live)
    ]
    cap_order = sorted(range(n), key=cap_level.__getitem__)
    rates = [0.0] * n
    next_cap = 0
    level = 0.0
    while True:
        while next_cap < n and not live[cap_order[next_cap]]:
            next_cap += 1
        next_cap_level = cap_level[cap_order[next_cap]] if next_cap < n else _INF
        nic_level = min(levels)
        if next_cap_level <= nic_level:
            if next_cap_level == _INF:
                break
            # A flow reaches its cap.
            idx = cap_order[next_cap]
            next_cap += 1
            if next_cap_level > level:
                level = next_cap_level
            rate = cap[idx]
            rates[idx] = rate
            live[idx] = False
            touched = (out_of[idx], into[idx])
            for r in touched:
                used[r] += rate
        else:
            # A NIC saturates and freezes its live flows.  The level
            # never falls: rounding may price a NIC a hair below it, and
            # a negative NIC freezes its flows at 0.
            r = levels.index(nic_level)
            if nic_level > level:
                level = nic_level
            levels[r] = _INF
            touched = []
            for j in members[r]:
                if live[j]:
                    rate = weight[j] * level
                    rates[j] = rate
                    live[j] = False
                    other = into[j] if out_of[j] == r else out_of[j]
                    used[other] += rate
                    touched.append(other)
        # Re-price the NICs the frozen flows cross, summing the live
        # weight afresh rather than subtracting from the old sum.
        for r in touched:
            if levels[r] == _INF:
                continue
            total = 0.0
            for j in members[r]:
                if live[j]:
                    total += weight[j]
            levels[r] = (nics[r] - used[r]) / total if total else _INF
    for idx in range(n):
        if live[idx]:
            rates[idx] = weight[idx] * level
    return [max(0.0, min(r, c)) for r, c in zip(rates, cap)]
