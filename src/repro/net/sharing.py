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
it takes the flows as the parallel per-pair lists the simulator builds
(sources, destinations, weights, caps), checks them in its first pass,
and jumps from one freeze event to the next instead of raising the level
in rounds that touch every flow.  The next level is the lower of the
next flow-cap level (``cap / weight``, sorted once per solve) and the
lowest NIC saturation level (``(NIC − rate frozen on it) / weight still
unfrozen on it``, with the weights scaled by their maximum when their
sum overflows to inf); only the NICs that a freezing flow crosses are
re-priced, and each flow's rate is written once, when it freezes — a
cap-bound flow gets exactly its cap.  When no NIC can saturate (each
one's live caps sum below it), every flow would freeze at its cap, so
:func:`allocate` returns the caps without filling.  The rates agree with
the round-by-round filling kept in ``tests/net/oracle_sharing.py`` to
within a few units in the 14th significant digit, not bit for bit;
``tests/net/test_maxmin_certificate.py`` checks the max-min property
itself, independently of either implementation.
"""

from __future__ import annotations

_EPS = 1e-9
_INF = float("inf")
#: A NIC whose live caps sum to at most this share of it cannot saturate.
_HEADROOM = 1.0 - 1e-9


def _overflow_level(free: float, weights: list[float]) -> float:
    """``free / sum(weights)`` for weights whose sum overflows to inf:
    summed scaled by their maximum, the level stays finite."""
    top = max(weights)
    total = 0.0
    for w in weights:
        total += w / top
    return free / total / top


def allocate(
    src: list[int],
    dst: list[int],
    weight: list[float],
    cap: list[float],
    egress_caps: list[float],
    ingress_caps: list[float],
) -> list[float]:
    """Allocate rates (Mbps) to flows; returns rates in input order.

    Flow ``idx`` runs from DC ``src[idx]`` to DC ``dst[idx]`` (topology
    indices) with contention weight ``weight[idx]`` and its own ceiling
    ``cap[idx]`` in Mbps.  A weight outside ``(0, inf)`` or a NaN or
    negative cap is a :class:`ValueError`.  A flow with a cap of at most
    ``1e-9`` gets 0.  A NaN or infinite NIC never saturates; a negative
    NIC (``-0.0`` too) gives its flows 0.  When no finite level is left,
    the unfrozen flows keep the rate of the last finite level, so a lone
    unbounded flow gets 0.

    >>> allocate([0], [1], [1.0], [100.0], [50.0, 50.0], [50.0, 50.0])
    [50.0]
    """
    n = len(weight)
    if not n:
        return []
    # Resources are the egress NICs, then the ingress NICs.
    n_egress = len(egress_caps)
    nics = [*egress_caps, *ingress_caps]
    into = [n_egress + d for d in dst]
    # The flows through each NIC that can saturate (finite, not NaN);
    # a NIC's level is ``_INF`` once none of them is live.
    bounded = [nic < _INF for nic in nics]
    members: list[list[int]] = [[] for _ in nics]
    # Whether every live flow has a finite cap level.
    capped = True
    live = [False] * n
    cap_level = [_INF] * n
    for idx in range(n):
        w = weight[idx]
        c = cap[idx]
        # Written so NaN fails both tests: an infinite or NaN weight, or
        # a NaN cap, would make the filling hand out garbage rates.
        if not 0.0 < w < _INF:
            raise ValueError(f"flow weight must be positive and finite: {w}")
        if not c >= 0.0:
            raise ValueError(f"flow cap must be ≥ 0 (inf allowed): {c}")
        if c > _EPS:
            live[idx] = True
            if c < _INF:
                cl = c / w
                cap_level[idx] = cl
                if cl == _INF:
                    capped = False
            else:
                capped = False
            if bounded[src[idx]]:
                members[src[idx]].append(idx)
            if bounded[into[idx]]:
                members[into[idx]].append(idx)
    # No NIC can saturate: its level stays at or above the lowest cap
    # level on it (the margin covers rounding), and ties go to the cap,
    # so the fill below would freeze every flow at exactly its cap.
    if capped:
        for r, through in enumerate(members):
            if through:
                demand = 0.0
                for j in through:
                    demand += cap[j]
                if not demand <= nics[r] * _HEADROOM:
                    break
        else:
            return [c if c > _EPS else 0.0 for c in cap]
    used = [0.0] * len(nics)
    levels = [_INF] * len(nics)
    for r, through in enumerate(members):
        if through:
            total = 0.0
            for j in through:
                total += weight[j]
            if total < _INF:
                levels[r] = nics[r] / total
            else:
                levels[r] = _overflow_level(nics[r], [weight[j] for j in through])
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
            touched = (src[idx], into[idx])
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
                    other = into[j] if src[j] == r else src[j]
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
            if total < _INF:
                levels[r] = (nics[r] - used[r]) / total if total else _INF
            else:
                live_weights = [weight[j] for j in members[r] if live[j]]
                levels[r] = _overflow_level(nics[r] - used[r], live_weights)
    for idx in range(n):
        rate = weight[idx] * level if live[idx] else rates[idx]
        # ``max(0.0, min(rate, cap))``: a NaN rate gives 0.
        c = cap[idx]
        if c < rate:
            rate = c
        rates[idx] = rate if rate > 0.0 else 0.0
    return rates
