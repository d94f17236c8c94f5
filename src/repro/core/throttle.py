"""Throttling BW-rich pairs (§3.2.2, "Throttling BW").

"To ensure that nearby DCs do not consume the bulk of the available
network ... local optimization also employs throttling, which limits the
maximum achievable BW between nearby DCs.  It first computes the
threshold (T) for determining BW-rich DCs from a source DC by taking the
mean of achievable BWs from that region.  Next, for destination DCs with
achievable BWs > T, it uses Traffic Control (TC) to limit their
achievable BWs to T."
"""

from __future__ import annotations

import numpy as np

from repro.core.globalopt import GlobalPlan
from repro.net.traffic_control import TrafficController

#: Headroom above the mean reference BW before a pair is considered
#: BW-rich.  Pure mean-capping over-throttles when the mean sits at the
#: per-pair fair share (it caps pairs at exactly the balanced rate and
#: leaves no slack for reclaiming capacity weak pairs cannot absorb);
#: 1.5× keeps the caps binding for genuinely rich pairs only.
THROTTLE_HEADROOM = 1.5


def throttle_threshold(plan: GlobalPlan, src: str) -> float:
    """The mean achievable BW from ``src`` to every other DC.

    The reference scale is the plan's *minimum-configuration* BW (the
    predicted runtime BW at the window's minimum connection count): the
    point of throttling is to stop BW-rich nearby pairs from out-competing
    the weak pairs at their *contended* rates, so the threshold must sit
    on the contended-rate scale rather than the fully-parallelized
    optimistic maximum.
    """
    values = [
        plan.min_bw.get(src, dst) for dst in plan.keys if dst != src
    ]
    if not values:
        raise ValueError(f"plan has no destinations for {src!r}")
    return float(np.mean(values))


def apply_throttles(
    plan: GlobalPlan,
    tc: TrafficController,
    src: str,
    headroom: float = THROTTLE_HEADROOM,
) -> dict[str, float]:
    """Install TC caps at the threshold for BW-rich pairs from ``src``.

    Returns the map of throttled destinations → cap (Mbps).
    """
    if headroom < 1.0:
        raise ValueError(f"headroom must be ≥ 1: {headroom}")
    threshold = throttle_threshold(plan, src) * headroom
    applied: dict[str, float] = {}
    for dst in plan.keys:
        if dst == src:
            continue
        if plan.min_bw.get(src, dst) > threshold:
            tc.set_limit(src, dst, threshold)
            applied[dst] = threshold
        else:
            tc.clear_limit(src, dst)
    return applied
