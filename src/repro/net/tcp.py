"""Per-connection TCP throughput and parallel-connection efficiency.

Two empirical facts from the paper anchor this model:

* single-connection BW between US East and US West is ~1700 Mbps while
  US East to AP SE (Singapore) is ~121 Mbps (Fig. 1) — a 14× spread for
  a ~3.9× RTT spread, i.e. throughput falls roughly as ``1/RTT²``.
  This matches the Mathis model ``MSS/(RTT·sqrt(p))`` when loss
  probability grows with path length (more hops → more loss);
* the weakest link reached ~1 Gbps with 9 connections (§1), i.e.
  "runtime BW grows linearly with the connections" (§3.2.1) until a
  congestion knee — "increasing link parallelism beyond 8 resulted in no
  improvement ... because of anticipated network congestion" (§2.2) and
  "increasing connections beyond this optimal threshold causes
  performance degradation" (§3.2.1).

The constants live on :class:`TcpModel` so different *network profiles*
(VPC peering, public Internet, edge-cloud — §2.1 says WANify must handle
all of them) can carry their own path characteristics; the module-level
functions delegate to the VPC-peering default that calibrates to the
paper's AWS numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Default knee: connections beyond this per pair stop helping.
DEFAULT_KNEE = 8

#: Per-VM total-connection knee: a VM juggling more active WAN streams
#: than this loses effective NIC throughput to congestion — the §2.2
#: observation that uniform parallelism (8 × 7 peers = 56 streams per
#: VM) "has little benefit as nearby DCs occupy most of each other's
#: available network capacity" and §5.3.1's finding that WANify-P
#: *increases* latency.
DEFAULT_VM_KNEE = 24

#: Mild degradation per connection beyond the knee (§3.2.1).
OVERSUBSCRIPTION_PENALTY = 0.03

#: Throughput lost per active stream beyond the per-VM knee.
VM_CONGESTION_PENALTY = 0.02

#: Floor on per-VM efficiency under extreme oversubscription.
VM_EFFICIENCY_FLOOR = 0.35


@dataclass(frozen=True)
class TcpModel:
    """Path-level TCP constants for one kind of WAN.

    ``k_mbps`` and ``alpha`` define the single-connection rate
    ``k_mbps / RTT^alpha`` (Mbps, RTT in ms); ``max_single_mbps`` caps
    ultra-short paths; ``rtt_base_ms`` and ``route_stretch`` turn
    great-circle distance into RTT; ``loss_scale`` multiplies the Mathis
    loss estimate (public-Internet paths drop more packets than peered
    VPC paths at the same RTT).
    """

    #: Calibration constant K in  rate = K / RTT^ALPHA  (Mbps, ms).
    #: The default is chosen so one connection at the US East–US West
    #: RTT (~56.6 ms) gives ~1700 Mbps and at the US East–AP SE RTT
    #: (~221.7 ms) gives ~121 Mbps.
    k_mbps: float = 4.20e6

    #: RTT exponent (see module docstring); solved from Fig. 1 endpoints.
    alpha: float = 1.935

    #: Ceiling so ultra-short intra-continental RTTs don't produce
    #: absurd single-connection rates; roughly a 10 GbE line rate.
    max_single_mbps: float = 4500.0

    #: Fixed serialization/queueing component of RTT (ms).
    rtt_base_ms: float = 2.0

    #: Real routes vs great-circle path length.
    route_stretch: float = 1.4

    #: Multiplier on the Mathis loss estimate.
    loss_scale: float = 1.0

    def per_connection_mbps(self, rtt_ms: float) -> float:
        """Steady-state throughput of one TCP connection at a given RTT.

        >>> TcpModel().per_connection_mbps(57) > TcpModel().per_connection_mbps(222)
        True
        """
        if rtt_ms <= 0:
            raise ValueError(f"RTT must be positive: {rtt_ms}")
        return min(self.k_mbps / rtt_ms**self.alpha, self.max_single_mbps)

    def aggregate_cap_mbps(
        self, rtt_ms: float, connections: int, knee: int = DEFAULT_KNEE
    ) -> float:
        """Upper bound on a DC pair's throughput with ``connections``
        streams (before NIC/path contention is applied)."""
        return self.per_connection_mbps(rtt_ms) * parallel_efficiency(
            connections, knee
        )

    def rtt_weight(
        self, rtt_ms: float, connections: int, knee: int = DEFAULT_KNEE
    ) -> float:
        """Contention weight of a pair's aggregate flow.

        When loss-limited TCP flows share a bottleneck, each flow's share
        is roughly proportional to its *uncontended* rate (Mathis: rate ∝
        1/(RTT·√p), and loss grows with path length — the same ~1/RTT²
        behaviour the Fig. 1 endpoints calibrate).  A pair with ``k``
        connections therefore competes with weight ``k_eff ×
        per_connection_rate``.

        This is what makes uniform parallelism useless for the weak
        links — multiplying every pair's weight by 8 leaves the shares
        unchanged, so the Fig. 2(b) minimum stays at the
        single-connection level — while heterogeneous counts (more
        streams on weak pairs, fewer on strong) genuinely rebalance the
        distribution (Fig. 2(c)).
        """
        return parallel_efficiency(connections, knee) * self.per_connection_mbps(
            rtt_ms
        )

    def rtt_ms_for_distance(self, distance_miles: float) -> float:
        """Round-trip time as an affine function of great-circle distance.

        Light in fibre covers ~123 miles/ms; the profile's
        ``route_stretch`` accounts for real routes being longer than
        great-circle, and ``rtt_base_ms`` for local serialization and
        queueing.
        """
        if distance_miles < 0:
            raise ValueError(f"negative distance: {distance_miles}")
        propagation_one_way_ms = distance_miles * self.route_stretch / 123.0
        return self.rtt_base_ms + 2.0 * propagation_one_way_ms

    def loss_rate_estimate(self, rtt_ms: float) -> float:
        """Rough packet-loss estimate implied by the throughput model.

        Exposed for the ``Nr`` (retransmissions) feature of Table 3: the
        snapshot probes report retransmission counts proportional to loss.
        """
        rate = self.per_connection_mbps(rtt_ms)
        # Invert Mathis: rate = MSS/(RTT*sqrt(p)) with MSS*C folded into K.
        mss_bits = 1460 * 8
        p = (mss_bits / (rate * 1e6 * rtt_ms * 1e-3)) ** 2
        return min(p * self.loss_scale, 0.05)

    def connections_for_target(
        self, rtt_ms: float, target_mbps: float, knee: int = DEFAULT_KNEE
    ) -> int:
        """Smallest connection count whose aggregate cap reaches
        ``target_mbps`` (or the knee count if unreachable)."""
        single = self.per_connection_mbps(rtt_ms)
        if single <= 0:
            return knee
        needed = math.ceil(target_mbps / single)
        return max(1, min(needed, knee))


#: The VPC-peering default every module-level helper delegates to.
DEFAULT_MODEL = TcpModel()


def parallel_efficiency(connections: int, knee: int = DEFAULT_KNEE) -> float:
    """Aggregate scaling factor for ``connections`` parallel streams.

    Returns the multiple of the single-connection rate achieved by the
    aggregate: linear up to ``knee``, then flat with a small penalty for
    each extra stream.  Connection-count behaviour is a property of TCP
    itself, not of the path, so it lives outside :class:`TcpModel`.

    >>> parallel_efficiency(4)
    4.0
    >>> parallel_efficiency(8) == 8.0
    True
    >>> parallel_efficiency(12) < 8.0
    True
    """
    if connections < 0:
        raise ValueError(f"negative connection count: {connections}")
    if connections <= knee:
        return float(connections)
    excess = connections - knee
    return max(1.0, knee * (1.0 - OVERSUBSCRIPTION_PENALTY * excess))


def vm_efficiency(total_connections: int, knee: int = DEFAULT_VM_KNEE) -> float:
    """Effective NIC-throughput factor for a VM with ``total_connections``
    concurrently active WAN streams.

    >>> vm_efficiency(7)
    1.0
    >>> vm_efficiency(56) < vm_efficiency(24)
    True
    """
    if total_connections < 0:
        raise ValueError(f"negative connection count: {total_connections}")
    if total_connections <= knee:
        return 1.0
    excess = total_connections - knee
    return max(VM_EFFICIENCY_FLOOR, 1.0 - VM_CONGESTION_PENALTY * excess)


def per_connection_mbps(rtt_ms: float) -> float:
    """Single-connection rate under the VPC-peering default profile."""
    return DEFAULT_MODEL.per_connection_mbps(rtt_ms)


def aggregate_cap_mbps(
    rtt_ms: float, connections: int, knee: int = DEFAULT_KNEE
) -> float:
    """Aggregate pair ceiling under the VPC-peering default profile."""
    return DEFAULT_MODEL.aggregate_cap_mbps(rtt_ms, connections, knee)


def rtt_weight(rtt_ms: float, connections: int, knee: int = DEFAULT_KNEE) -> float:
    """Contention weight under the VPC-peering default profile."""
    return DEFAULT_MODEL.rtt_weight(rtt_ms, connections, knee)


def rtt_ms_for_distance(distance_miles: float) -> float:
    """Distance→RTT under the VPC-peering default profile."""
    return DEFAULT_MODEL.rtt_ms_for_distance(distance_miles)


def loss_rate_estimate(rtt_ms: float) -> float:
    """Loss estimate under the VPC-peering default profile."""
    return DEFAULT_MODEL.loss_rate_estimate(rtt_ms)


def connections_for_target(
    rtt_ms: float, target_mbps: float, knee: int = DEFAULT_KNEE
) -> int:
    """Connection count for a target rate under the default profile."""
    return DEFAULT_MODEL.connections_for_target(rtt_ms, target_mbps, knee)
