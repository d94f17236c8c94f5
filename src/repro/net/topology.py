"""DC cluster topology: data centers, VMs, distances, RTTs, capacities.

A :class:`Topology` is the static description of a geo-distributed
cluster — the simulator (:mod:`repro.net.simulator`) adds time-varying
state on top of it.  Capacities follow the cloud model of §2.1: each
VM's WAN throughput is its NIC cap times the provider's WAN throttle
factor, and a DC's egress/ingress capacity is the sum over its VMs
(the *association* rule of §3.3.3 — multiple VMs in a DC act as one
large VM).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cloud.regions import Region, region as lookup_region
from repro.cloud.vm import VMType, vm_type as lookup_vm
from repro.net.matrix import BandwidthMatrix
from repro.net.profiles import VPC_PEERING, NetworkProfile
from repro.net.tcp import TcpModel


@dataclass(frozen=True)
class DataCenter:
    """A DC participating in the cluster: a region plus its VM fleet."""

    region: Region
    vm: VMType
    num_vms: int = 1

    @property
    def key(self) -> str:
        """The region key doubles as the DC identifier."""
        return self.region.key

    @property
    def egress_cap_mbps(self) -> float:
        """Total WAN egress capacity (association: VM caps sum)."""
        return self.vm.wan_cap_mbps * self.num_vms

    @property
    def ingress_cap_mbps(self) -> float:
        """Total WAN ingress capacity."""
        return self.vm.wan_cap_mbps * self.num_vms

    @property
    def total_vcpus(self) -> int:
        """Aggregate compute slots."""
        return self.vm.vcpus * self.num_vms


@dataclass
class Topology:
    """The cluster: an ordered set of DCs plus derived matrices.

    ``profile`` selects the WAN environment (VPC peering by default; see
    :mod:`repro.net.profiles`) — it determines the distance→RTT mapping
    and the per-connection TCP model the simulator applies.
    """

    dcs: list[DataCenter]
    profile: NetworkProfile = VPC_PEERING
    _distance: np.ndarray = field(init=False, repr=False)
    _rtt: np.ndarray = field(init=False, repr=False)
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        keys = [dc.key for dc in self.dcs]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate DC keys: {keys}")
        self._index = {key: i for i, key in enumerate(keys)}
        n = len(self.dcs)
        self._distance = np.zeros((n, n))
        self._rtt = np.zeros((n, n))
        for i, a in enumerate(self.dcs):
            for j, b in enumerate(self.dcs):
                if i == j:
                    # Intra-DC RTT: sub-millisecond, use the model base.
                    self._rtt[i, j] = 0.5
                    continue
                d = a.region.distance_miles(b.region)
                self._distance[i, j] = d
                self._rtt[i, j] = self.profile.tcp.rtt_ms_for_distance(d)

    @classmethod
    def build(
        cls,
        region_keys: list[str] | tuple[str, ...],
        vm_key: str = "t2.medium",
        vms_per_dc: int | dict[str, int] = 1,
        profile: NetworkProfile = VPC_PEERING,
    ) -> "Topology":
        """Build a topology from region keys and a VM type.

        ``vms_per_dc`` may be a single count or a per-region mapping
        (for the heterogeneous-VMs experiments of §5.8.3).
        """
        dcs = []
        for key in region_keys:
            if isinstance(vms_per_dc, dict):
                count = vms_per_dc.get(key, 1)
            else:
                count = vms_per_dc
            dcs.append(
                DataCenter(lookup_region(key), lookup_vm(vm_key), count)
            )
        return cls(dcs, profile)

    @property
    def tcp(self) -> TcpModel:
        """The profile's TCP path model."""
        return self.profile.tcp

    @property
    def n(self) -> int:
        """Number of DCs."""
        return len(self.dcs)

    @property
    def keys(self) -> tuple[str, ...]:
        """DC keys in topology order."""
        return tuple(dc.key for dc in self.dcs)

    def index(self, key: str) -> int:
        """Index of a DC key."""
        try:
            return self._index[key]
        except KeyError:
            raise KeyError(f"unknown DC {key!r}; known: {self.keys}") from None

    def dc(self, key: str) -> DataCenter:
        """DataCenter by key."""
        return self.dcs[self.index(key)]

    def distance_miles(self, src: str, dst: str) -> float:
        """Great-circle distance between two DCs (the Dij feature)."""
        return float(self._distance[self.index(src), self.index(dst)])

    def rtt_ms(self, src: str, dst: str) -> float:
        """Modelled round-trip time between two DCs."""
        return float(self._rtt[self.index(src), self.index(dst)])

    def rtt_matrix(self) -> np.ndarray:
        """Full RTT matrix (ms), topology order."""
        return self._rtt.copy()

    def distance_matrix(self) -> BandwidthMatrix:
        """Distances as a labelled matrix (miles)."""
        return BandwidthMatrix(self.keys, self._distance.copy())

    def egress_caps(self) -> np.ndarray:
        """Per-DC egress capacity (Mbps), topology order."""
        return np.array([dc.egress_cap_mbps for dc in self.dcs])

    def ingress_caps(self) -> np.ndarray:
        """Per-DC ingress capacity (Mbps), topology order."""
        return np.array([dc.ingress_cap_mbps for dc in self.dcs])

    def single_connection_cap(self, src: str, dst: str) -> float:
        """Uncontended single-connection rate for a pair (Mbps)."""
        i, j = self.index(src), self.index(dst)
        cap = self.profile.tcp.per_connection_mbps(self._rtt[i, j])
        return min(
            cap, self.dcs[i].egress_cap_mbps, self.dcs[j].ingress_cap_mbps
        )

    def subset(self, region_keys: list[str] | tuple[str, ...]) -> "Topology":
        """A topology restricted to the given DCs."""
        return Topology([self.dc(k) for k in region_keys], self.profile)

    def with_extra_vms(self, extra: dict[str, int]) -> "Topology":
        """A copy with extra VMs added in the given DCs (§5.8.3)."""
        dcs = []
        for dc in self.dcs:
            add = extra.get(dc.key, 0)
            dcs.append(DataCenter(dc.region, dc.vm, dc.num_vms + add))
        return Topology(dcs, self.profile)
