"""Connections Manager (§4.1.3).

"The optimal configurations are fed into Connections Manager, which
adds/removes the required connections from the active connection pool."
In the simulator the pool is the per-pair connection count the network
uses for weights and caps; the manager reconciles the desired counts
against it and reports churn (tests assert adds/removes are minimal).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.simulator import NetworkSimulator


@dataclass
class PoolDelta:
    """Connections added/removed in one reconciliation."""

    added: int = 0
    removed: int = 0


@dataclass
class ConnectionsManager:
    """Reconciles desired connection counts with the network's pool."""

    network: NetworkSimulator
    src: str
    total_added: int = 0
    total_removed: int = 0

    def apply(self, desired: dict[str, int]) -> PoolDelta:
        """Set per-destination counts; returns the aggregate churn."""
        delta = PoolDelta()
        for dst, count in desired.items():
            if dst == self.src:
                continue
            if count < 1:
                raise ValueError(
                    f"connection count must be ≥ 1: {count} for {dst}"
                )
            current = self.network.connections(self.src, dst)
            if count == current:
                continue
            if count > current:
                delta.added += count - current
            else:
                delta.removed += current - count
            self.network.set_connections(self.src, dst, count)
        self.total_added += delta.added
        self.total_removed += delta.removed
        return delta
