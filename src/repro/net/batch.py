"""Vectorized batch advancement of concurrent transfers.

The scalar :class:`~repro.net.simulator.NetworkSimulator` hot path
touches every active transfer from Python on every simulator step:
progress accrual, rate assignment, next-completion ETA, and finished
scanning are each an interpreted loop over the transfer objects.  With
thousands of concurrent transfers per pair that is quadratic end to
end — every completion event re-walks the whole population four times.

This module is the batched alternative, selected by
``ServiceConfig.kernel = "vectorized"`` (``NetworkSimulator(...,
kernel="vectorized")``).  Transfers multiplexed on one pair all share
the pair's allocated rate *equally*, so a whole bucket advances as one
numpy vector: progress is ``transferred = minimum(size, transferred +
share·dt)``, the next completion is ``min(size - transferred) /
share``, and finished transfers fall out of one boolean mask.  The
per-element arithmetic is exactly the scalar path's (same operations,
same order), so a vectorized run reproduces scalar per-transfer
completion times — the parity contract
``tests/net/test_batch_parity.py`` enforces at 1e-6.

Progressive-filling rate allocation has an array-wise twin too
(:func:`allocate_batch`), used by the vectorized simulator in place of
:func:`repro.net.sharing.allocate`.

Buckets at or below :data:`SMALL_BUCKET` transfers keep plain
per-object arithmetic — array overhead only pays for itself on crowded
pairs, and the small-bucket path leaves the transfer objects
authoritative exactly like the scalar kernel.

While a bucket is array-backed its transfer objects' ``rate_mbps`` /
``transferred_mbits`` fields go stale by design; the simulator calls
:meth:`VectorKernel.sync_objects` before handing transfers to
observers (the bandwidth governor reads per-transfer rates off
:meth:`~repro.net.simulator.NetworkSimulator.active_transfers`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

import numpy as np

if TYPE_CHECKING:
    from repro.net.sharing import PairFlow
    from repro.net.simulator import Transfer

__all__ = [
    "SMALL_BUCKET",
    "VectorKernel",
    "allocate_batch",
]

#: Buckets at or below this many transfers stay on per-object
#: arithmetic — numpy array overhead only pays off beyond it.
SMALL_BUCKET = 2

#: Remaining-payload slop below which a transfer counts as finished
#: (mirrors the simulator's completion scan).
FINISH_EPS = 1e-6

_EPS = 1e-9


def allocate_batch(
    flows: list["PairFlow"],
    egress_caps: list[float],
    ingress_caps: list[float],
) -> list[float]:
    """Array-wise weighted progressive filling.

    Same fixed point as :func:`repro.net.sharing.allocate` — raise a
    water level, freeze flows at their caps or behind saturated NICs —
    with the per-iteration bookkeeping done on numpy arrays
    (``bincount`` aggregates the per-resource weights and gains).
    """
    n_flows = len(flows)
    if n_flows == 0:
        return []
    src = np.array([flow.src for flow in flows], dtype=np.intp)
    dst = np.array([flow.dst for flow in flows], dtype=np.intp)
    weight = np.array([flow.weight for flow in flows], dtype=float)
    cap = np.array([flow.cap for flow in flows], dtype=float)
    rates = np.zeros(n_flows)
    frozen = cap <= _EPS
    remaining_egress = np.array(egress_caps, dtype=float)
    remaining_ingress = np.array(ingress_caps, dtype=float)
    n_egress = len(egress_caps)
    n_ingress = len(ingress_caps)

    while True:
        active = ~frozen
        if not active.any():
            break
        active_weight = np.where(active, weight, 0.0)
        egress_weight = np.bincount(
            src, weights=active_weight, minlength=n_egress
        )
        ingress_weight = np.bincount(
            dst, weights=active_weight, minlength=n_ingress
        )

        # Largest permissible water-level increment.
        delta = float(((cap - rates)[active] / weight[active]).min())
        used = egress_weight > 0
        if used.any():
            delta = min(
                delta,
                float((remaining_egress[used] / egress_weight[used]).min()),
            )
        used = ingress_weight > 0
        if used.any():
            delta = min(
                delta,
                float(
                    (remaining_ingress[used] / ingress_weight[used]).min()
                ),
            )
        if delta == float("inf"):
            break
        delta = max(delta, 0.0)

        gain = np.where(active, weight * delta, 0.0)
        rates += gain
        remaining_egress -= np.bincount(src, weights=gain, minlength=n_egress)
        remaining_ingress -= np.bincount(
            dst, weights=gain, minlength=n_ingress
        )

        # Freeze flows at their caps and flows through saturated NICs.
        at_cap = active & (rates >= cap - _EPS)
        frozen |= at_cap
        still_active = ~frozen
        saturated = still_active & (
            (remaining_egress[src] <= _EPS)
            | (remaining_ingress[dst] <= _EPS)
        )
        frozen |= saturated
        if not (at_cap.any() or saturated.any()):
            # Numerical guard: nothing froze despite a finite delta.
            break

    return [float(rate) for rate in np.clip(rates, 0.0, cap)]


class _Bucket:
    """One pair's (or the LAN's) transfers advancing at a shared rate.

    Invariant: ``arrays`` exist exactly when the population exceeds
    :data:`SMALL_BUCKET`; while they exist, the arrays — not the
    transfer objects — are authoritative for progress.

    ``fresh`` counts trailing members admitted since the last
    :meth:`set_share`.  The scalar kernel leaves a new transfer at
    ``rate_mbps = 0`` until the next reallocation assigns shares, so
    the catch-up progress inside that reallocation must not advance it
    — fresh members are excluded from progress, aggregate rate, and
    completion ETA until shares land.
    """

    __slots__ = ("transfers", "share", "fresh", "size", "transferred")

    def __init__(self) -> None:
        self.transfers: list["Transfer"] = []
        #: Per-transfer rate (every member moves at the same share).
        self.share = 0.0
        #: Trailing members not yet covered by ``share``.
        self.fresh = 0
        self.size = None
        self.transferred = None

    def __len__(self) -> int:
        return len(self.transfers)

    @property
    def vectorized(self) -> bool:
        """Whether the bucket is currently array-backed."""
        return self.size is not None

    def _build_arrays(self) -> None:
        self.size = np.array(
            [t.size_mbits for t in self.transfers], dtype=float
        )
        self.transferred = np.array(
            [t.transferred_mbits for t in self.transfers], dtype=float
        )

    def _drop_arrays(self) -> None:
        self.sync_objects()
        self.size = None
        self.transferred = None

    def add(self, transfer: "Transfer") -> None:
        """Admit one transfer (object state is current at this point)."""
        self.transfers.append(transfer)
        self.fresh += 1
        if self.vectorized:
            self.size = np.append(self.size, transfer.size_mbits)
            self.transferred = np.append(
                self.transferred, transfer.transferred_mbits
            )
        elif len(self.transfers) > SMALL_BUCKET:
            self._build_arrays()

    def remove(self, transfer: "Transfer") -> None:
        """Evict one transfer, writing its progress back to the object."""
        index = next(
            (
                i
                for i, candidate in enumerate(self.transfers)
                if candidate is transfer
            ),
            None,
        )
        if index is None:
            return
        was_fresh = index >= len(self.transfers) - self.fresh
        del self.transfers[index]
        if was_fresh:
            self.fresh -= 1
        if not self.vectorized:
            return
        transfer.transferred_mbits = float(self.transferred[index])
        if not was_fresh:
            transfer.rate_mbps = self.share
        self.size = np.delete(self.size, index)
        self.transferred = np.delete(self.transferred, index)
        if len(self.transfers) <= SMALL_BUCKET:
            self._drop_arrays()

    def set_share(self, share: float) -> None:
        """Install the per-transfer rate for the current allocation."""
        self.share = share
        self.fresh = 0
        if not self.vectorized:
            for transfer in self.transfers:
                transfer.rate_mbps = share

    def rate_total(self) -> float:
        """Aggregate instantaneous rate of the bucket (Mbps)."""
        if not self.vectorized:
            return sum(t.rate_mbps for t in self.transfers)
        return self.share * (len(self.transfers) - self.fresh)

    def progress(self, dt: float) -> None:
        """Advance every rate-carrying member by ``dt`` seconds."""
        if self.vectorized:
            limit = len(self.transfers) - self.fresh
            np.minimum(
                self.size[:limit],
                self.transferred[:limit] + self.share * dt,
                out=self.transferred[:limit],
            )
        else:
            for transfer in self.transfers:
                transfer.transferred_mbits = min(
                    transfer.size_mbits,
                    transfer.transferred_mbits + transfer.rate_mbps * dt,
                )

    def min_eta(self) -> float:
        """Seconds until the bucket's next completion (inf when idle)."""
        if not self.vectorized:
            eta = float("inf")
            for transfer in self.transfers:
                if transfer.rate_mbps > 0:
                    eta = min(
                        eta, transfer.remaining_mbits / transfer.rate_mbps
                    )
            return eta
        limit = len(self.transfers) - self.fresh
        if self.share <= 0 or limit <= 0:
            return float("inf")
        remaining = float(
            (self.size[:limit] - self.transferred[:limit]).min()
        )
        return remaining / self.share

    def finished(self) -> list["Transfer"]:
        """Members whose remaining payload is within the finish slop."""
        if self.vectorized:
            mask = (self.size - self.transferred) <= FINISH_EPS
            indices = np.nonzero(mask)[0]
            if indices.size == 0:
                return []
            transfers = self.transfers
            return [transfers[i] for i in indices]
        return [
            t
            for t in self.transfers
            if t.remaining_mbits <= FINISH_EPS
        ]

    def sync_objects(self) -> None:
        """Write array progress and rates back to the transfer objects."""
        if not self.vectorized:
            return
        limit = len(self.transfers) - self.fresh
        for index, transfer in enumerate(self.transfers):
            transfer.transferred_mbits = float(self.transferred[index])
            if index < limit:
                transfer.rate_mbps = self.share


class VectorKernel:
    """Array-backed advancement state for one simulator.

    Keyed by the simulator's bucket identity — an ordered ``(src,
    dst)`` pair, or :attr:`LAN` for intra-DC traffic.  The simulator
    routes its per-transfer hot loops here when built with
    ``kernel="vectorized"``.
    """

    #: Bucket key for intra-DC (LAN) transfers.
    LAN = "lan"

    def __init__(self) -> None:
        self.buckets: dict[Hashable, _Bucket] = {}

    def add(self, key: Hashable, transfer: "Transfer") -> None:
        """Track a newly started transfer under ``key``."""
        bucket = self.buckets.get(key)
        if bucket is None:
            bucket = self.buckets[key] = _Bucket()
        bucket.add(transfer)

    def remove(self, key: Hashable, transfer: "Transfer") -> None:
        """Stop tracking a finished or cancelled transfer."""
        bucket = self.buckets.get(key)
        if bucket is None:
            return
        bucket.remove(transfer)
        if not bucket.transfers:
            del self.buckets[key]

    def set_share(self, key: Hashable, share: float) -> None:
        """Install one bucket's per-transfer rate."""
        bucket = self.buckets.get(key)
        if bucket is not None:
            bucket.set_share(share)

    def rate_total(self, key: Hashable) -> float:
        """Aggregate rate of one bucket (0.0 when absent)."""
        bucket = self.buckets.get(key)
        return bucket.rate_total() if bucket is not None else 0.0

    def progress(self, dt: float) -> None:
        """Advance every bucket by ``dt`` seconds."""
        for bucket in self.buckets.values():
            bucket.progress(dt)

    def advance(self, dt: float) -> list["Transfer"]:
        """Progress every bucket by ``dt`` and collect the finishers.

        One walk over the buckets instead of the progress-then-scan
        double pass: the completion event's hot path calls this so a
        same-instant batch of finishing transfers is found in the same
        visit that advanced it.  ``dt <= 0`` skips the (no-op)
        progress but still collects — a transfer can finish exactly at
        an instant another event already progressed to.
        """
        out: list["Transfer"] = []
        for bucket in self.buckets.values():
            if dt > 0:
                bucket.progress(dt)
            out.extend(bucket.finished())
        return out

    def min_eta(self) -> float:
        """Seconds until the next completion across all buckets."""
        eta = float("inf")
        for bucket in self.buckets.values():
            eta = min(eta, bucket.min_eta())
        return eta

    def finished(self) -> list["Transfer"]:
        """Every tracked transfer whose payload has fully arrived."""
        out: list["Transfer"] = []
        for bucket in self.buckets.values():
            out.extend(bucket.finished())
        return out

    def sync_objects(self) -> None:
        """Flush array state back to the transfer objects (observers)."""
        for bucket in self.buckets.values():
            bucket.sync_objects()
