"""The simulator's store of in-flight transfers, advanced bucket by bucket.

:class:`~repro.net.simulator.NetworkSimulator` keeps every in-flight
transfer here and nowhere else: one bucket per ordered DC pair, in
first-use order, plus one bucket for intra-DC (LAN) traffic that is
always visited last.  Transfers multiplexed on one pair all share the
pair's allocated rate *equally*, so progress accrual, rate
assignment and finished scanning are per-bucket operations.  Rate
assignment (:meth:`_Bucket.set_share`) also returns the bucket's
next-completion ETA, found in the loop that writes the rates, so a
solve needs no second walk of the store to schedule the next
completion.

A bucket holding more than its *threshold* transfers switches to numpy
arrays: progress is ``transferred = minimum(size, transferred +
share·dt)``, the next completion is ``min(size - transferred) /
share``, and finished transfers fall out of one boolean mask.  At or
below the threshold it keeps plain per-object arithmetic — the same
operations in the same order — and the transfer objects stay
authoritative.  The simulator's ``kernel`` knob picks only the
threshold: :data:`SMALL_BUCKET` for ``"vectorized"``, infinite for
``"scalar"``, so a scalar bucket never leaves per-object arithmetic.
:data:`SMALL_BUCKET` is 32 (its comment gives the measured costs):
numpy's per-call overhead, not the arithmetic, dominates a bucket of a
few transfers, so the arrays start at 33.
Both kernels solve rates with :func:`repro.net.sharing.allocate`, so
a vectorized run is bit-identical to a scalar one — the parity
contract ``tests/net/test_batch_parity.py`` enforces.

Progress is one walk of the store: :meth:`VectorKernel.progress` and
:meth:`VectorKernel.advance` advance each bucket, collect the finishers
(``advance``) and accrue the pair's statistics in the same pass.  Each
bucket caches its aggregate rate, which that walk reads per pair; the
cache is refilled with the same expression (the members' rates added
in member order, or the share times the rate-carrying members while
array-backed) after a new share, a removal, and an admission that
builds the arrays or brings a rate.  :meth:`_Bucket.set_share` adds
that total in the loop that writes the rates.

The per-transfer arithmetic runs at every event, so it calls no
builtins: ``min(size, …)``, the finish test ``max(0.0, remaining) <=
FINISH_EPS`` and the pair's minimum rate are comparisons that give the
same doubles and the same finishers, NaN and ``-0.0`` included.  An
array bucket drops its head member (the next to finish when sizes
grow along the bucket) by slicing a view, not by two ``np.delete``
copies.

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
    from repro.net.simulator import PairStats, Transfer

__all__ = [
    "SMALL_BUCKET",
    "VectorKernel",
]

#: The vectorized kernel's threshold: buckets at or below this many
#: transfers stay on per-object arithmetic — numpy array overhead only
#: pays off beyond it.  Measured per bucket (2-vCPU Xeon, Python
#: 3.11.7, numpy 2.4.6, best of 40 rounds): a step (progress with the
#: finished scan, then share and ETA) costs about 1.4 / 2.3 / 4.2 /
#: 6.0 / 7.7 µs on objects against a flat 5.4–6.1 µs on arrays at
#: 8 / 16 / 32 / 48 / 64 transfers, so arrays win from about 45; a
#: step that also evicts a middle member and admits one (``np.delete``
#: and ``np.append``, about 12 µs more on arrays) breaks even near 128,
#: and one that evicts the head (a view) near 64.  32 was set between
#: the two break-evens of the per-object walk with builtin calls (16
#: and 40–48); it now sits below both.  No benchmark workload fills a
#: bucket past 16, and the crowded-pair parity test's crowd (80) is
#: sized to pass twice this threshold, so moving it means resizing
#: that test.
SMALL_BUCKET = 32

#: Remaining-payload slop below which a transfer counts as finished
#: (mirrors the simulator's completion scan).
FINISH_EPS = 1e-6

_INF = float("inf")


class _Bucket:
    """One pair's (or the LAN's) transfers advancing at a shared rate.

    Invariant: the ``size``/``transferred`` arrays exist (are not
    ``None``) exactly when the population exceeds ``threshold``; while
    they exist, the arrays — not the transfer objects — are
    authoritative for progress.  The hot methods test ``size`` inline
    rather than through a property: they run per bucket on every
    simulator step.

    ``fresh`` counts trailing members admitted since the last
    :meth:`set_share`.  The scalar kernel leaves a new transfer at
    ``rate_mbps = 0`` until the next reallocation assigns shares, so
    the catch-up progress inside that reallocation must not advance it
    — fresh members are excluded from progress and aggregate rate
    until shares land.

    ``total`` caches :meth:`rate_total`, read on every progress.
    :meth:`set_share`, every removal and an admission that builds the
    arrays or brings a rate refill it with the same expression.
    """

    __slots__ = (
        "transfers", "threshold", "share", "fresh", "total", "size", "transferred"
    )

    def __init__(self, threshold: float) -> None:
        self.transfers: list["Transfer"] = []
        #: Population above which the bucket is array-backed.
        self.threshold = threshold
        #: Per-transfer rate (every member moves at the same share).
        self.share = 0.0
        #: Trailing members not yet covered by ``share``.
        self.fresh = 0
        #: Aggregate rate, what :meth:`rate_total` returns (``sum`` of
        #: no rates is the integer 0).
        self.total = 0
        self.size = None
        self.transferred = None

    def _refill(self) -> None:
        if self.size is None:
            # The members' rates added in member order, from the int 0
            # (what ``set_share`` does in its loop).
            total = 0
            for transfer in self.transfers:
                total += transfer.rate_mbps
            self.total = total
        else:
            self.total = self.share * (len(self.transfers) - self.fresh)

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
        if self.size is not None:
            # One more member, and one more fresh: the total holds.
            self.size = np.append(self.size, transfer.size_mbits)
            self.transferred = np.append(
                self.transferred, transfer.transferred_mbits
            )
        elif len(self.transfers) > self.threshold:
            self._build_arrays()
            self._refill()
        elif transfer.rate_mbps:
            # A new transfer carries rate 0, which leaves the sum as is.
            self._refill()

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
        if self.size is not None:
            transfer.transferred_mbits = float(self.transferred[index])
            if not was_fresh:
                transfer.rate_mbps = self.share
            if index:
                self.size = np.delete(self.size, index)
                self.transferred = np.delete(self.transferred, index)
            else:
                # The head, which a drain in size order removes every
                # time: a view, not two copies.
                self.size = self.size[1:]
                self.transferred = self.transferred[1:]
            if len(self.transfers) <= self.threshold:
                self._drop_arrays()
        self._refill()

    def set_share(self, share: float) -> float:
        """Install the per-transfer rate for the current allocation and
        return the seconds until the bucket's next completion (inf when
        idle).

        The ETA is ``max(0, min(size - transferred)) / share`` over the
        members, found in the loop that writes the rates (one ``min``
        while array-backed).  Every member now moves at exactly
        ``share``, and correctly rounded division by one positive
        number is monotonic, so this equals the minimum of each
        transfer's ``remaining / rate`` bit for bit.
        """
        self.share = share
        self.fresh = 0
        transfers = self.transfers
        if self.size is None:
            remaining = _INF
            total = 0
            for transfer in transfers:
                transfer.rate_mbps = share
                total += share
                left = transfer.size_mbits - transfer.transferred_mbits
                if left < remaining:
                    remaining = left
            self.total = total
        else:
            self.total = share * len(transfers)
            remaining = float((self.size - self.transferred).min())
        if share <= 0 or not transfers:
            return _INF
        return (remaining if remaining > 0.0 else 0.0) / share

    def rate_total(self) -> float:
        """Aggregate instantaneous rate of the bucket (Mbps): the sum of
        the members' rates, or ``share`` times the rate-carrying members
        while array-backed."""
        return self.total

    def progress(self, dt: float, finished: list | None = None) -> None:
        """Advance every rate-carrying member by ``dt`` seconds.

        With a ``finished`` list, also append the members that are now
        :meth:`finished`, in the same walk when the bucket is scalar.
        """
        if self.size is not None:
            limit = len(self.transfers) - self.fresh
            np.minimum(
                self.size[:limit],
                self.transferred[:limit] + self.share * dt,
                out=self.transferred[:limit],
            )
            if finished is not None:
                finished.extend(self.finished())
            return
        for transfer in self.transfers:
            size = transfer.size_mbits
            done = transfer.transferred_mbits + transfer.rate_mbps * dt
            # ``min(size, done)``, which keeps ``size`` unless ``done``
            # is smaller (a NaN ``done`` included).
            if not done < size:
                done = size
            transfer.transferred_mbits = done
            # ``max(0.0, size - done) <= FINISH_EPS``: the clamp only
            # ever turns a remainder that is not above the slop (NaN,
            # -0.0, negative) into 0.0, which is below it.
            if finished is not None and not size - done > FINISH_EPS:
                finished.append(transfer)

    def finished(self) -> list["Transfer"]:
        """Members whose remaining payload is within the finish slop."""
        if self.size is not None:
            mask = (self.size - self.transferred) <= FINISH_EPS
            indices = np.nonzero(mask)[0]
            if indices.size == 0:
                return []
            transfers = self.transfers
            return [transfers[i] for i in indices]
        # ``max(0.0, remaining) <= FINISH_EPS``, as in :meth:`progress`.
        return [
            t
            for t in self.transfers
            if not t.size_mbits - t.transferred_mbits > FINISH_EPS
        ]

    def sync_objects(self) -> None:
        """Write array progress and rates back to the transfer objects."""
        if self.size is None:
            return
        limit = len(self.transfers) - self.fresh
        for index, transfer in enumerate(self.transfers):
            transfer.transferred_mbits = float(self.transferred[index])
            if index < limit:
                transfer.rate_mbps = self.share


class VectorKernel:
    """Every in-flight transfer of one simulator, bucketed.

    WAN buckets live in :attr:`pairs`, keyed by ordered ``(src, dst)``
    pair in first-use order; a pair's bucket is dropped when it
    empties.  Intra-DC traffic shares the permanent :attr:`lan` bucket
    (key :attr:`LAN`).  Walks visit the pairs first and the LAN last,
    so completions collected in one walk come out pair by pair, then
    LAN.  ``threshold`` is the population above which a bucket
    switches to numpy arrays.
    """

    #: Bucket key for intra-DC (LAN) transfers.
    LAN = "lan"

    def __init__(self, threshold: float) -> None:
        self.threshold = threshold
        self.pairs: dict[Hashable, _Bucket] = {}
        self.lan = _Bucket(threshold)

    def _buckets(self) -> list[_Bucket]:
        # A list, not a generator: the walks below run on every
        # simulator step.
        buckets = list(self.pairs.values())
        buckets.append(self.lan)
        return buckets

    def add(self, key: Hashable, transfer: "Transfer") -> None:
        """Track a newly started transfer under ``key``."""
        if key == self.LAN:
            bucket = self.lan
        else:
            bucket = self.pairs.get(key)
            if bucket is None:
                bucket = self.pairs[key] = _Bucket(self.threshold)
        bucket.add(transfer)

    def remove(self, key: Hashable, transfer: "Transfer") -> None:
        """Stop tracking a finished or cancelled transfer."""
        if key == self.LAN:
            self.lan.remove(transfer)
            return
        bucket = self.pairs.get(key)
        if bucket is None:
            return
        bucket.remove(transfer)
        if not bucket.transfers:
            del self.pairs[key]

    def rate_total(self, key: Hashable) -> float:
        """Aggregate rate of one bucket (0.0 when absent)."""
        bucket = self.lan if key == self.LAN else self.pairs.get(key)
        return bucket.rate_total() if bucket is not None else 0.0

    def _walk(
        self,
        dt: float,
        stats: dict[Hashable, "PairStats"],
        finished: list["Transfer"] | None,
    ) -> None:
        """Progress every bucket by ``dt`` (``finished`` as in
        :meth:`_Bucket.progress`) and accrue each pair's ``stats``.

        ``stats[key]`` must create a missing pair's entry; entries are
        created in pair order, the order the walk visits.
        """
        for key, bucket in self.pairs.items():
            bucket.progress(dt, finished)
            rate = bucket.total
            pair = stats[key]
            pair.mbits += rate * dt
            pair.active_seconds += dt
            # ``min(pair.min_rate_mbps, rate)`` for a positive rate: it
            # keeps the old minimum unless the rate is smaller.
            if 0 < rate < pair.min_rate_mbps:
                pair.min_rate_mbps = rate
        self.lan.progress(dt, finished)

    def progress(self, dt: float, stats: dict[Hashable, "PairStats"]) -> None:
        """Advance every bucket by ``dt > 0`` seconds and accrue each
        pair's rate and active time to its entry in ``stats``."""
        self._walk(dt, stats, None)

    def advance(
        self, dt: float, stats: dict[Hashable, "PairStats"]
    ) -> list["Transfer"]:
        """:meth:`progress`, collecting the finishers in the same walk.

        The completion event's hot path calls this, so a same-instant
        batch of finishing transfers is found in the visit that
        advanced it and accrued its pair's stats.  ``dt <= 0`` skips
        the (no-op) progress and accrual but still collects — a
        transfer can finish exactly at an instant another event
        already progressed to.
        """
        out: list["Transfer"] = []
        if dt > 0:
            self._walk(dt, stats, out)
            return out
        for bucket in self._buckets():
            out.extend(bucket.finished())
        return out

    def sync_objects(self) -> None:
        """Flush array state back to the transfer objects (observers)."""
        for bucket in self._buckets():
            bucket.sync_objects()
