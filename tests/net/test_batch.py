"""Unit tests of one transfer bucket (:mod:`repro.net.batch`)."""

import math
import random
import struct
import sys

import numpy as np
import pytest

from repro.net.batch import FINISH_EPS, SMALL_BUCKET, VectorKernel, _Bucket
from repro.net.simulator import PairStats, Transfer


def _bucket(threshold, sizes, progress):
    """A bucket of transfers with the given sizes and progress."""
    bucket = _Bucket(threshold)
    for size, done in zip(sizes, progress):
        transfer = Transfer("a", "b", size)
        transfer.transferred_mbits = done
        bucket.add(transfer)
    return bucket


def _per_transfer_eta(bucket):
    """The minimum of each rate-carrying member's ``remaining / rate``."""
    eta = math.inf
    for transfer in bucket.transfers:
        if transfer.rate_mbps > 0:
            eta = min(eta, transfer.remaining_mbits / transfer.rate_mbps)
    return eta


def _packed(value):
    return struct.pack("<d", value)


class TestScalarMinEta:
    """The next-completion ETA that :meth:`_Bucket.set_share` returns."""

    def test_zero_share_is_idle(self):
        bucket = _bucket(math.inf, [900.0, 500.0], [0.0, 0.0])
        assert bucket.set_share(0.0) == math.inf

    def test_empty_bucket_is_idle(self):
        assert _Bucket(math.inf).set_share(5.0) == math.inf

    def test_overshoot_clamps_to_zero(self):
        bucket = _bucket(math.inf, [5.0, 9.0], [5.0 + 1e-9, 1.0])
        assert _packed(bucket.set_share(2.0)) == _packed(0.0)

    def test_bit_equal_to_per_transfer_minimum(self):
        """Random states, scalar against the per-transfer rule and the
        array path, as packed doubles."""
        rng = random.Random(11)
        for _ in range(2000):
            n = rng.randint(1, 12)
            sizes = [rng.uniform(1e-3, 5e3) for _ in range(n)]
            progress = [size * rng.random() for size in sizes]
            share = rng.choice([rng.uniform(1e-3, 1e3), rng.random() * 1e-7])
            scalar = _bucket(math.inf, sizes, progress)
            array = _bucket(0, sizes, progress)
            assert array.size is not None
            eta = scalar.set_share(share)
            assert _packed(eta) == _packed(_per_transfer_eta(scalar))
            assert _packed(eta) == _packed(array.set_share(share))


def _fold(values):
    """``values`` added left to right from the int 0: what ``sum`` does
    up to Python 3.11.  From 3.12 ``sum`` compensates float rounding,
    and the store adds plainly on every version."""
    total = 0
    for value in values:
        total += value
    return total


def _uncached_rate_total(bucket):
    """What :meth:`_Bucket.rate_total` computed before it was cached: the
    members' rates added in member order, or the share per
    rate-carrying member while the bucket is array-backed."""
    if bucket.size is None:
        return _fold(t.rate_mbps for t in bucket.transfers)
    return bucket.share * (len(bucket.transfers) - bucket.fresh)


class TestRateTotalCache:
    @pytest.mark.parametrize("threshold", [math.inf, 0, 4])
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_sum_at_every_step(self, threshold, seed):
        """Seeded adds, removals and shares; a threshold of 4 moves the
        bucket between objects and arrays."""
        rng = random.Random(seed)
        bucket = _Bucket(threshold)
        for _ in range(400):
            roll = rng.random()
            if roll < 0.4 or not bucket.transfers:
                transfer = Transfer("a", "b", rng.uniform(1.0, 900.0))
                if rng.random() < 0.2:
                    transfer.rate_mbps = rng.uniform(0.0, 50.0)
                bucket.add(transfer)
            elif roll < 0.7:
                bucket.remove(rng.choice(bucket.transfers))
            else:
                bucket.set_share(rng.choice([0.0, rng.uniform(1e-3, 1e3)]))
            assert _packed(bucket.rate_total()) == _packed(_uncached_rate_total(bucket))


NAN = float("nan")


def _old_progress(transfers, dt):
    """The scalar progress walk with builtin clamps, as it was: returns
    the finishers."""
    finished = []
    for transfer in transfers:
        size = transfer.size_mbits
        done = transfer.transferred_mbits = min(
            size, transfer.transferred_mbits + transfer.rate_mbps * dt
        )
        if max(0.0, size - done) <= FINISH_EPS:
            finished.append(transfer)
    return finished


def _twins(rows):
    """Two independent scalar buckets of ``(size, transferred, rate)``
    rows; a rate of ``None`` leaves the member fresh (rate 0, admitted
    after the last share)."""
    out = []
    for _ in range(2):
        bucket = _Bucket(math.inf)
        for size, done, rate in rows:
            transfer = Transfer("a", "b", size)
            transfer.transferred_mbits = done
            if rate is not None:
                transfer.rate_mbps = rate
            bucket.add(transfer)
        out.append(bucket)
    return out


def _same(a, b):
    """Equal as packed doubles and of one type."""
    return type(a) is type(b) and _packed(a) == _packed(b)


#: Remainders at and around the finish slop, and the odd ones a clamp
#: has to agree on.
REMAINDERS = [
    FINISH_EPS,
    math.nextafter(FINISH_EPS, 0.0),
    math.nextafter(FINISH_EPS, 1.0),
    2 * FINISH_EPS,
    0.0,
    -0.0,
    -FINISH_EPS,
    -3.5,
    1e-300,
    NAN,
    math.inf,
    -math.inf,
]


class TestScalarProgressClamp:
    """:meth:`_Bucket.progress` clamps by comparisons; it must leave
    every payload and collect every finisher that ``min(size, …)`` and
    ``max(0.0, size - done) <= FINISH_EPS`` did.  The rewrites are exact
    for NaN too: ``min`` keeps ``size`` unless the new value is smaller,
    and the ``max`` only lifts a remainder that is not above the slop."""

    ROWS = [
        # (size, transferred, rate) before a step of DT
        (900.0, 100.0, 3.0),  # moving, far from done
        (500.0, 20.0, None),  # fresh: rate 0, must not move
        (64.0, 40.0, 2.0),  # lands exactly on its size
        (10.0, 9.0, 7.0),  # overshoots, clamped to size
        (10.0, 10.0 - FINISH_EPS, 0.0),  # idle, exactly at the slop
        (10.0, 10.0 - 2 * FINISH_EPS, 0.0),  # idle, just above it
        (10.0, 10.0 + 1.0, 0.0),  # already past its size
        (7, 3, 1),  # ints
        (12.0, 1.0, NAN),  # a NaN rate: min keeps the size
        (NAN, 1.0, 2.0),  # a NaN size
        (math.inf, 5.0, 2.0),  # an infinite size
        (math.inf, math.inf, 0.0),  # inf - inf remainders
        (0.0, -0.0, 0.0),  # signed zeros
    ]
    DT = 12.0

    def test_same_payloads_and_finishers(self):
        new, old = _twins(self.ROWS)
        finished = []
        new.progress(self.DT, finished)
        expected = _old_progress(old.transfers, self.DT)
        for got, want in zip(new.transfers, old.transfers):
            assert _same(got.transferred_mbits, want.transferred_mbits), want
        index = {id(t): i for i, t in enumerate(new.transfers)}
        old_index = {id(t): i for i, t in enumerate(old.transfers)}
        assert [index[id(t)] for t in finished] == [
            old_index[id(t)] for t in expected
        ]
        # The fixture reaches each branch: exact landing, overshoot,
        # the slop and NaN and infinite sizes are among the finishers.
        assert [index[id(t)] for t in finished] == [2, 3, 4, 6, 7, 8, 9, 11, 12]

    def test_fresh_member_does_not_move(self):
        bucket, _ = _twins(self.ROWS)
        bucket.progress(self.DT)
        assert bucket.transfers[1].transferred_mbits == 20.0

    def test_random_states_bit_equal(self):
        rng = random.Random(5)
        for _ in range(300):
            rows = []
            for _ in range(rng.randint(1, 9)):
                size = rng.choice([rng.uniform(1e-3, 5e3), float(rng.randint(1, 9))])
                done = size - rng.choice(REMAINDERS[:9] + [rng.uniform(0.0, size)])
                rows.append((size, done, rng.choice([0.0, rng.uniform(0.0, 50.0)])))
            dt = rng.choice([rng.uniform(1e-6, 30.0), 1e-9])
            new, old = _twins(rows)
            finished = []
            new.progress(dt, finished)
            expected = _old_progress(old.transfers, dt)
            for got, want in zip(new.transfers, old.transfers):
                assert _same(got.transferred_mbits, want.transferred_mbits)
            assert [new.transfers.index(t) for t in finished] == [
                old.transfers.index(t) for t in expected
            ]


class TestScalarFinishedClamp:
    """:meth:`_Bucket.finished` against the builtin expression."""

    @pytest.mark.parametrize("remainder", REMAINDERS)
    def test_same_as_max_clamp(self, remainder):
        size = 10.0 if math.isfinite(remainder) else 5.0
        transfer = Transfer("a", "b", size)
        transfer.transferred_mbits = size - remainder
        left = transfer.size_mbits - transfer.transferred_mbits
        bucket = _Bucket(math.inf)
        bucket.add(transfer)
        expected = max(0.0, left) <= FINISH_EPS
        assert (bucket.finished() == [transfer]) is expected

    def test_nan_remainder_counts_as_finished(self):
        # As ``max(0.0, nan)`` is 0.0; a NaN size never reaches a
        # bucket (``start_transfer`` refuses it), so this is the old
        # rule kept, not a case the simulator meets.
        transfer = Transfer("a", "b", NAN)
        bucket = _Bucket(math.inf)
        bucket.add(transfer)
        assert bucket.finished() == [transfer]


class TestWalkMinRate:
    """``VectorKernel._walk`` keeps a pair's minimum positive rate by
    comparison; it must equal ``min(previous, rate)`` for every
    positive rate and leave the minimum alone otherwise."""

    RATES = [
        5.0,  # the first positive rate replaces the inf start
        5.0,  # an equal rate
        7.5,  # a larger one
        0.0,  # idle: skipped
        -0.0,
        0,  # the int 0 an empty bucket's total is
        2.25,  # a smaller one
        NAN,  # skipped, as ``NAN > 0`` is false
        math.inf,
        1e-300,
    ]

    def test_same_minimum_as_builtin(self):
        kernel = VectorKernel(math.inf)
        kernel.add(("a", "b"), Transfer("a", "b", 1e9))
        bucket = kernel.pairs["a", "b"]
        stats = {("a", "b"): PairStats()}
        expected = math.inf
        for rate in self.RATES:
            bucket.total = rate
            before = stats["a", "b"].min_rate_mbps
            kernel.progress(1.0, stats)
            if rate > 0:
                expected = min(expected, rate)
            got = stats["a", "b"].min_rate_mbps
            assert _same(got, expected), rate
            if not rate < before:
                assert got is before
        assert expected == 1e-300

    def test_inf_start_stays_without_a_positive_rate(self):
        kernel = VectorKernel(math.inf)
        kernel.add(("a", "b"), Transfer("a", "b", 1e9))
        stats = {("a", "b"): PairStats()}
        kernel.progress(3.0, stats)
        assert stats["a", "b"].min_rate_mbps == math.inf


class TestShareTotal:
    """:meth:`_Bucket.set_share` adds the members' rates in the loop
    that writes them.  That is ``sum([share] * n)`` on Python ≤ 3.11,
    the int 0 included for no members; from 3.12 ``sum`` compensates
    rounding and the store's plain addition is what 3.11 gave."""

    SHARES = [0.1, 1.0 / 3.0, 0.0, -0.0, 1e-300, 7.25, 123.456789, math.inf, NAN]

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 10, 31])
    @pytest.mark.parametrize("share", SHARES)
    def test_total_is_the_plain_sum(self, n, share):
        bucket = _bucket(math.inf, [1e6] * n, [0.0] * n)
        bucket.set_share(share)
        assert _same(bucket.total, _fold([share] * n))
        if sys.version_info < (3, 12):
            assert _same(bucket.total, sum([share] * n))

    def test_no_members_is_the_int_zero(self):
        bucket = _Bucket(math.inf)
        bucket.set_share(4.0)
        assert bucket.total == 0 and type(bucket.total) is int

    def test_refill_after_removal_adds_the_same_way(self):
        bucket = _bucket(math.inf, [1e6] * 12, [0.0] * 12)
        bucket.set_share(0.1)
        bucket.add(Transfer("a", "b", 1e6))  # fresh, rate 0
        bucket.remove(bucket.transfers[3])
        assert _same(bucket.total, _fold([0.1] * 11 + [0.0]))

    @pytest.mark.skipif(sys.version_info < (3, 12), reason="sum compensates from 3.12")
    def test_differs_from_compensated_sum_where_it_rounds(self):
        bucket = _bucket(math.inf, [1e6] * 10, [0.0] * 10)
        bucket.set_share(0.1)
        assert bucket.total == 0.9999999999999999 != sum([0.1] * 10)


class TestArrayHeadRemoval:
    """An array bucket drops its head by a view and anything else by
    ``np.delete``; either way its arrays must match an ``np.delete``
    reference element for element, and :meth:`_Bucket.sync_objects`
    must keep the transfer objects current."""

    def test_drain_matches_delete_reference(self):
        rng = random.Random(17)
        bucket = _Bucket(SMALL_BUCKET)
        sizes = [100.0 + 0.25 * i for i in range(3 * SMALL_BUCKET)]
        for size in sizes:
            bucket.add(Transfer("a", "b", size))
        assert bucket.size is not None
        ref_size = np.array(sizes)
        ref_done = np.zeros(len(sizes))
        share = 2.0
        bucket.set_share(share)
        heads = middles = 0
        while bucket.size is not None:
            dt = rng.uniform(0.01, 0.5)
            bucket.progress(dt)
            limit = len(bucket.transfers) - bucket.fresh
            np.minimum(
                ref_size[:limit], ref_done[:limit] + share * dt, out=ref_done[:limit]
            )
            roll = rng.random()
            if roll < 0.6:
                index = 0
                heads += 1
            elif roll < 0.8:
                index = rng.randrange(1, len(bucket.transfers))
                middles += 1
            else:
                index = None
                size = rng.uniform(50.0, 500.0)
                bucket.add(Transfer("a", "b", size))
                ref_size = np.append(ref_size, size)
                ref_done = np.append(ref_done, 0.0)
            if index is not None:
                victim = bucket.transfers[index]
                bucket.remove(victim)
                assert _packed(victim.transferred_mbits) == _packed(float(ref_done[index]))
                ref_size = np.delete(ref_size, index)
                ref_done = np.delete(ref_done, index)
            if rng.random() < 0.3:
                share = rng.uniform(0.5, 4.0)
                bucket.set_share(share)
            if bucket.size is None:
                break
            assert bucket.size.tobytes() == ref_size.tobytes()
            assert bucket.transferred.tobytes() == ref_done.tobytes()
            bucket.sync_objects()
            for transfer, done in zip(bucket.transfers, ref_done.tolist()):
                assert _packed(transfer.transferred_mbits) == _packed(done)
        assert heads > SMALL_BUCKET and middles > 5
        # Back on objects: the dropped arrays were written back.
        for transfer, done in zip(bucket.transfers, ref_done.tolist()):
            assert _packed(transfer.transferred_mbits) == _packed(done)
