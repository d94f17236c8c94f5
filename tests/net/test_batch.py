"""Unit tests of one transfer bucket (:mod:`repro.net.batch`)."""

import math
import random
import struct

import pytest

from repro.net.batch import _Bucket
from repro.net.simulator import Transfer


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


def _uncached_rate_total(bucket):
    """What :meth:`_Bucket.rate_total` computed before it was cached: the
    members' rates summed, or the share per rate-carrying member while
    the bucket is array-backed."""
    if bucket.size is None:
        return sum(t.rate_mbps for t in bucket.transfers)
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
