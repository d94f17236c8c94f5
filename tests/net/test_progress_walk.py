"""Differential test: the one-walk progress against the two-walk one.

``NetworkSimulator._progress`` lets the kernel advance every bucket,
collect finishers and accrue each pair's statistics in one pass, and
reads each bucket's cached rate total.  The test-only
:class:`TwoWalkNetworkSimulator` keeps the earlier code: the kernel
walks the buckets (progress, then the finished scan per bucket), and a
second walk over the pairs accrues statistics from each bucket's rate
total recomputed from scratch.  On the seeded scripts of
``test_deferred_solve.py`` (both kernels, plain weather and
``link-failure``), finish times, completion order, per-pair statistics
and event counts must be equal as packed doubles.
"""

import pytest
from test_deferred_solve import SEEDS, _run
from test_sharing_oracle import _bits

from repro.net.simulator import NetworkSimulator, PairStats
from repro.runtime.scenarios import scenario


def _rate_total(bucket) -> float:
    if bucket.size is None:
        # Added left to right, as ``sum`` did up to Python 3.11 and the
        # store does on every version (3.12's ``sum`` compensates).
        total = 0
        for transfer in bucket.transfers:
            total += transfer.rate_mbps
        return total
    return bucket.share * (len(bucket.transfers) - bucket.fresh)


class TwoWalkNetworkSimulator(NetworkSimulator):
    """The simulator with the progress walk it had before."""

    def _progress(self, collect: bool = False) -> list:
        dt = self.sim.now - self._last_progress_time
        store = self._inflight
        buckets = [*store.pairs.values(), store.lan]
        finished = []
        for bucket in buckets:
            if dt > 0:
                bucket.progress(dt)
            if collect:
                finished.extend(bucket.finished())
        if dt > 0:
            all_stats = self._stats
            for pair, bucket in store.pairs.items():
                rate = _rate_total(bucket)
                stats = all_stats.get(pair)
                if stats is None:
                    stats = all_stats[pair] = PairStats()
                stats.mbits += rate * dt
                stats.active_seconds += dt
                if rate > 0:
                    stats.min_rate_mbps = min(stats.min_rate_mbps, rate)
        self._last_progress_time = self.sim.now
        return finished


@pytest.mark.parametrize("kernel", ["scalar", "vectorized"])
@pytest.mark.parametrize("seed", SEEDS)
def test_one_walk_matches_two_walks(seed, kernel):
    walked = _run(NetworkSimulator, seed, kernel)
    oracle = _run(TwoWalkNetworkSimulator, seed, kernel)
    for key in ("finishes", "order", "stats", "events", "now", "observed"):
        assert _bits(walked[key]) == _bits(oracle[key]), key
    # Pairs enter the statistics in the same order: sums over them
    # (total WAN volume, egress per DC) add in that order.
    assert list(walked["stats"]) == list(oracle["stats"])
    assert walked["stats"]


@pytest.mark.parametrize("kernel", ["scalar", "vectorized"])
def test_one_walk_matches_two_walks_under_link_failure(kernel):
    weather = scenario("link-failure", seed=4)
    walked = _run(NetworkSimulator, 3, kernel, weather=weather, time_offset=625.0)
    oracle = _run(TwoWalkNetworkSimulator, 3, kernel, weather=weather, time_offset=625.0)
    for key in ("finishes", "order", "stats", "events", "now", "observed"):
        assert _bits(walked[key]) == _bits(oracle[key]), key
