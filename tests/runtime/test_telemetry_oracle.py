"""Differential tests: the sample store and metrics log against the
copies kept before the per-link lists.

:class:`~repro.runtime.telemetry.LinkSeries` keeps two append-only
lists and cuts its window by bisect; the hub's
:class:`~repro.runtime.observability.warehouse.MetricsLog` is a view
over the store's lists instead of a second copy of every sample.
``oracle_telemetry.py`` keeps the deque-based series, the store with
its sinks and the list-of-rows log as they were.  Random per-link
time-ordered streams go into both, and every estimator, percentile,
matrix, rollup row and row count must match exactly (floats compared
by their round-tripping repr), under both retention modes:

* several links, zero rates and equal timestamps;
* times on and one ulp below 1m/10m/1h bucket boundaries;
* streams longer than ``maxlen``.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_telemetry import MetricsLog as OracleMetricsLog
from oracle_telemetry import TelemetryStore as OracleTelemetryStore

from repro.runtime.observability.warehouse import GRAINS, ROLLUP_LEVELS, MetricsLog
from repro.runtime.telemetry import DEFAULT_MAXLEN, TelemetryStore

NODES = ("a", "b", "c", "d")

#: Capacity oracle for the threshold columns; ``d`` links have none.
CAPACITY = {"a": 100.0, "b": 250.0, "c": 40.0, "d": 0.0}

WINDOWS = (None, 0.0, 59.5, 300.0, 1e9)
PERCENTILES = (0.0, 50.0, 95.0, 100.0)
RATES = (0.0, 0.0, 10.0, 40.0, 95.0, 120.0, 250.0, 1e-3)
STEPS = (0.0, 0.0, 0.5, 5.0, 17.5, 60.0, 600.0, 3600.0)


def capacity_of(src, dst):
    return min(CAPACITY[src], CAPACITY[dst])


def same(got, want):
    """Equal as printed: a float's repr round-trips it exactly, sign of
    zero included, so this compares every float bit for bit."""
    return repr(got) == repr(want)


@st.composite
def streams(draw, max_ticks=60):
    """Monitor ticks ``(src, time, {dst: rate})`` in time order."""
    t = draw(st.sampled_from((0.0, 3.0, 3540.0, 7199.0)))
    ticks = []
    for _ in range(draw(st.integers(1, max_ticks))):
        previous = t
        t += draw(st.sampled_from(STEPS) | st.floats(0.0, 90.0))
        snap = draw(st.sampled_from((None, None, "on", "below")))
        if snap is not None:
            width = draw(st.sampled_from(tuple(GRAINS.values())))
            t = math.ceil(t / width) * width
            if snap == "below" and math.nextafter(t, 0.0) >= previous:
                t = math.nextafter(t, 0.0)
        src = draw(st.sampled_from(NODES))
        dsts = draw(
            st.lists(
                st.sampled_from([n for n in NODES if n != src]),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        rates = {
            dst: draw(st.sampled_from(RATES) | st.floats(0.0, 300.0))
            for dst in dsts
        }
        ticks.append((src, t, rates))
    return ticks


class Pair:
    """The oracle store and log beside both retention modes of the new
    store, each fed the same ticks."""

    def __init__(self, maxlen, window_s=120.0):
        self.oracle = OracleTelemetryStore(window_s=window_s, maxlen=maxlen)
        self.oracle_log = OracleMetricsLog(capacity_of)
        self.oracle.attach(self.oracle_log.record)
        self.kept = TelemetryStore(window_s=window_s, maxlen=maxlen, keep_all=True)
        self.log = MetricsLog(capacity_of, self.kept)
        self.bounded = TelemetryStore(window_s=window_s, maxlen=maxlen)
        # Standalone logs ingesting one link sample at a time.
        self.oracle_observed = OracleMetricsLog(capacity_of)
        self.observed = MetricsLog(capacity_of)

    def feed(self, ticks):
        for src, t, rates in ticks:
            for store in (self.oracle, self.kept, self.bounded):
                store.record(src, t, rates)
            for dst, rate in rates.items():
                self.oracle_observed.observe(t, src, dst, rate)
                self.observed.observe(t, src, dst, rate)

    def assert_same_estimates(self):
        links = self.oracle.links()
        probe = links + [("a", "zz")]
        for store in (self.kept, self.bounded):
            assert store.links() == links
            assert store.total_samples == self.oracle.total_samples
            for src, dst in probe:
                for window in WINDOWS:
                    assert same(
                        store.estimate(src, dst, window),
                        self.oracle.estimate(src, dst, window),
                    )
                    for p in PERCENTILES:
                        for active_only in (True, False):
                            got = store.capacity_mbps(
                                src, dst, p, window, active_only
                            )
                            want = self.oracle.capacity_mbps(
                                src, dst, p, window, active_only
                            )
                            assert same(got, want)
            for src, dst in links:
                series, old = store.series(src, dst), self.oracle.series(src, dst)
                assert same(series.ewma, old.ewma)
                assert same(series.last_time, old.last_time)
                for window in WINDOWS:
                    assert same(series.window(window), old.window(window))
            for window in WINDOWS:
                for p in (50.0, 95.0):
                    for active_only in (True, False):
                        got = store.estimate_matrix(
                            NODES + ("zz",), p, window, active_only
                        )
                        want = self.oracle.estimate_matrix(
                            NODES + ("zz",), p, window, active_only
                        )
                        assert got.keys == want.keys
                        assert got.values.tobytes() == want.values.tobytes()

    def assert_same_rollups(self):
        for log, oracle in (
            (self.log, self.oracle_log),
            (self.observed, self.oracle_observed),
        ):
            assert log.size == oracle.size
            assert log.links() == oracle.links()
            assert log.rollup_rows() == oracle.rollup_rows()
            for grain in GRAINS:
                for by in ROLLUP_LEVELS:
                    got = [row.to_json() for row in log.rollup(grain, by)]
                    want = [row.to_json() for row in oracle.rollup(grain, by)]
                    assert same(got, want)


@settings(max_examples=40, deadline=None)
@given(
    ticks=streams(),
    maxlen=st.sampled_from((1, 2, 5, 40)),
    cut=st.floats(0.0, 1.0),
)
def test_random_streams_match_the_oracle(ticks, maxlen, cut):
    """Short ``maxlen`` values make most streams outgrow the bound, so
    the bounded store trims and both stores read only ``maxlen``
    samples back.  The stream is compared halfway and at its end, so
    memoized rollups are re-checked after the store grows."""
    pair = Pair(maxlen)
    split = int(len(ticks) * cut)
    for part in (ticks[:split], ticks[split:]):
        pair.feed(part)
        pair.assert_same_estimates()
        pair.assert_same_rollups()


def test_streams_longer_than_the_default_maxlen():
    """A 5 s monitor over 3000 ticks outgrows ``DEFAULT_MAXLEN`` on
    every link, past the bounded store's amortized trims."""
    rng = random.Random(7)
    pair = Pair(DEFAULT_MAXLEN, window_s=300.0)
    ticks = []
    for tick in range(3000):
        src = NODES[tick % 3]
        rates = {
            dst: rng.choice((0.0, rng.uniform(0.0, 300.0)))
            for dst in NODES
            if dst != src
        }
        ticks.append((src, 5.0 * (tick // 3), rates))
    pair.feed(ticks)
    assert len(pair.kept.series("a", "b").times) == 1000
    assert len(pair.bounded.series("a", "b").times) <= 2 * DEFAULT_MAXLEN
    pair.assert_same_estimates()
    pair.assert_same_rollups()
