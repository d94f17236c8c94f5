"""Tests for the shared telemetry store and its estimators."""

import pytest

from repro.net.monitor import WanMonitor
from repro.net.simulator import NetworkSimulator
from repro.runtime.telemetry import LinkEstimate, LinkSeries, TelemetryStore


class TestLinkSeries:
    def test_empty_window_percentile_is_zero(self):
        series = LinkSeries()
        assert series.percentile(50) == 0.0
        assert series.percentile(95) == 0.0
        assert series.ewma == 0.0

    def test_single_sample_is_every_percentile(self):
        series = LinkSeries()
        series.add(1.0, 250.0)
        for p in (0, 50, 95, 100):
            assert series.percentile(p) == pytest.approx(250.0)

    def test_all_equal_rates(self):
        series = LinkSeries()
        for t in range(10):
            series.add(float(t), 100.0)
        assert series.percentile(50) == pytest.approx(100.0)
        assert series.percentile(95) == pytest.approx(100.0)
        assert series.ewma == pytest.approx(100.0)

    def test_idle_samples_excluded_from_capacity(self):
        series = LinkSeries()
        for t in range(8):
            series.add(float(t), 0.0)
        series.add(8.0, 400.0)
        # Active-only percentile sees just the one busy sample.
        assert series.percentile(50) == pytest.approx(400.0)
        # But the raw view (active_only=False) includes the idle ticks.
        assert series.percentile(50, active_only=False) < 400.0

    def test_sliding_window_drops_old_samples(self):
        series = LinkSeries()
        series.add(0.0, 1000.0)
        for t in range(100, 110):
            series.add(float(t), 100.0)
        # A 20s window anchored at t=109 excludes the 1000 Mbps sample.
        assert series.percentile(100, window_s=20.0) == pytest.approx(100.0)
        # An unbounded window still sees it.
        assert series.percentile(100) == pytest.approx(1000.0)

    def test_bounded_history(self):
        """A bounded series trims to ``maxlen`` (amortized, so it may
        hold up to twice that) and never reads past ``maxlen``."""
        series = LinkSeries(maxlen=16)
        for t in range(100):
            series.add(float(t), float(t))
        assert 16 <= len(series.times) == len(series.rates) <= 32
        assert series.window() == [float(t) for t in range(84, 100)]
        assert series.window(1e9) == series.window()

    def test_keep_all_retains_every_sample_but_reads_maxlen(self):
        series = LinkSeries(maxlen=16, keep_all=True)
        for t in range(100):
            series.add(float(t), float(t))
        assert series.times == [float(t) for t in range(100)]
        assert series.window() == [float(t) for t in range(84, 100)]
        assert series.window(5.0) == [float(t) for t in range(94, 100)]

    def test_equal_times_are_kept_in_order(self):
        series = LinkSeries()
        for rate in (1.0, 2.0, 3.0):
            series.add(7.0, rate)
        series.add(9.0, 4.0)
        assert series.window(2.0) == [1.0, 2.0, 3.0, 4.0]
        assert series.window(1.0) == [4.0]

    def test_ewma_tracks_recent_level(self):
        series = LinkSeries(ewma_alpha=0.5)
        series.add(0.0, 100.0)
        series.add(1.0, 200.0)
        assert series.ewma == pytest.approx(150.0)

    def test_percentile_validates_range(self):
        with pytest.raises(ValueError):
            LinkSeries().percentile(101.0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            LinkSeries(maxlen=0)
        with pytest.raises(ValueError):
            LinkSeries(ewma_alpha=0.0)


class TestTelemetryStore:
    def test_record_matches_monitor_signature(self):
        store = TelemetryStore()
        store.record("us-east-1", 5.0, {"us-west-1": 120.0, "eu-west-1": 0.0})
        assert store.total_samples == 1
        assert store.links() == [
            ("us-east-1", "eu-west-1"),
            ("us-east-1", "us-west-1"),
        ]
        assert store.capacity_mbps("us-east-1", "us-west-1") == pytest.approx(
            120.0
        )

    def test_estimate_bundle(self):
        store = TelemetryStore()
        for t in range(5):
            store.record("a", float(t), {"b": 100.0 + t})
        estimate = store.estimate("a", "b")
        assert estimate.samples == 5
        assert estimate.last_time == 4.0
        assert estimate.p50 == pytest.approx(102.0)
        assert estimate.p95 >= estimate.p50

    def test_estimate_matrix_leaves_unsampled_pairs_zero(self):
        store = TelemetryStore()
        store.record("a", 1.0, {"b": 300.0})
        matrix = store.estimate_matrix(("a", "b"))
        assert matrix.get("a", "b") == pytest.approx(300.0)
        assert matrix.get("b", "a") == 0.0

    def test_unknown_link_reads_empty_sentinel(self):
        """Peeking at a never-sampled link yields the sentinel…"""
        store = TelemetryStore()
        estimate = store.estimate("a", "b")
        assert LinkEstimate.empty().is_empty
        assert estimate.is_empty
        assert estimate.p50 == estimate.p95 == estimate.ewma == 0.0
        assert estimate.last_time != estimate.last_time  # nan

    def test_estimate_peek_is_read_only(self):
        """…and leaves no phantom series behind (links() stays clean)."""
        store = TelemetryStore()
        store.record("a", 1.0, {"b": 100.0})
        store.estimate("x", "y")
        store.capacity_mbps("p", "q")
        assert store.links() == [("a", "b")]

    def test_single_sample_estimate(self):
        """One active sample is its own p50 and p95."""
        store = TelemetryStore()
        store.record("a", 1.0, {"b": 250.0})
        estimate = store.estimate("a", "b")
        assert not estimate.is_empty
        assert estimate.samples == 1
        assert estimate.p50 == pytest.approx(250.0)
        assert estimate.p95 == pytest.approx(250.0)

    def test_idle_only_window_is_empty_estimate(self):
        """A sampled-but-always-idle link reads as empty: zero-rate
        ticks say nothing about capacity, so percentiles stay 0 and
        ``is_empty`` is true even though ``last_time`` is real."""
        store = TelemetryStore()
        for t in range(4):
            store.record("a", float(t), {"b": 0.0})
        estimate = store.estimate("a", "b")
        assert estimate.is_empty
        assert estimate.samples == 0
        assert estimate.p95 == 0.0
        assert estimate.last_time == 3.0

    def test_outage_zeros_count_toward_raw_percentile(self):
        """Full-outage regression: the zero ticks a dead link keeps
        publishing are *retained* and count toward the percentile
        window when asked for the raw (``active_only=False``) view.

        The active-only default deliberately ignores them (an idle
        link says nothing about capacity), which means it replays the
        stale pre-outage p95 for as long as any busy sample remains in
        the window — the trap outage-aware consumers avoid by reading
        ``active_only=False``.
        """
        store = TelemetryStore(window_s=1000.0)
        # 5 busy ticks, then the link dies: 145 outage zeros.
        for t in range(5):
            store.record("a", float(t), {"b": 800.0})
        for t in range(5, 150):
            store.record("a", float(t), {"b": 0.0})
        # Zeros were kept in the series, not dropped on ingest.
        assert len(store.series("a", "b").rates) == 150
        # Active-only view: stale 800 Mbps (the documented trap).
        assert store.capacity_mbps("a", "b", 95.0) == pytest.approx(800.0)
        # Raw view: the outage zeros dominate and p95 collapses.
        assert store.capacity_mbps(
            "a", "b", 95.0, active_only=False
        ) == pytest.approx(0.0)

    def test_window_override_narrows_the_view(self):
        """Estimators accept a per-call trailing window: a recalibrator
        asking over its own (shorter) window sees only the outage."""
        store = TelemetryStore(window_s=1000.0)
        for t in range(5):
            store.record("a", float(t), {"b": 800.0})
        for t in range(5, 50):
            store.record("a", float(t), {"b": 0.0})
        # A 30 s window anchored at t=49 holds only outage zeros.
        assert store.capacity_mbps(
            "a", "b", 95.0, window_s=30.0, active_only=False
        ) == pytest.approx(0.0)
        assert store.estimate("a", "b", window_s=30.0).is_empty
        # The store-default window still reaches the busy samples.
        assert not store.estimate("a", "b").is_empty

    def test_estimate_matrix_raw_view(self):
        """``estimate_matrix`` plumbs ``active_only``/``window_s``."""
        store = TelemetryStore(window_s=100.0)
        for t in range(10):
            store.record("a", float(t), {"b": 0.0})
        store.record("a", 10.0, {"b": 300.0})
        active = store.estimate_matrix(("a", "b"), percentile=50.0)
        raw = store.estimate_matrix(
            ("a", "b"), percentile=50.0, active_only=False
        )
        assert active.get("a", "b") == pytest.approx(300.0)
        assert raw.get("a", "b") == pytest.approx(0.0)

    def test_out_of_order_sample_refused(self):
        """Each link's times must not go backwards: the window is cut
        by bisecting them.  The error names the link and both times;
        the refused sample is not stored, and other links are free."""
        store = TelemetryStore()
        store.record("a", 10.0, {"b": 20.0})
        with pytest.raises(ValueError, match=r"a→b.*t=9\.5.*t=10\.0"):
            store.record("a", 9.5, {"b": 30.0})
        assert store.series("a", "b").times == [10.0]
        store.record("a", 9.5, {"c": 30.0})
        store.record("a", 10.0, {"b": 40.0})  # equal times are fine
        assert store.capacity_mbps("a", "b", 100.0) == 40.0

    def test_fed_by_live_monitor(self, triad, calm):
        """A WanMonitor with the store as sink publishes every tick."""
        net = NetworkSimulator(triad, fluctuation=calm)
        store = TelemetryStore()
        monitor = WanMonitor(
            net, "us-east-1", interval_s=1.0, on_sample=store.record
        )
        net.start_transfer("us-east-1", "us-west-1", 1e5)
        net.sim.run(until=10.0)
        assert store.total_samples == len(monitor.samples) == 10
        assert store.capacity_mbps("us-east-1", "us-west-1") > 0
        # The store's latest matches the monitor's latest.
        assert store.series(
            "us-east-1", "us-west-1"
        ).rates[-1] == pytest.approx(monitor.latest_rate("us-west-1"))
