"""Tests for WanMonitor and TrafficController."""

import struct

import pytest

from repro.net.monitor import WanMonitor
from repro.net.simulator import NetworkSimulator
from repro.net.traffic_control import TrafficController


class TestWanMonitor:
    def test_samples_outgoing_rates(self, triad, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        monitor = WanMonitor(net, "us-east-1", interval_s=1.0)
        net.start_transfer("us-east-1", "us-west-1", 1e6)
        net.sim.run(until=3.5)
        assert len(monitor.samples) == 3
        assert monitor.latest_rate("us-west-1") > 0
        assert monitor.latest_rate("ap-southeast-1") == 0.0

    def test_latest_empty_before_first_tick(self, triad, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        monitor = WanMonitor(net, "us-east-1", interval_s=5.0)
        assert monitor.latest() == {}
        assert monitor.latest_rate("us-west-1") == 0.0

    def test_window_volume_tracks_increments(self, triad, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        monitor = WanMonitor(net, "us-east-1", interval_s=1.0)
        net.start_transfer("us-east-1", "us-west-1", 800.0)  # 100 MB
        net.sim.run()
        first = monitor.window_volume_mb("us-west-1")
        assert first == pytest.approx(100.0, rel=0.02)
        # Second read with no new traffic → ~0.
        assert monitor.window_volume_mb("us-west-1") == pytest.approx(
            0.0, abs=1e-6
        )

    def test_history_bounded(self, triad, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        monitor = WanMonitor(net, "us-east-1", interval_s=1.0, history=5)
        net.sim.run(until=20.0)
        assert len(monitor.samples) == 5

    def test_stop_ends_sampling(self, triad, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        monitor = WanMonitor(net, "us-east-1", interval_s=1.0)
        net.sim.run(until=2.5)
        monitor.stop()
        net.sim.run(until=10.0)
        assert len(monitor.samples) == 2

    def test_history_ring_buffer_bounds_at_default_512(self, triad, calm):
        """The default history=512 holds exactly the last 512 samples."""
        net = NetworkSimulator(triad, fluctuation=calm)
        monitor = WanMonitor(net, "us-east-1", interval_s=1.0)
        assert monitor.history_limit == 512
        net.sim.run(until=600.0)
        assert len(monitor.samples) == 512
        # Oldest retained tick is 600 - 512 + 1 = 89.
        assert monitor.samples[0].time == pytest.approx(89.0)
        assert monitor.samples[-1].time == pytest.approx(600.0)

    def test_window_volume_accumulates_and_resets_per_destination(
        self, triad, calm
    ):
        net = NetworkSimulator(triad, fluctuation=calm)
        monitor = WanMonitor(net, "us-east-1", interval_s=1.0)
        net.start_transfer("us-east-1", "us-west-1", 800.0)  # 100 MB
        net.start_transfer("us-east-1", "ap-southeast-1", 80.0)  # 10 MB
        net.sim.run()
        # Each destination accumulates independently…
        assert monitor.window_volume_mb("us-west-1") == pytest.approx(
            100.0, rel=0.02
        )
        assert monitor.window_volume_mb("ap-southeast-1") == pytest.approx(
            10.0, rel=0.02
        )
        # …and each read resets only its own anchor.
        net.start_transfer("us-east-1", "us-west-1", 80.0)
        net.sim.run()
        assert monitor.window_volume_mb("us-west-1") == pytest.approx(
            10.0, rel=0.02
        )
        assert monitor.window_volume_mb("ap-southeast-1") == pytest.approx(
            0.0, abs=1e-6
        )

    def test_window_volume_is_the_pair_statistics_delta(self, triad, weather):
        """Each read is the pair's accumulated Mbit / 8 minus the last
        read, to the bit, mid-transfer and for a pair that never ran."""
        net = NetworkSimulator(triad, fluctuation=weather)
        monitor = WanMonitor(net, "us-east-1", interval_s=1.0)
        net.start_transfer("us-east-1", "us-west-1", 5000.0)
        net.start_transfer("us-east-1", "ap-southeast-1", 900.0)
        anchors = {}
        reads = 0
        for until in (3.0, 7.5, 20.0, 60.0):
            net.sim.run(until=until)
            for dst in triad.keys:
                stats = net.pair_statistics().get(("us-east-1", dst))
                total_mb = (stats.mbits / 8.0) if stats else 0.0
                expected = max(0.0, total_mb - anchors.get(dst, 0.0))
                anchors[dst] = total_mb
                got = monitor.window_volume_mb(dst)
                assert struct.pack("<d", got) == struct.pack("<d", expected)
                reads += got > 0.0
        assert reads >= 4

    def test_sample_reads_every_destination_in_key_order(self, triad, weather):
        """One flush per sample gives what ``current_rate`` gives per
        destination, in topology key order."""
        net = NetworkSimulator(triad, fluctuation=weather)
        monitor = WanMonitor(net, "us-east-1", interval_s=1.0)
        net.start_transfer("us-east-1", "us-west-1", 1e6)
        net.start_transfer("us-east-1", "ap-southeast-1", 1e6)
        net.start_transfer("us-west-1", "us-east-1", 1e6)
        for until in (1.0, 2.5, 4.0):
            net.sim.run(until=until)
            rates = monitor.latest()
            assert list(rates) == ["us-west-1", "ap-southeast-1"]
            assert net.outgoing_rates("us-east-1") == rates
            for dst, rate in rates.items():
                expected = net.current_rate("us-east-1", dst)
                assert rate > 0
                assert struct.pack("<d", rate) == struct.pack("<d", expected)

    def test_window_volumes_equal_one_read_per_destination(self, triad, weather):
        """Reading every destination at once equals reading them one by
        one on a twin network, anchors included."""
        monitors = []
        for _ in range(2):
            net = NetworkSimulator(triad, fluctuation=weather)
            net.start_transfer("us-east-1", "us-west-1", 5000.0)
            net.start_transfer("us-east-1", "ap-southeast-1", 900.0)
            monitors.append(WanMonitor(net, "us-east-1", interval_s=1.0))
        together, apart = monitors
        dsts = ["ap-southeast-1", "us-west-1", "us-east-1"]
        for until in (3.0, 7.5, 60.0):
            for monitor in monitors:
                monitor.network.sim.run(until=until)
            read = together.window_volumes_mb(dsts)
            assert list(read) == dsts
            for dst in dsts:
                one = apart.window_volume_mb(dst)
                assert struct.pack("<d", read[dst]) == struct.pack("<d", one)

    def test_rate_percentile_empty_history(self, triad, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        monitor = WanMonitor(net, "us-east-1", interval_s=1.0)
        assert monitor.rate_percentile("us-west-1", 95.0) == 0.0

    def test_rate_percentile_single_sample(self, triad, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        monitor = WanMonitor(net, "us-east-1", interval_s=1.0)
        net.start_transfer("us-east-1", "us-west-1", 1e6)
        net.sim.run(until=1.0)
        only = monitor.latest_rate("us-west-1")
        assert only > 0
        for p in (0.0, 50.0, 100.0):
            assert monitor.rate_percentile("us-west-1", p) == pytest.approx(
                only
            )

    def test_rate_percentile_all_equal_rates(self, triad, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        monitor = WanMonitor(net, "us-east-1", interval_s=1.0)
        net.start_transfer("us-east-1", "us-west-1", 1e6)
        net.sim.run(until=20.0)
        rates = {
            s.rates_mbps["us-west-1"]
            for s in monitor.samples
        }
        assert len(rates) == 1  # calm weather → constant rate
        assert monitor.rate_percentile("us-west-1", 50.0) == pytest.approx(
            rates.pop()
        )

    def test_rate_percentile_ignores_idle_samples(self, triad, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        monitor = WanMonitor(net, "us-east-1", interval_s=1.0)
        net.sim.run(until=10.0)  # idle ticks only
        net.start_transfer("us-east-1", "us-west-1", 1e5)
        net.sim.run(until=12.0)
        busy = monitor.latest_rate("us-west-1")
        # Median over *active* samples is the busy rate, not ~0.
        assert monitor.rate_percentile("us-west-1", 50.0) == pytest.approx(
            busy
        )

    def test_rate_percentile_validates_range(self, triad, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        monitor = WanMonitor(net, "us-east-1", interval_s=1.0)
        with pytest.raises(ValueError):
            monitor.rate_percentile("us-west-1", -1.0)

    def test_on_sample_publishes_every_tick(self, triad, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        published = []
        monitor = WanMonitor(
            net,
            "us-east-1",
            interval_s=1.0,
            on_sample=lambda dc, t, rates: published.append((dc, t, rates)),
        )
        net.start_transfer("us-east-1", "us-west-1", 1e5)
        net.sim.run(until=3.0)
        assert len(published) == len(monitor.samples) == 3
        dc, t, rates = published[-1]
        assert dc == "us-east-1"
        assert t == pytest.approx(3.0)
        assert rates["us-west-1"] == monitor.latest_rate("us-west-1")


class TestTrafficController:
    def test_limit_roundtrip(self):
        tc = TrafficController()
        tc.set_limit("a", "b", 100.0)
        assert tc.limit("a", "b") == 100.0
        assert tc.limit("b", "a") == float("inf")

    def test_clear_limit(self):
        tc = TrafficController()
        tc.set_limit("a", "b", 100.0)
        tc.clear_limit("a", "b")
        assert tc.limit("a", "b") == float("inf")

    def test_clear_all(self):
        tc = TrafficController()
        tc.set_limit("a", "b", 100.0)
        tc.set_limit("b", "c", 50.0)
        tc.clear_all()
        assert tc.limits() == {}

    def test_invalid_limit_rejected(self):
        tc = TrafficController()
        with pytest.raises(ValueError):
            tc.set_limit("a", "b", 0.0)

    def test_nan_limit_rejected(self):
        """``min(cap, nan)`` would keep the cap, so a NaN throttle would
        be reported by ``limits()`` and silently ignored by pricing."""
        tc = TrafficController()
        calls = []
        tc.bind(lambda: calls.append(1))
        with pytest.raises(ValueError, match="^throttle must be positive: nan$"):
            tc.set_limit("a", "b", float("nan"))
        assert tc.limits() == {} and calls == []

    def test_change_notification(self):
        tc = TrafficController()
        calls = []
        tc.bind(lambda: calls.append(1))
        tc.set_limit("a", "b", 10.0)
        tc.clear_limit("a", "b")
        tc.clear_limit("a", "b")  # absent → no notify
        assert len(calls) == 2
