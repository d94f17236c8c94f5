"""Tests for WanMonitor and TrafficController."""

import math
import struct

import pytest

from repro.net.monitor import WanMonitor
from repro.net.simulator import NetworkSimulator
from repro.net.traffic_control import TrafficController
from repro.runtime.telemetry import TelemetryStore
from repro.sim.kernel import Simulator


def fed(net, interval_s=1.0):
    """A monitor on ``us-east-1`` whose sink is a fresh telemetry store."""
    store = TelemetryStore()
    monitor = WanMonitor(net, "us-east-1", interval_s=interval_s, on_sample=store.record)
    return monitor, store


def ticks(net, interval_s=1.0):
    """A monitor on ``us-east-1`` whose sink is a list of its ticks."""
    published = []
    monitor = WanMonitor(
        net,
        "us-east-1",
        interval_s=interval_s,
        on_sample=lambda dc, t, rates: published.append((dc, t, rates)),
    )
    return monitor, published


class TestWanMonitor:
    """The monitor keeps only its latest tick; percentiles of its ticks
    are read from the :class:`TelemetryStore` its ``on_sample`` feeds."""

    def test_samples_outgoing_rates(self, triad, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        monitor, published = ticks(net)
        net.start_transfer("us-east-1", "us-west-1", 1e6)
        net.sim.run(until=3.5)
        assert len(published) == 3
        assert monitor.latest()["us-west-1"] > 0
        assert monitor.latest()["ap-southeast-1"] == 0.0

    def test_latest_empty_before_first_tick(self, triad, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        monitor = WanMonitor(net, "us-east-1", interval_s=5.0)
        assert monitor.latest() == {}

    def test_window_volume_tracks_increments(self, triad, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        monitor = WanMonitor(net, "us-east-1", interval_s=1.0)
        net.start_transfer("us-east-1", "us-west-1", 800.0)  # 100 MB
        net.sim.run()
        first = monitor.window_volumes_mb(["us-west-1"])["us-west-1"]
        assert first == pytest.approx(100.0, rel=0.02)
        # Second read with no new traffic → ~0.
        assert monitor.window_volumes_mb(["us-west-1"])["us-west-1"] == pytest.approx(
            0.0, abs=1e-6
        )

    def test_history_bounded(self, triad, calm):
        """No container on the monitor grows with ticks: its memory is
        the latest sample and one volume anchor per destination."""
        net = NetworkSimulator(triad, fluctuation=calm)
        monitor, published = ticks(net)
        net.start_transfer("us-east-1", "us-west-1", 1e6)

        def sizes():
            return {
                name: len(value)
                for name, value in vars(monitor).items()
                if isinstance(value, (list, dict, tuple, set))
            }

        net.sim.run(until=2.0)
        monitor.window_volumes_mb(triad.keys)
        before = sizes()
        net.sim.run(until=20.0)
        monitor.window_volumes_mb(triad.keys)
        assert len(published) == 20
        assert sizes() == before

    def test_stop_ends_sampling(self, triad, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        monitor, published = ticks(net)
        net.sim.run(until=2.5)
        monitor.stop()
        net.sim.run(until=10.0)
        assert len(published) == 2

    def test_history_ring_buffer_bounds_at_default_512(self, triad, calm):
        """The store the monitor feeds reads back the last 512 ticks by
        default."""
        net = NetworkSimulator(triad, fluctuation=calm)
        _, store = fed(net)
        net.sim.run(until=600.0)
        series = store.series("us-east-1", "us-west-1")
        assert store.total_samples == 600
        assert len(series.window()) == 512
        # Oldest tick read back is 600 - 512 + 1 = 89.
        assert series.times[-512] == pytest.approx(89.0)
        assert series.times[-1] == pytest.approx(600.0)

    def test_window_volume_accumulates_and_resets_per_destination(
        self, triad, calm
    ):
        net = NetworkSimulator(triad, fluctuation=calm)
        monitor = WanMonitor(net, "us-east-1", interval_s=1.0)
        net.start_transfer("us-east-1", "us-west-1", 800.0)  # 100 MB
        net.start_transfer("us-east-1", "ap-southeast-1", 80.0)  # 10 MB
        net.sim.run()
        # Each destination accumulates independently…
        read = monitor.window_volumes_mb(["us-west-1"])
        assert read == {"us-west-1": pytest.approx(100.0, rel=0.02)}
        read = monitor.window_volumes_mb(["ap-southeast-1"])
        assert read == {"ap-southeast-1": pytest.approx(10.0, rel=0.02)}
        # …and each read resets only its own anchor.
        net.start_transfer("us-east-1", "us-west-1", 80.0)
        net.sim.run()
        read = monitor.window_volumes_mb(["us-west-1"])
        assert read == {"us-west-1": pytest.approx(10.0, rel=0.02)}
        read = monitor.window_volumes_mb(["ap-southeast-1"])
        assert read == {"ap-southeast-1": pytest.approx(0.0, abs=1e-6)}

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
                got = monitor.window_volumes_mb([dst])[dst]
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
                one = apart.window_volumes_mb([dst])[dst]
                assert struct.pack("<d", read[dst]) == struct.pack("<d", one)

    def test_window_volumes_read_only_their_pairs(self, triad, weather, monkeypatch):
        """An epoch's read goes through ``sent_mbits`` and never copies
        every pair's statistics."""
        net = NetworkSimulator(triad, fluctuation=weather)
        monitor = WanMonitor(net, "us-east-1", interval_s=1.0)
        net.start_transfer("us-east-1", "us-west-1", 5000.0)

        def copy_all():
            raise AssertionError("pair_statistics() copied")

        monkeypatch.setattr(net, "pair_statistics", copy_all)
        net.sim.run(until=4.0)
        read = monitor.window_volumes_mb(dst for dst in ("us-west-1", "ap-southeast-1"))
        assert read["us-west-1"] > 0.0 and read["ap-southeast-1"] == 0.0

    def test_window_clamp_same_as_max(self, monkeypatch):
        """The window is clamped by a comparison; it must return what
        ``max(0.0, total - anchor)`` did, read after read, for negative,
        -0.0, NaN and infinite windows and a destination asked twice."""
        sent = {}

        class Totals:
            sim = Simulator()

            def sent_mbits(self, src, dsts):
                return [sent.get(dst, 0.0) for dst in dsts]

        monitor = WanMonitor(Totals(), "a", interval_s=1.0)
        anchors = {}
        script = [
            {"b": 8.0, "c": -0.0},
            {"b": 0.0, "c": 0.0},  # totals reset: a negative window
            {"b": -0.0, "c": -8.0},  # -0.0 - 0.0 is -0.0
            {"b": float("nan"), "c": 16.0},
            {"b": 24.0, "c": math.inf},  # against a NaN anchor
            {"b": math.inf, "c": math.inf},  # inf - inf
            {"b": 3.0, "c": 5e-324},
        ]
        for totals in script:
            sent.update(totals)
            dsts = ["b", "c", "b"]
            expected = {}
            for dst in dsts:
                total_mb = sent[dst] / 8.0
                expected[dst] = max(0.0, total_mb - anchors.get(dst, 0.0))
                anchors[dst] = total_mb
            got = monitor.window_volumes_mb(dsts)
            assert list(got) == list(expected)
            for dst in expected:
                assert type(got[dst]) is float
                assert struct.pack("<d", got[dst]) == struct.pack("<d", expected[dst])

    def test_rate_percentile_empty_history(self, triad, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        _, store = fed(net)
        assert store.capacity_mbps("us-east-1", "us-west-1", 95.0) == 0.0

    def test_rate_percentile_single_sample(self, triad, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        monitor, store = fed(net)
        net.start_transfer("us-east-1", "us-west-1", 1e6)
        net.sim.run(until=1.0)
        only = monitor.latest()["us-west-1"]
        assert only > 0
        for p in (0.0, 50.0, 100.0):
            assert store.capacity_mbps("us-east-1", "us-west-1", p) == only

    def test_rate_percentile_all_equal_rates(self, triad, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        _, store = fed(net)
        net.start_transfer("us-east-1", "us-west-1", 1e6)
        net.sim.run(until=20.0)
        rates = set(store.series("us-east-1", "us-west-1").rates)
        assert len(rates) == 1  # calm weather → constant rate
        assert store.capacity_mbps("us-east-1", "us-west-1", 50.0) == rates.pop()

    def test_rate_percentile_ignores_idle_samples(self, triad, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        monitor, store = fed(net)
        net.sim.run(until=10.0)  # idle ticks only
        net.start_transfer("us-east-1", "us-west-1", 1e5)
        net.sim.run(until=12.0)
        busy = monitor.latest()["us-west-1"]
        # Median over *active* samples is the busy rate, not ~0.
        assert store.capacity_mbps("us-east-1", "us-west-1", 50.0) == pytest.approx(busy)

    def test_rate_percentile_validates_range(self, triad, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        _, store = fed(net)
        net.sim.run(until=1.0)
        with pytest.raises(ValueError):
            store.capacity_mbps("us-east-1", "us-west-1", -1.0)

    def test_on_sample_publishes_every_tick(self, triad, calm):
        net = NetworkSimulator(triad, fluctuation=calm)
        monitor, published = ticks(net)
        net.start_transfer("us-east-1", "us-west-1", 1e5)
        net.sim.run(until=3.0)
        assert len(published) == 3
        dc, t, rates = published[-1]
        assert dc == "us-east-1"
        assert t == pytest.approx(3.0)
        assert rates == monitor.latest()

    def test_every_tick_reaches_the_sink_as_latest_returns_it(self, triad, weather):
        """Each tick hands the sink the rates ``latest()`` returns from
        then on, and neither the sink's dict nor ``latest()``'s result
        is the monitor's own."""
        net = NetworkSimulator(triad, fluctuation=weather)
        seen = []
        monitor = WanMonitor(
            net,
            "us-east-1",
            interval_s=60.0,
            on_sample=lambda dc, t, rates: seen.append((t, rates, monitor.latest())),
        )
        net.start_transfer("us-east-1", "us-west-1", 1e7)
        net.start_transfer("us-east-1", "ap-southeast-1", 1e6)
        for tick in range(1, 41):
            net.sim.run(until=60.0 * tick)
            assert len(seen) == tick
            t, rates, latest = seen[-1]
            assert t == 60.0 * tick
            assert rates == latest == monitor.latest()
            for dst, rate in rates.items():
                assert struct.pack("<d", rate) == struct.pack("<d", latest[dst])
        assert len({rates["us-west-1"] for _, rates, _ in seen}) > 2
        kept = dict(seen[-1][1])
        mutated = monitor.latest()
        mutated["us-west-1"] = -1.0
        mutated["eu-west-1"] = 5.0
        seen[-1][1].clear()
        assert monitor.latest() == kept


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
