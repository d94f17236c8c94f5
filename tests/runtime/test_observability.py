"""Tests for the telemetry warehouse, trace, KPIs, and /metrics."""

import dataclasses
import json
import math
import random
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.net.dynamics import StaticModel
from repro.net.monitor import WanMonitor
from repro.net.simulator import NetworkSimulator
from repro.runtime.drift import ReplanEvent
from repro.runtime.observability import (
    REQUIRED_METRIC_FAMILIES,
    EventTrace,
    KpiReport,
    MetricsEndpoint,
    MetricsLog,
    MetricsRegistry,
    RecordedRun,
    RollupRow,
    TraceEvent,
    load_run,
    merge_link_rollups,
    parse_prometheus_text,
    render_timeline,
    snapshot_run,
    write_kpi_report,
    write_run,
)
from repro.runtime.observability.warehouse import GRAINS, bucket_start
from repro.runtime.scenarios import FlashCrowd, LinkDegradation, scenario_names
from repro.runtime.service import PipelineService, ServiceConfig, default_job_mix
from repro.runtime.telemetry import TelemetryStore

CAP = 100.0


def capped_log() -> MetricsLog:
    """A log whose every link has nominal capacity ``CAP`` Mbps."""
    return MetricsLog(lambda src, dst: CAP)


class TestRollupMath:
    def test_rate_statistics(self):
        log = capped_log()
        for t, rate in enumerate((10.0, 20.0, 30.0, 40.0)):
            log.observe(float(t), "a", "b", rate)
        (row,) = log.rollup("1m")
        assert row.group == "a→b"
        assert row.samples == 4
        assert row.min_mbps == pytest.approx(10.0)
        assert row.mean_mbps == pytest.approx(25.0)
        assert row.p50_mbps == pytest.approx(25.0)
        assert row.max_mbps == pytest.approx(40.0)
        assert row.capacity_mbps == pytest.approx(CAP)

    def test_time_above_cumulative_vs_continuous(self):
        """A mid-window dip splits the continuous run but not the sum."""
        log = capped_log()
        # Ticks every 10 s; 90 Mbps = 90% of capacity, 50 Mbps breaks
        # the run.  The first sample bounds no interval.
        for t, rate in zip(
            (0.0, 10.0, 20.0, 30.0, 40.0, 50.0),
            (90.0, 90.0, 50.0, 90.0, 90.0, 90.0),
        ):
            log.observe(t, "a", "b", rate)
        (row,) = log.rollup("1m")
        for pct in (70, 80, 90):
            assert row.above_s[pct] == pytest.approx(40.0)
            assert row.continuous_s[pct] == pytest.approx(30.0)

    def test_below_threshold_time_not_charged(self):
        log = capped_log()
        for t in (0.0, 10.0, 20.0):
            log.observe(t, "a", "b", 60.0)  # 60% of capacity
        (row,) = log.rollup("1m")
        assert row.above_s == {70: 0.0, 80: 0.0, 90: 0.0}
        assert row.continuous_s == {70: 0.0, 80: 0.0, 90: 0.0}

    def test_bucket_boundary_clips_interval(self):
        """A sample straddling a bucket edge only charges its own side."""
        log = capped_log()
        log.observe(50.0, "a", "b", 100.0)
        log.observe(55.0, "a", "b", 100.0)
        log.observe(65.0, "a", "b", 100.0)
        first, second = log.rollup("1m")
        assert first.bucket_start == 0.0
        assert first.above_s[80] == pytest.approx(5.0)
        assert second.bucket_start == 60.0
        # The 55→65 interval spans the edge; only 60→65 lands here.
        assert second.above_s[80] == pytest.approx(5.0)

    def test_flaps_count_active_to_idle_transitions(self):
        log = capped_log()
        rates = (50.0, 0.0, 0.0, 50.0, 0.0, 50.0)  # two drops to idle
        for t, rate in enumerate(rates):
            log.observe(float(t), "a", "b", rate)
        (row,) = log.rollup("1m")
        assert row.flaps == 2
        assert row.availability_pct == pytest.approx(50.0)

    def test_without_capacity_oracle_thresholds_stay_zero(self):
        log = MetricsLog()
        for t in (0.0, 10.0, 20.0):
            log.observe(t, "a", "b", 500.0)
        (row,) = log.rollup("1m")
        assert row.capacity_mbps == 0.0
        assert row.above_s == {70: 0.0, 80: 0.0, 90: 0.0}
        assert row.max_mbps == pytest.approx(500.0)

    def test_region_rollup_pools_links(self):
        """Region rows pool samples, sum flaps, and max the runs."""
        log = capped_log()
        for t, rate in zip((0.0, 10.0, 20.0), (90.0, 90.0, 0.0)):
            log.observe(t, "a", "b", rate)
        for t in (0.0, 10.0, 20.0):
            log.observe(t, "a", "c", 90.0)
        (row,) = log.rollup("1m", by="region")
        assert row.group == "a"
        assert row.samples == 6
        assert row.flaps == 1  # only a→b dropped
        # Cumulative time sums across member links: 10 + 20.
        assert row.above_s[80] == pytest.approx(30.0)
        # Continuous is the max over members (a→c's unbroken 20 s).
        assert row.continuous_s[80] == pytest.approx(20.0)
        # Capacity sums once per destination.
        assert row.capacity_mbps == pytest.approx(2 * CAP)

    def test_rollup_validates_grain_and_level(self):
        log = capped_log()
        with pytest.raises(ValueError):
            log.rollup("2m")
        with pytest.raises(ValueError):
            log.rollup("1m", by="galaxy")

    def test_rollup_memoized_until_log_grows(self):
        log = capped_log()
        log.observe(0.0, "a", "b", 10.0)
        first = log.rollup("1m")
        assert log.rollup("1m") is first
        log.observe(1.0, "a", "b", 20.0)
        assert log.rollup("1m") is not first

    def test_record_matches_sample_sink_signature(self):
        log = capped_log()
        monitor_sink = log.record
        monitor_sink("a", 5.0, {"b": 100.0, "c": 0.0})
        assert log.size == 2
        assert log.links() == [("a", "b"), ("a", "c")]

    def test_log_reads_the_store_it_views(self):
        """A log over a store stores nothing itself: what the store
        ingests is in the log, and no sample is held twice."""
        store = TelemetryStore(keep_all=True)
        log = MetricsLog(lambda src, dst: CAP, store)
        store.record("a", 5.0, {"b": 100.0, "c": 0.0})
        store.record("a", 65.0, {"b": 90.0})
        assert log.size == 3
        assert log.links() == [("a", "b"), ("a", "c")]
        assert [row.samples for row in log.rollup("10m")] == [2, 1]
        assert log.rollup_rows() == built_rows(log) == 3 + 2 + 2

    def test_log_refuses_a_bounded_store(self):
        with pytest.raises(ValueError, match="keeps every sample"):
            MetricsLog(store=TelemetryStore())

    def test_out_of_order_sample_refused(self):
        log = capped_log()
        log.observe(60.0, "a", "b", 10.0)
        with pytest.raises(ValueError, match=r"a→b.*t=59\.9.*t=60\.0"):
            log.observe(59.9, "a", "b", 10.0)
        log.observe(59.9, "b", "a", 10.0)
        assert log.size == 2

    def test_rollup_rows_spans_every_grain(self):
        log = capped_log()
        log.observe(30.0, "a", "b", 10.0)
        log.observe(90.0, "a", "b", 10.0)  # 2nd 1m/10m bucket? no: 10m same
        # 1m: buckets 0 and 60 → 2 rows; 10m: 1 row; 1h: 1 row.
        assert log.rollup_rows() == 4

    def test_merge_link_rollups_totals(self):
        log = capped_log()
        rates = (90.0, 90.0, 0.0)
        for t, rate in zip((0.0, 30.0, 70.0), rates):
            log.observe(t, "a", "b", rate)
        merged = merge_link_rollups(log.rollup("1m"))
        totals = merged["a→b"]
        assert totals["samples"] == 3
        assert totals["p95_mbps"] == pytest.approx(90.0)
        assert totals["flaps"] == 1
        assert totals["above_80_s"] == pytest.approx(30.0)
        assert totals["above_80_continuous_s"] == pytest.approx(30.0)

    def test_row_json_round_trip(self):
        log = capped_log()
        for t, rate in enumerate((90.0, 90.0, 0.0)):
            log.observe(10.0 * t, "a", "b", rate)
        (row,) = log.rollup("1m")
        assert RollupRow.from_json(row.to_json()) == row


def built_rows(log: MetricsLog) -> int:
    """The link-level rollup rows ``rollup_rows`` counts, built."""
    return sum(len(log.rollup(grain)) for grain in GRAINS)


def sample_times(log: MetricsLog) -> list[float]:
    """Every sample time the log holds, link by link."""
    return [t for _, series in log.store.sampled() for t in series.times]


class TestRollupRowCount:
    """``rollup_rows`` counts keys; it must equal the rows built."""

    LINKS = (("a", "b"), ("a", "c"), ("b", "a"), ("c", "b"))

    def _feed(self, log: MetricsLog, rng: random.Random, n: int) -> None:
        """``n`` time-ordered samples on interleaved links, many of
        them exactly on (some one ulp below) 1m/10m/1h bucket
        boundaries.  A step below a boundary is skipped where it would
        go back before the previous sample."""
        t = 0.0
        for _ in range(n):
            previous = t
            t += rng.choice((0.0, 5.0, 17.5, 60.0, 600.0, 3600.0))
            if rng.random() < 0.4:
                width = rng.choice(tuple(GRAINS.values()))
                t = math.ceil(t / width) * width
                if rng.random() < 0.25 and math.nextafter(t, 0.0) >= previous:
                    t = math.nextafter(t, 0.0)
            src, dst = rng.choice(self.LINKS)
            log.observe(t, src, dst, rng.choice((0.0, 40.0, 95.0, 120.0)))

    @pytest.mark.parametrize("seed", range(8))
    def test_count_matches_built_rows(self, seed):
        rng = random.Random(seed)
        log = capped_log()
        self._feed(log, rng, rng.randrange(1, 300))
        assert any(t % 3600.0 == 0.0 and t > 0 for t in sample_times(log))
        assert log.rollup_rows() == built_rows(log)

    @pytest.mark.parametrize("seed", range(4))
    def test_bucket_start_is_numpys_floor(self, seed):
        log = capped_log()
        self._feed(log, random.Random(seed), 200)
        times = sample_times(log)
        assert any(
            math.nextafter(t, math.inf) % width == 0.0
            for t in times
            for width in GRAINS.values()
        )
        for t in times:
            for width in GRAINS.values():
                assert bucket_start(t, width) == float(np.floor(t / width) * width)
                assert bucket_start(t, width) <= t < bucket_start(t, width) + width

    @pytest.mark.parametrize("seed", range(4))
    def test_count_follows_the_log_after_memoized_rollups(self, seed):
        rng = random.Random(seed)
        log = capped_log()
        self._feed(log, rng, 100)
        before = built_rows(log)  # memoizes every grain
        assert log.rollup_rows() == before
        last = max(sample_times(log))
        for step in range(1, 40):
            log.record("a", last + 60.0 * step, {"b": 50.0, "d": 0.0})
        assert log.rollup_rows() == built_rows(log) > before

    def test_count_matches_a_real_link_failure_run(self, observed_service):
        log = observed_service.hub.log
        assert observed_service.config.scenario == "link-failure"
        assert log.rollup_rows() == built_rows(log) > 0

    def test_published_rates_are_never_negative_zero(self, observed_service):
        """Rollup and telemetry percentiles match ``np.percentile`` only
        up to a zero's sign (its unstable selection may pick either of
        tied -0.0/+0.0); the monitors must never publish -0.0."""
        rates = [
            rate
            for _, series in observed_service.hub.log.store.sampled()
            for rate in series.rates
        ]
        assert 0.0 in rates
        assert all(math.copysign(1.0, rate) == 1.0 for rate in rates)


class TestScenarioFlaps:
    """Flap counting against real scenario-driven monitor feeds."""

    TRIAD = ("us-east-1", "us-west-1", "ap-southeast-1")

    def _instrumented(self, net):
        store = TelemetryStore(keep_all=True)
        WanMonitor(net, "us-east-1", interval_s=5.0, on_sample=store.record)
        return MetricsLog(lambda src, dst: self.baseline, store)

    @property
    def baseline(self) -> float:
        """The calm single-transfer rate on the probe triad (Mbps)."""
        return 1706.6474976150294

    def test_link_failure_flaps_and_congestion(self, triad):
        """Two transfers around a link failure: two flaps, and only
        the pre-failure one shows up as time-above-threshold."""
        failure = LinkDegradation(
            base=StaticModel(),
            residual=0.05,
            start_s=40.0,
            ramp_s=0.0,
            links=((0, 1),),
        )
        net = NetworkSimulator(triad, fluctuation=failure)
        log = self._instrumented(net)
        # ~17 s at the calm rate: ticks 5/10/15 active, idle by 20.
        net.start_transfer("us-east-1", "us-west-1", self.baseline * 17.0)
        net.sim.run(until=42.0)
        # Post-failure the same link runs at 5% — a second transfer
        # sized for ~20 s at that collapsed rate.
        net.start_transfer("us-east-1", "us-west-1", self.baseline * 1.0)
        net.sim.run(until=90.0)
        rows = [r for r in log.rollup("1m") if r.group == "us-east-1→us-west-1"]
        assert sum(r.flaps for r in rows) == 2
        # Only the calm transfer ran near capacity.
        assert sum(r.above_s[70] for r in rows) == pytest.approx(10.0)
        post = [r.max_mbps for r in rows if r.bucket_start == 60.0]
        assert post and post[0] == pytest.approx(0.05 * self.baseline)

    def test_flash_crowd_dips_without_flapping(self, triad):
        """A crunch throttles an active link but never idles it: the
        rollup shows the dip, not a flap."""
        crowd = FlashCrowd(
            base=StaticModel(),
            start_s=30.0,
            duration_s=60.0,
            ramp_s=0.0,
            depth=0.3,
            hit_fraction=1.0,
        )
        net = NetworkSimulator(triad, fluctuation=crowd)
        log = self._instrumented(net)
        # Large enough to stay active through the whole 30–90 s crunch.
        net.start_transfer("us-east-1", "us-west-1", self.baseline * 80.0)
        net.sim.run(until=85.0)
        rows = [r for r in log.rollup("1m") if r.group == "us-east-1→us-west-1"]
        assert sum(r.flaps for r in rows) == 0
        assert all(r.availability_pct == 100.0 for r in rows)
        calm, crunch = rows[0], rows[1]
        assert crunch.max_mbps == pytest.approx(0.3 * calm.max_mbps)
        # The calm minute saturated; the crunch minute did not.
        assert calm.above_s[90] > 0.0
        assert crunch.above_s[70] == 0.0


class TestEventTrace:
    def test_ring_evicts_but_keeps_counting(self):
        trace = EventTrace(capacity=4)
        for t in range(6):
            trace.record(float(t), "submit", f"job-{t}")
        assert trace.recorded == 6
        assert trace.dropped == 2
        events = trace.events()
        assert len(events) == 4
        assert events[0].subject == "job-2"

    def test_kind_filter_and_timeline(self):
        trace = EventTrace()
        trace.record(1.0, "submit", "job-a")
        trace.record(2.0, "drift", "a→b", rel_error=0.5)
        assert [e.subject for e in trace.events("drift")] == ["a→b"]
        lines = trace.timeline()
        assert len(lines) == 2
        assert "drift" in lines[1] and "rel_error=0.5" in lines[1]

    def test_render_timeline_empty(self):
        assert render_timeline([]) == "(no events traced)\n"

    def test_event_json_round_trip(self):
        event = TraceEvent(3.5, "replan", "a→b", {"probe_cost_usd": 0.01})
        assert TraceEvent.from_json(event.to_json()) == event

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            EventTrace(capacity=0)


class TestPrometheus:
    def test_counter_gauge_render_and_parse(self):
        registry = MetricsRegistry()
        jobs = registry.counter("jobs_total", "Jobs.")
        jobs.inc()
        jobs.inc(2.0)
        registry.gauge("depth", "Queue depth.").set(3.0)
        registry.gauge("rate", "Per-link.").set(10.0, src="a", dst="b")
        families = parse_prometheus_text(registry.render())
        assert families["jobs_total"]["type"] == "counter"
        assert families["jobs_total"]["samples"] == [
            ("jobs_total", {}, 3.0)
        ]
        assert families["rate"]["samples"] == [
            ("rate", {"src": "a", "dst": "b"}, 10.0)
        ]

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", "Latency.", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        samples = parse_prometheus_text(registry.render())["lat"]["samples"]
        by_le = {
            labels["le"]: value
            for name, labels, value in samples
            if name == "lat_bucket"
        }
        assert by_le == {"1": 1.0, "10": 2.0, "+Inf": 3.0}
        assert ("lat_count", {}, 3.0) in samples
        assert ("lat_sum", {}, 55.5) in samples

    def test_duplicate_family_name_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "X.")
        with pytest.raises(ValueError):
            registry.gauge("x_total", "X again.")

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("this is not prometheus\n")
        with pytest.raises(ValueError):
            parse_prometheus_text("metric_name not_a_number\n")

    def test_endpoint_scrapes_and_404s(self):
        scrapes = []
        endpoint = MetricsEndpoint(
            lambda: "# HELP a_total A.\n# TYPE a_total counter\na_total 1\n",
            on_scrape=lambda: scrapes.append(1),
        )
        try:
            with urllib.request.urlopen(endpoint.url) as response:
                assert response.status == 200
                assert "version=0.0.4" in response.headers["Content-Type"]
                body = response.read().decode()
            assert parse_prometheus_text(body)["a_total"]["samples"] == [
                ("a_total", {}, 1.0)
            ]
            assert scrapes == [1]
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    endpoint.url.replace("/metrics", "/other")
                )
        finally:
            endpoint.close()


@pytest.fixture(scope="module")
def observed_service():
    """One instrumented service run shared by the integration tests."""
    config = ServiceConfig(
        regions=("us-east-1", "us-west-1", "ap-southeast-1", "eu-west-1"),
        n_training_datasets=6,
        n_estimators=6,
        scenario="link-failure",
    )
    service = PipelineService.build(config)
    mix = default_job_mix(
        config.regions, count=4, seed=42, scale_mb=3000.0
    )
    service.submit_mix(mix)
    service.run(until=None)
    service.stop()
    yield service
    if service.hub is not None:
        service.hub.close()


class TestServiceIntegration:
    def test_hub_wired_by_default(self, observed_service):
        hub = observed_service.hub
        assert hub is not None
        assert hub.log.size > 0
        assert hub.counters["submitted"] == 4
        assert hub.counters["completed"] == 4
        kinds = {e.kind for e in hub.trace.events()}
        assert {"submit", "admit", "finish"} <= kinds
        assert len(hub.jct_samples) == 4

    def test_summary_exposes_observability_columns(self, observed_service):
        summary = observed_service.summary()
        assert summary.rollup_rows > 0
        assert summary.events_traced > 0
        assert summary.metrics_scrapes == 0
        row = summary.to_row()
        for column in ("rollup_rows", "events_traced", "metrics_scrapes"):
            assert column in row

    def test_observability_can_be_disabled(self):
        config = ServiceConfig(
            regions=("us-east-1", "us-west-1"),
            n_training_datasets=4,
            n_estimators=4,
            observability=False,
        )
        service = PipelineService.build(config)
        service.stop()
        assert service.hub is None
        assert service.summary().rollup_rows == 0
        with pytest.raises(ValueError):
            snapshot_run(service)

    @pytest.mark.parametrize("scenario", scenario_names(include_composed=True))
    def test_observability_changes_no_outcome(self, scenario):
        """The hub only observes: switching it off moves no job.

        Every registered scenario (and featured composition) runs; the
        two the control-plane cell was tuned on must also preempt,
        throttle and recalibrate, so the neutrality covers those hooks.
        """
        observed, blind = (
            self._controlled_run(scenario, observability)
            for observability in (True, False)
        )
        # The hub's own bookkeeping is the only difference.
        own_columns = ("rollup_rows", "events_traced", "metrics_scrapes")
        observed_row, blind_row = (
            {
                key: value
                for key, value in service.summary().to_row().items()
                if key not in own_columns
            }
            for service in (observed, blind)
        )
        assert observed_row == blind_row
        if scenario in ("link-failure", "flash-crowd"):
            assert observed_row["preemptions"] > 0
            assert observed_row["throttle_moves"] > 0
            assert observed_row["recalibrations"] > 0
        assert [
            (t.job.name, t.finished_s) for t in observed.scheduler.completed
        ] == [(t.job.name, t.finished_s) for t in blind.scheduler.completed]

    @staticmethod
    def _controlled_run(scenario: str, observability: bool) -> PipelineService:
        """The control-plane experiment's cell (urgent-slo preemption,
        governor, autoscale) plus recalibration, on ``scenario``: it
        preempts, throttles, re-plans and misses deadlines."""
        from repro.experiments import control_plane as cell

        config = dataclasses.replace(
            cell.control_config(controlled=True),
            scenario=scenario,
            recalibrate=True,
            observability=observability,
        )
        service = PipelineService.build(config)
        mix = default_job_mix(
            config.regions, count=cell.JOBS, seed=cell.SEED,
            scale_mb=cell.SCALE_MB,
        )
        service.submit_mix(
            [(delay * cell.ARRIVAL_SCALE, job) for delay, job in mix]
        )
        service.run()
        service.stop()
        if service.hub is not None:
            service.hub.close()
        return service

    def test_prometheus_surface_complete(self, observed_service):
        families = parse_prometheus_text(
            observed_service.hub.render_prometheus()
        )
        for family in REQUIRED_METRIC_FAMILIES:
            assert family in families, family
        samples = families["wanify_jobs_completed_total"]["samples"]
        assert samples == [("wanify_jobs_completed_total", {}, 4.0)]
        link_stats = {
            labels["stat"]
            for _, labels, _ in families["wanify_link_estimate_mbps"][
                "samples"
            ]
        }
        assert link_stats == {"p50", "p95", "ewma"}

    def test_metrics_endpoint_live_scrape(self, observed_service):
        hub = observed_service.hub
        endpoint = hub.serve_metrics(port=0)
        try:
            with pytest.raises(RuntimeError):
                hub.serve_metrics(port=0)
            with urllib.request.urlopen(endpoint.url) as response:
                body = response.read().decode()
            families = parse_prometheus_text(body)
            assert hub.metrics_scrapes == 1
            # A scrape reports the scrapes served *before* it…
            assert families["wanify_metrics_scrapes_total"]["samples"] == [
                ("wanify_metrics_scrapes_total", {}, 0.0)
            ]
            # …so the next one sees this one counted.
            with urllib.request.urlopen(endpoint.url) as response:
                second = parse_prometheus_text(response.read().decode())
            assert second["wanify_metrics_scrapes_total"]["samples"] == [
                ("wanify_metrics_scrapes_total", {}, 1.0)
            ]
            assert observed_service.summary().metrics_scrapes == 2
        finally:
            hub.close()
        assert hub.endpoint is None

    def test_drift_and_replan_handlers(self, observed_service):
        """The drift/replan hooks record counters + trace events."""
        hub = observed_service.hub
        before = hub.counters["drift"]
        event = ReplanEvent(
            time=100.0,
            src="us-east-1",
            dst="eu-west-1",
            observed_mbps=50.0,
            predicted_mbps=200.0,
            rel_error=0.75,
            probe_transfers=12,
            probe_cost_usd=0.01,
        )
        hub._drift_fired(event)
        hub.replan_recorded(event)
        assert hub.counters["drift"] == before + 1
        assert hub.trace.events("drift")[-1].subject == "us-east-1→eu-west-1"
        replan = hub.trace.events("replan")[-1]
        assert replan.detail["probe_cost_usd"] == pytest.approx(0.01)

    def test_recorded_run_round_trip(self, observed_service, tmp_path):
        path = write_run(observed_service, tmp_path / "run.json")
        run = load_run(path)
        assert run.meta["scenario"] == "link-failure"
        assert len(run.jobs) == 4
        assert run.link_rollups and run.region_rollups
        assert run.link_rollups_at("1m")
        snapshot = snapshot_run(observed_service)
        assert run.summary == snapshot["summary"]
        assert len(run.events) == len(snapshot["events"])

    def test_load_run_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(ValueError):
            load_run(path)

    def test_kpi_report_from_run(self, observed_service, tmp_path):
        run = load_run(write_run(observed_service, tmp_path / "run.json"))
        report = KpiReport.from_run(run)
        # Hot-spots only list links that carried traffic.
        assert report.congestion
        assert all(row["max_mbps"] > 0 for row in report.congestion)
        assert sum(t["jobs"] for t in report.tenants) == 4
        assert report.probe_cost["probe_transfers"] > 0
        markdown = report.render_markdown()
        for heading in (
            "## Congestion hot-spots",
            "## SLO attainment by tenant",
            "## Failover quality",
            "## Probe cost per re-plan",
        ):
            assert heading in markdown
        json_path, md_path = write_kpi_report(
            report, tmp_path / "kpi", timeline=run.timeline()
        )
        assert json.loads(json_path.read_text())["tenants"]
        assert "## Event timeline" in md_path.read_text()


class TestTenantAggregation:
    """KPI tenant math on a hand-built recorded run."""

    @staticmethod
    def _job(name, tenant, met, jct=100.0, wait=5.0, preemptions=0):
        return {
            "name": name,
            "tenant": tenant,
            "submitted_s": 0.0,
            "wait_s": wait,
            "jct_s": jct,
            "deadline_s": None,
            "met": met,
            "preemptions": preemptions,
        }

    def test_attainment_and_means(self):
        run = RecordedRun(
            meta={},
            summary={},
            jobs=[
                self._job("a-1", "alpha", True, jct=100.0),
                self._job("a-2", "alpha", False, jct=300.0, preemptions=2),
                self._job("b-1", "beta", None, jct=50.0, wait=10.0),
            ],
            link_rollups=[],
            region_rollups=[],
            events=[],
        )
        report = KpiReport.from_run(run)
        alpha, beta = report.tenants
        assert alpha["tenant"] == "alpha"
        assert alpha["slo_attained"] == 1
        assert alpha["slo_missed"] == 1
        assert alpha["slo_attainment"] == pytest.approx(0.5)
        assert alpha["mean_jct_s"] == pytest.approx(200.0)
        assert alpha["preemptions"] == 2
        # No promise (met=None) → perfect attainment by convention.
        assert beta["slo_attainment"] == pytest.approx(1.0)
        # No rollups → no congestion rows, availability defaults high.
        assert report.congestion == []
        assert report.failover["min_link_availability_pct"] == 100.0


class TestReportCli:
    def test_report_run_writes_kpi_tables(self, observed_service, tmp_path):
        run_path = write_run(observed_service, tmp_path / "run.json")
        out_dir = tmp_path / "kpi-out"
        stream = _Stream()
        code = main(
            [
                "report",
                "--run",
                str(run_path),
                "--trace",
                "-o",
                str(out_dir),
            ],
            stream,
        )
        assert code == 0
        text = stream.text()
        assert "KPI report" in text
        assert "## Event timeline" in text
        assert (out_dir / "kpi.json").exists()
        assert (out_dir / "kpi.md").exists()

    def test_report_run_rejects_bad_file(self, tmp_path):
        bad = tmp_path / "nope.json"
        bad.write_text("{}")
        stream = _Stream()
        assert main(["report", "--run", str(bad)], stream) == 2
        assert "bad recorded run" in stream.text()

    @pytest.mark.parametrize(
        "body,names",
        [
            ("[1, 2]", "JSON object"),
            ('{"format_version": 1, "events": [5]}', "'events'"),
            ('{"format_version": 1, "meta": [1, 2]}', "'meta'"),
            ('{"format_version": 1, "summary": 3}', "'summary'"),
            ('{"format_version": 1, "jobs": [1]}', "'jobs'"),
            ('{"format_version": 1, "events": [{"kind": "x"}]}', "'events'"),
            ('{"format_version": 1, "events_dropped": "x"}', "'events_dropped'"),
            ("{not json", "bad recorded run"),
            (None, "No such file"),
        ],
        ids=[
            "top-level-list", "events-number", "meta-list", "summary-number",
            "jobs-number", "event-missing-field", "dropped-string",
            "invalid-json", "missing-file",
        ],
    )
    def test_corrupt_run_file_exits_2_with_one_line(
        self, tmp_path, body, names
    ):
        path = tmp_path / "run.json"
        if body is not None:
            path.write_text(body)
        stream = _Stream()
        assert main(["report", "--run", str(path)], stream) == 2
        text = stream.text()
        assert text.startswith("bad recorded run")
        assert names in text
        assert text.count("\n") == 1 and text.endswith("\n")
        assert "Traceback" not in text

    def test_trace_without_run_is_an_error(self):
        stream = _Stream()
        assert main(["report", "--trace"], stream) == 2
        assert "--trace needs --run" in stream.text()


class _Stream:
    """Minimal write-capture stream for CLI tests."""

    def __init__(self):
        self.chunks = []

    def write(self, chunk):
        self.chunks.append(chunk)

    def text(self):
        return "".join(self.chunks)
