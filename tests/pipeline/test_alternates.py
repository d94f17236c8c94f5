"""Tests for the alternate stage implementations
(:mod:`repro.pipeline.alternates`)."""

import numpy as np
import pytest

from repro.net.dynamics import FluctuationModel
from repro.net.matrix import BandwidthMatrix
from repro.net.measurement import MeasurementCost, MeasurementReport
from repro.net.topology import Topology
from repro.pipeline import Pipeline, PipelineConfig
from repro.pipeline.alternates import (
    CACHE_DRIFT_TOLERANCE,
    CACHE_TTL_S,
    CachedPredictor,
    MultiBackendPlanner,
    PassiveTelemetryGauger,
)
from repro.pipeline.stages import SnapshotGauger, WindowPlanner
from repro.runtime.telemetry import TelemetryStore

REGIONS = ("us-east-1", "us-west-1", "eu-west-1")


def topology():
    return Topology.build(REGIONS, "t2.medium")


def warm_store(keys, rate=300.0, samples=6):
    """A store with fresh active samples on every ordered pair."""
    store = TelemetryStore(window_s=120.0)
    for tick in range(samples):
        for src in keys:
            store.record(
                src,
                time=10.0 * tick,
                rates_mbps={dst: rate for dst in keys if dst != src},
            )
    return store


class TestPassiveTelemetryGauger:
    def test_cold_static_gauge_is_free(self):
        gauger = PassiveTelemetryGauger()
        topo = topology()
        report = gauger.gauge(topo, FluctuationModel(seed=1), 0.0)
        assert report.mode == "passive-static"
        assert report.cost.dollars == 0.0
        assert gauger.probe_transfers == 0
        assert gauger.probe_gb == 0.0
        assert gauger.cold_gauges == 1
        # The static estimate is the modelled uncontended cap.
        src, dst = REGIONS[0], REGIONS[1]
        assert report.matrix.get(src, dst) == pytest.approx(
            topo.single_connection_cap(src, dst)
        )

    def test_warm_store_serves_the_percentile(self):
        topo = topology()
        gauger = PassiveTelemetryGauger()
        gauger.bind_telemetry(warm_store(topo.keys, rate=250.0))
        report = gauger.gauge(topo, FluctuationModel(seed=1), 60.0)
        assert report.mode == "passive-telemetry"
        assert gauger.passive_gauges == 1
        assert report.matrix.get(REGIONS[0], REGIONS[2]) == pytest.approx(250.0)
        assert gauger.probe_transfers == 0

    def test_partial_coverage_fills_from_known_mean(self):
        topo = topology()
        store = TelemetryStore(window_s=120.0)
        # Samples only from us-east-1 (2 of 6 ordered pairs).  Below
        # the default 50% coverage this would fall back; lower the bar.
        for tick in range(5):
            store.record(
                REGIONS[0],
                time=10.0 * tick,
                rates_mbps={REGIONS[1]: 200.0, REGIONS[2]: 400.0},
            )
        gauger = PassiveTelemetryGauger(store=store, min_coverage=0.25)
        report = gauger.gauge(topo, FluctuationModel(seed=1), 50.0)
        assert report.mode == "passive-telemetry"
        # Unsampled pair gets the mean of the known estimates.
        assert report.matrix.get(REGIONS[1], REGIONS[2]) == pytest.approx(300.0)

    def test_cold_probe_mode_pays_for_a_snapshot(self):
        gauger = PassiveTelemetryGauger(cold_start="probe")
        report = gauger.gauge(topology(), FluctuationModel(seed=1), 0.0)
        assert report.mode == "snapshot"
        n = len(REGIONS)
        assert gauger.probe_transfers == n * (n - 1)
        assert gauger.probe_gb > 0

    def test_cold_probe_mirrors_the_fallback_ledger(self):
        # A custom fallback that probes fewer pairs must not be billed
        # for a full n·(n−1) mesh.
        from repro.net.measurement import snapshot
        from repro.pipeline.stages import GaugeLedger

        class HalfMesh(GaugeLedger):
            def gauge(self, topology, weather, at_time):
                report = snapshot(topology, weather, at_time)
                return self.log_gauge(report, transfers=2)

        gauger = PassiveTelemetryGauger(cold_start="probe", fallback=HalfMesh())
        gauger.gauge(topology(), FluctuationModel(seed=1), 0.0)
        assert gauger.probe_transfers == 2

    def test_rejects_unknown_cold_start(self):
        with pytest.raises(ValueError, match="cold_start"):
            PassiveTelemetryGauger(cold_start="guess")


class FixedPredictor:
    """Counts inferences; returns a constant matrix."""

    def __init__(self, keys, value=500.0):
        self.keys = keys
        self.value = value
        self.calls = 0

    @property
    def is_trained(self):
        return True

    def train(self, topology, weather, config):
        return {}

    def predict(self, report, topology):
        self.calls += 1
        out = BandwidthMatrix.zeros(topology.keys)
        for src, dst in out.pairs():
            out.set(src, dst, self.value)
        return out


def report_at(keys, time, rate=300.0):
    matrix = BandwidthMatrix.zeros(keys)
    for src, dst in matrix.pairs():
        matrix.set(src, dst, rate)
    return MeasurementReport(
        "snapshot", matrix, window_s=1.0, time=time, cost=MeasurementCost()
    )


class TestCachedPredictor:
    def test_second_similar_snapshot_hits(self):
        topo = topology()
        inner = FixedPredictor(topo.keys)
        cached = CachedPredictor(inner=inner, ttl_s=600.0, drift_tolerance=0.15)
        first = cached.predict(report_at(topo.keys, 0.0, rate=300.0), topo)
        second = cached.predict(report_at(topo.keys, 30.0, rate=305.0), topo)
        assert inner.calls == 1
        assert cached.hits == 1 and cached.misses == 1
        assert np.allclose(first.off_diagonal(), second.off_diagonal())

    def test_ttl_expiry_recomputes(self):
        topo = topology()
        inner = FixedPredictor(topo.keys)
        cached = CachedPredictor(inner=inner, ttl_s=100.0)
        cached.predict(report_at(topo.keys, 0.0), topo)
        cached.predict(report_at(topo.keys, 500.0), topo)
        assert inner.calls == 2
        assert cached.misses == 2

    def test_snapshot_drift_invalidates(self):
        topo = topology()
        inner = FixedPredictor(topo.keys)
        cached = CachedPredictor(inner=inner, ttl_s=600.0, drift_tolerance=0.15)
        cached.predict(report_at(topo.keys, 0.0, rate=300.0), topo)
        # 50% drop — far past the 15% tolerance.
        cached.predict(report_at(topo.keys, 30.0, rate=150.0), topo)
        assert inner.calls == 2

    def test_train_invalidates_cache(self):
        topo = topology()
        inner = FixedPredictor(topo.keys)
        cached = CachedPredictor(inner=inner, ttl_s=600.0)
        cached.predict(report_at(topo.keys, 0.0), topo)
        cached.train(topo, None, PipelineConfig())
        cached.predict(report_at(topo.keys, 10.0), topo)
        assert inner.calls == 2

    def test_delegates_unknown_attributes_to_inner(self):
        topo = topology()
        inner = FixedPredictor(topo.keys)
        cached = CachedPredictor(inner=inner)
        assert cached.value == 500.0  # inner attribute through __getattr__

    def test_requires_inner_or_context(self):
        with pytest.raises(ValueError, match="inner predictor"):
            CachedPredictor()

    def test_cache_knobs_default_to_module_constants(self):
        topo = topology()
        cached = CachedPredictor(
            inner=FixedPredictor(topo.keys), config=PipelineConfig()
        )
        assert cached.ttl_s == CACHE_TTL_S == 600.0
        assert cached.drift_tolerance == CACHE_DRIFT_TOLERANCE == 0.15


class TestMultiBackendPlanner:
    def bw(self, keys, value=400.0):
        out = BandwidthMatrix.zeros(keys)
        for src, dst in out.pairs():
            out.set(src, dst, value)
        return out

    def test_scores_all_backends_and_picks_one(self):
        topo = topology()
        planner = MultiBackendPlanner(topology=topo)
        plan = planner.plan(self.bw(topo.keys), PipelineConfig())
        assert plan is not None
        assert set(planner.last_scores) == set(planner.DEFAULT_BACKENDS)
        assert planner.chosen_policy in planner.DEFAULT_BACKENDS
        assert all(score > 0 for score in planner.last_scores.values())

    def test_choice_history_accumulates(self):
        topo = topology()
        planner = MultiBackendPlanner(topology=topo)
        planner.plan(self.bw(topo.keys), PipelineConfig())
        planner.plan(self.bw(topo.keys, value=200.0), PipelineConfig())
        assert len(planner.choices) == 2

    def test_without_topology_skips_scoring_but_still_plans(self):
        topo = topology()
        planner = MultiBackendPlanner()
        plan = planner.plan(self.bw(topo.keys), PipelineConfig())
        assert plan is not None
        assert planner.chosen_policy is None

    def test_delegates_to_inner_window_planner(self):
        topo = topology()
        planner = MultiBackendPlanner(topology=topo)
        bw = self.bw(topo.keys)
        config = PipelineConfig()
        expected = WindowPlanner().plan(bw, config)
        got = planner.plan(bw, config)
        assert got.max_bw.min_bw() == pytest.approx(expected.max_bw.min_bw())

    def test_custom_backend_subset(self):
        topo = topology()
        planner = MultiBackendPlanner(
            topology=topo, backends=("tetrium", "kimchi")
        )
        planner.plan(self.bw(topo.keys), PipelineConfig())
        assert planner.chosen_policy in ("tetrium", "kimchi")


class TestPipelineWithAlternates:
    def test_end_to_end_passive_cached_multibackend(self):
        config = PipelineConfig(
            n_training_datasets=3,
            n_estimators=2,
            gauger="passive-telemetry",
            predictor="cached",
            planner="multi-backend",
        )
        pipe = Pipeline(topology(), FluctuationModel(seed=7), config)
        pipe.train()
        bw = pipe.predict(at_time=100.0)
        pipe.predict(at_time=110.0)
        plan = pipe.plan(bw)
        assert plan is not None
        assert pipe.gauger.probe_transfers == 0
        assert pipe.predictor.hits >= 1
        assert pipe.planner.chosen_policy in MultiBackendPlanner.DEFAULT_BACKENDS
