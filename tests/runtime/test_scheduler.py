"""Tests for the multi-job scheduler and the event-driven job runner."""

import importlib.util
from pathlib import Path

import pytest

from repro.gda.engine.cluster import GeoCluster
from repro.gda.systems.tetrium import TetriumPolicy
from repro.gda.systems.vanilla import LocalityPolicy
from repro.gda.workloads.terasort import terasort_job
from repro.gda.workloads.wordcount import wordcount_job
from repro.gda.engine.engine import JobRun
from repro.runtime.scheduler import JobScheduler, jain_index

TRIAD = ("us-east-1", "us-west-1", "ap-southeast-1")


def _cluster(calm):
    return GeoCluster.build(TRIAD, "t2.medium", fluctuation=calm)


def _job(name="ts", mb=300.0):
    return terasort_job({k: mb for k in TRIAD}, name=name)


class TestJainIndex:
    def test_even_is_one(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_one_hog_approaches_reciprocal(self):
        assert jain_index([30.0, 1e-9, 1e-9]) == pytest.approx(
            1.0 / 3.0, rel=0.01
        )

    def test_empty_is_one(self):
        assert jain_index([]) == 1.0


def _oracle_engine():
    """The blocking engine ``GdaEngine.run`` replaced (tests/gda)."""
    path = Path(__file__).resolve().parents[1] / "gda" / "oracle_engine.py"
    spec = importlib.util.spec_from_file_location("oracle_engine", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GdaEngine


class TestJobRun:
    def test_matches_blocking_engine_for_single_job(self, calm):
        """The event-driven run reproduces the blocking engine's result.

        Timings, stages and the observed floor are bit-equal; WAN volume
        is summed per transfer here and read off the network's counter
        there, so it only agrees to float rounding.
        """
        job = _job()
        blocking = _oracle_engine()(_cluster(calm)).run(
            job, LocalityPolicy()
        )
        cluster = _cluster(calm)
        run = JobRun(cluster, job, LocalityPolicy()).start()
        cluster.network.sim.run()
        assert run.done
        assert run.result.jct_s == blocking.jct_s
        assert run.result.stages == blocking.stages
        assert run.result.min_bw_mbps == blocking.min_bw_mbps
        assert run.result.wan_gb == pytest.approx(blocking.wan_gb, rel=1e-12)

    def test_decision_bw_callable_reread_per_stage(self, calm):
        cluster = _cluster(calm)
        reads = []

        def provider():
            reads.append(cluster.network.sim.now)
            return None

        job = wordcount_job(
            {k: 200.0 for k in TRIAD}, intermediate_mb=300.0
        )
        JobRun(cluster, job, LocalityPolicy(), decision_bw=provider).start()
        cluster.network.sim.run()
        # Once for migration planning, once for the shuffle stage.
        assert len(reads) == 2
        assert reads[-1] > 0.0

    def test_double_start_rejected(self, calm):
        cluster = _cluster(calm)
        run = JobRun(cluster, _job(), LocalityPolicy()).start()
        with pytest.raises(RuntimeError):
            run.start()

    def test_shuffle_overhead_validated(self, calm):
        with pytest.raises(ValueError):
            JobRun(
                _cluster(calm), _job(), LocalityPolicy(),
                shuffle_overhead=0.5,
            )


class TestJobScheduler:
    def test_admission_respects_concurrency_cap(self, calm):
        cluster = _cluster(calm)
        scheduler = JobScheduler(cluster, max_concurrent=2)
        for i in range(5):
            scheduler.submit(_job(f"ts-{i}"), TetriumPolicy())
        assert len(scheduler.running) == 2
        assert len(scheduler.queued) == 3
        cluster.network.sim.run()
        assert len(scheduler.completed) == 5
        assert scheduler.peak_concurrency == 2

    def test_fifo_order_and_waits(self, calm):
        cluster = _cluster(calm)
        scheduler = JobScheduler(cluster, max_concurrent=1)
        tickets = [
            scheduler.submit(_job(f"ts-{i}"), TetriumPolicy())
            for i in range(3)
        ]
        cluster.network.sim.run()
        finishes = [t.finished_s for t in tickets]
        assert finishes == sorted(finishes)
        assert tickets[0].wait_s == 0.0
        assert tickets[1].wait_s > 0.0
        assert tickets[2].wait_s > tickets[1].wait_s

    def test_concurrent_jobs_contend_on_shared_wan(self, calm):
        """Two concurrent shuffles are slower than one alone."""
        alone = _cluster(calm)
        solo = JobScheduler(alone, max_concurrent=2)
        ticket = solo.submit(_job("solo"), TetriumPolicy())
        alone.network.sim.run()
        solo_jct = ticket.result.jct_s

        shared = _cluster(calm)
        both = JobScheduler(shared, max_concurrent=2)
        tickets = [
            both.submit(_job(f"ts-{i}"), TetriumPolicy())
            for i in range(2)
        ]
        shared.network.sim.run()
        assert all(t.result is not None for t in tickets)
        assert max(t.result.jct_s for t in tickets) > solo_jct * 1.2

    def test_submit_at_defers_submission(self, calm):
        cluster = _cluster(calm)
        scheduler = JobScheduler(cluster, max_concurrent=2)
        scheduler.submit_at(100.0, _job("late"), TetriumPolicy())
        assert not scheduler.running and not scheduler.queued
        cluster.network.sim.run()
        assert len(scheduler.completed) == 1
        assert scheduler.completed[0].started_s == pytest.approx(100.0)

    def test_stats_shapes(self, calm):
        cluster = _cluster(calm)
        scheduler = JobScheduler(cluster, max_concurrent=3)
        empty = scheduler.stats()
        assert empty["completed"] == 0.0
        for i in range(3):
            scheduler.submit(_job(f"ts-{i}"), TetriumPolicy())
        cluster.network.sim.run()
        stats = scheduler.stats()
        assert stats["completed"] == 3.0
        assert stats["mean_jct_s"] > 0
        assert stats["jobs_per_hour"] > 0
        assert 0.0 < stats["fairness"] <= 1.0

    def test_on_job_finished_hook(self, calm):
        cluster = _cluster(calm)
        scheduler = JobScheduler(cluster, max_concurrent=1)
        seen = []
        scheduler.on_job_finished = lambda t: seen.append(t.job.name)
        scheduler.submit(_job("hooked"), TetriumPolicy())
        cluster.network.sim.run()
        assert seen == ["hooked"]

    def test_max_concurrent_validated(self, calm):
        with pytest.raises(ValueError):
            JobScheduler(_cluster(calm), max_concurrent=0)
