"""Tests for the process-parallel shard executor.

The contract under test: partitioned shard execution is a pure
function of its tasks — the same mix drained with ``workers=0``
(serial, in-process) and ``workers=2`` (multiprocessing pool) produces
byte-identical per-job records and merged statistics, shard routing
matches the in-process sharded scheduler's tenant hash, and any pool
failure degrades to the serial path instead of crashing.
"""

from types import SimpleNamespace

import pytest

from repro.gda.engine.cluster import GeoCluster
from repro.gda.systems.vanilla import LocalityPolicy
from repro.pipeline.config import ServiceConfig
from repro.runtime.scheduler import JobTicket, aggregate_stats, job_record
from repro.runtime.scheduling import parallel as parallel_mod
from repro.runtime.scheduling.parallel import (
    ShardExecutor,
    ShardResult,
    ShardTask,
    build_tasks,
    merge_stats,
    partition_mix,
    run_shard,
)
from repro.runtime.scheduling.shards import ShardedScheduler
from repro.runtime.scheduling.slo import SLO, spread_slos
from repro.runtime.service import default_job_mix

KEYS = ("us-east-1", "us-west-1", "eu-west-1")


def _entries(count=12, seed=7, deadline_s=1800.0):
    mix = default_job_mix(KEYS, count=count, seed=seed)
    if deadline_s is None:
        return [(delay, job, None, None) for delay, job in mix]
    return [
        (delay, job, None, slo)
        for delay, job, slo in spread_slos(mix, deadline_s, seed=seed)
    ]


def _config(shards=4, max_concurrent=8, **changes):
    return ServiceConfig(
        regions=KEYS,
        scheduler="deadline-edf",
        scheduler_shards=shards,
        max_concurrent=max_concurrent,
        **changes,
    )


def _tasks(entries, shards=4, max_concurrent=8):
    return build_tasks(entries, _config(shards, max_concurrent))


def _finish_times(results):
    return {
        record.name: record.finished_s
        for result in results
        for record in result.records
    }


class TestPartitioning:
    def test_routing_matches_in_process_sharded_scheduler(self):
        entries = _entries()
        cluster = GeoCluster.build(KEYS, "t2.medium")
        sharded = ShardedScheduler(cluster, shards=4)
        slices = partition_mix(entries, 4)
        for shard_index, chunk in enumerate(slices):
            for _, job, _, slo in chunk:
                assert sharded.shard_of(job, slo) == shard_index

    def test_every_entry_lands_exactly_once(self):
        entries = _entries()
        slices = partition_mix(entries, 4)
        names = sorted(
            job.name for chunk in slices for _, job, _, _ in chunk
        )
        assert names == sorted(job.name for _, job, _, _ in entries)

    def test_build_tasks_splits_concurrency_like_shards(self):
        tasks = _tasks(_entries(), shards=3, max_concurrent=8)
        assert [t.config.max_concurrent for t in tasks] == [3, 3, 2]

    def test_build_tasks_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="shard count"):
            _tasks(_entries(), shards=0)


class TestDeterminism:
    def test_run_shard_is_deterministic(self):
        task = _tasks(_entries(count=6), shards=1)[0]
        first = run_shard(task)
        second = run_shard(task)
        assert first.records == second.records
        assert first.events_processed == second.events_processed
        assert first.sim_end_s == second.sim_end_s

    def test_pool_matches_serial_exactly(self):
        """workers=2 must reproduce workers=0 per-job completion times
        (the acceptance bound is ≤ 1e-6; the executor achieves 0)."""
        tasks = _tasks(_entries())
        serial = ShardExecutor(0)
        pooled = ShardExecutor(2)
        serial_results = serial.run(tasks)
        pooled_results = pooled.run(tasks)
        assert serial.workers_used == 0
        serial_times = _finish_times(serial_results)
        pooled_times = _finish_times(pooled_results)
        assert serial_times.keys() == pooled_times.keys()
        for name, finished in serial_times.items():
            assert abs(finished - pooled_times[name]) <= 1e-6
        if not pooled.fell_back:
            assert pooled.workers_used == 2
            assert merge_stats(pooled_results) == merge_stats(
                serial_results
            )

    def test_workers_one_takes_serial_path(self):
        executor = ShardExecutor(1)
        executor.run(_tasks(_entries(count=4), shards=2))
        assert executor.workers_used == 0
        assert not executor.fell_back

    @pytest.mark.parametrize(
        "field, value, same",
        [
            # Service-loop fields: nothing in a shard worker reads them.
            ("recalibrate", True, True),
            ("governor", True, True),
            ("preemption", "urgent-slo", True),
            ("autoscale", True, True),
            ("tuner", "epsilon-greedy", True),
            ("observability", False, True),
            ("drift_threshold", 0.1, True),
            ("variant", "wanify-dynamic", True),
            ("gauger", "passive-telemetry", True),
            # The shard's weather.
            ("seed", 7, False),
            ("scenario", "link-failure", False),
        ],
    )
    def test_records_read_only_shard_fields(self, field, value, same):
        """A worker receives the whole service config; only the fields
        that build its cluster and scheduler reach its records."""
        entries = _entries(count=6)

        def records(config):
            results = ShardExecutor(0).run(build_tasks(entries, config))
            return [r for result in results for r in result.records]

        # An autoscaling config needs a ceiling at or above
        # max_concurrent (8); the ceiling reaches no record either.
        reference = records(_config(shards=2, autoscale_max=8))
        changed = records(_config(shards=2, autoscale_max=8, **{field: value}))
        assert (changed == reference) is same


class TestMerge:
    def test_reconciliation(self):
        results = ShardExecutor(0).run(_tasks(_entries()))
        merged = merge_stats(results)
        assert merged["submitted"] == (
            merged["completed"] + merged["queued"] + merged["running"]
        )
        assert merged["completed"] == 12.0
        assert merged["shards"] == 4.0
        assert merged["events_processed"] > 0

    def test_makespan_spans_shards_globally(self):
        results = ShardExecutor(0).run(_tasks(_entries()))
        merged = merge_stats(results)
        records = [r for result in results for r in result.records]
        first = min(r.submitted_s for r in records)
        last = max(r.finished_s for r in records)
        assert merged["makespan_s"] == pytest.approx(last - first)

    def test_empty_results_report_zero_stats(self):
        merged = merge_stats([])
        assert merged["completed"] == 0.0
        assert merged["fairness"] == 1.0
        assert merged["slo_attainment"] == 1.0

    def test_attainment_counts_only_promised_deadlines(self):
        no_slo = _entries(deadline_s=None)
        results = ShardExecutor(0).run(_tasks(no_slo))
        merged = merge_stats(results)
        assert merged["slo_attained"] == 0.0
        assert merged["slo_missed"] == 0.0
        assert merged["slo_attainment"] == 1.0

    def test_merge_matches_in_process_aggregation(self):
        """Records of a ticket population — one job that never touched
        the WAN, deadlines met, missed and absent — merge to exactly the
        in-process scheduler's statistics over the same tickets."""
        mix = default_job_mix(KEYS, count=4, seed=3)
        outcomes = (
            # (wan_gb, network_s, finished_s, deadline_s)
            (2.0, 40.0, 100.0, 500.0),
            (0.0, 0.0, 130.0, None),
            (1.0, 0.0, 150.0, 50.0),
            (3.0, 25.0, 90.0, None),
        )
        tickets = []
        for seq, ((_, job), (wan_gb, network_s, finished_s, deadline_s)) in (
            enumerate(zip(mix, outcomes))
        ):
            ticket = JobTicket(
                job,
                LocalityPolicy(),
                submitted_s=10.0 * seq,
                seq=seq,
                slo=SLO(deadline_s=deadline_s) if deadline_s else None,
            )
            ticket.started_s = ticket.submitted_s
            ticket.finished_s = finished_s
            ticket.result = SimpleNamespace(wan_gb=wan_gb, network_s=network_s)
            tickets.append(ticket)
        merged = merge_stats(
            [ShardResult(index=0, records=[job_record(t) for t in tickets])]
        )
        expected = aggregate_stats(tickets, min(t.submitted_s for t in tickets))
        assert {key: merged[key] for key in expected} == expected
        assert expected["slo_attained"] == 1.0
        assert expected["slo_missed"] == 1.0
        assert expected["fairness"] < 1.0


class TestFallback:
    def test_pool_failure_degrades_to_serial(self, monkeypatch):
        def broken_context():
            raise OSError("no multiprocessing here")

        monkeypatch.setattr(
            ShardExecutor, "_context", staticmethod(broken_context)
        )
        tasks = _tasks(_entries(count=6), shards=2)
        executor = ShardExecutor(4)
        results = executor.run(tasks)
        assert executor.fell_back
        assert executor.workers_used == 0
        reference = ShardExecutor(0).run(tasks)
        assert _finish_times(results) == _finish_times(reference)

    def test_fallback_flag_resets_on_next_clean_run(self, monkeypatch):
        """``fell_back`` describes the *last* run, not executor history."""
        tasks = _tasks(_entries(count=4), shards=2)
        executor = ShardExecutor(2)
        original = ShardExecutor._context
        monkeypatch.setattr(
            ShardExecutor,
            "_context",
            staticmethod(lambda: (_ for _ in ()).throw(OSError("down"))),
        )
        executor.run(tasks)
        assert executor.fell_back
        monkeypatch.setattr(
            ShardExecutor, "_context", staticmethod(original)
        )
        executor.run(tasks)
        assert not executor.fell_back

    def test_single_task_skips_the_pool(self):
        """One shard never pays pool startup, whatever ``workers`` says."""
        executor = ShardExecutor(8)
        results = executor.run(_tasks(_entries(count=3), shards=1))
        assert executor.workers_used == 0
        assert not executor.fell_back
        assert len(results) == 1

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ShardExecutor(-1)


class TestCrashedWorkerDrain:
    """A worker that dies mid-drain must be loud, not a dropped shard."""

    @staticmethod
    def _poison(task):
        """A task whose worker crashes rebuilding its shard: the
        admission-policy name resolves in the *worker*, and this one
        is registered nowhere."""
        from dataclasses import replace

        return replace(
            task,
            config=replace(task.config, scheduler="no-such-admission-policy"),
        )

    def test_serial_path_raises_the_real_error(self):
        tasks = _tasks(_entries(count=4), shards=2)
        poisoned = [tasks[0], self._poison(tasks[1])]
        with pytest.raises(KeyError, match="no-such-admission-policy"):
            ShardExecutor(0).run(poisoned)

    def test_pool_crash_falls_back_then_still_raises(self):
        """The pool dies on the poisoned task; the serial retry hits
        the same error — fall-back covers *pool* failures, it never
        swallows a genuinely broken task."""
        tasks = _tasks(_entries(count=4), shards=2)
        poisoned = [tasks[0], self._poison(tasks[1])]
        executor = ShardExecutor(2)
        with pytest.raises(KeyError, match="no-such-admission-policy"):
            executor.run(poisoned)
        assert executor.fell_back
        assert executor.workers_used == 0

    def test_executor_survives_a_crash(self):
        """After surfacing a crash the same executor drains healthy
        tasks normally — no wedged pool state left behind."""
        tasks = _tasks(_entries(count=4), shards=2)
        executor = ShardExecutor(2)
        with pytest.raises(KeyError):
            executor.run([self._poison(tasks[0]), tasks[1]])
        results = executor.run(tasks)
        assert len(results) == 2
        assert sum(len(r.records) for r in results) == 4
        assert not executor.fell_back


class TestTaskPickling:
    def test_shard_task_round_trips(self):
        import pickle

        task = _tasks(_entries(count=3), shards=1)[0]
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task
        assert isinstance(clone, ShardTask)

    def test_run_shard_pickles_by_reference(self):
        import pickle

        assert pickle.loads(pickle.dumps(run_shard)) is run_shard


class TestServiceIntegration:
    @pytest.fixture(scope="class")
    def service(self):
        from repro.runtime.service import PipelineService

        config = ServiceConfig(
            regions=KEYS,
            scheduler_shards=4,
            shard_workers=2,
            scheduler="deadline-edf",
            slo_deadline_s=1800.0,
            max_concurrent=8,
        )
        service = PipelineService.build(config)
        mix = default_job_mix(KEYS, count=8, seed=config.seed)
        service.drain_parallel(mix)
        service.stop()
        return service

    def test_summary_reports_merged_stats(self, service):
        summary = service.summary()
        assert summary.completed == 8
        assert summary.scheduler_shards == 4
        assert summary.parallel_wall_s > 0.0
        if not service.parallel_fell_back:
            assert summary.shard_worker_count == 2
        row = summary.to_row()
        assert row["shard_worker_count"] == float(
            summary.shard_worker_count
        )
        assert row["parallel_wall_s"] == summary.parallel_wall_s

    def test_records_survive_for_rendering(self, service):
        assert len(service.parallel_records) == 8
        names = {record.name for record in service.parallel_records}
        assert len(names) == 8

    def test_metrics_families_present(self, service):
        text = service.hub.render_prometheus()
        assert "wanify_shard_workers" in text
        assert "wanify_parallel_wall_seconds" in text

    def test_lazy_package_export(self):
        import repro.runtime.scheduling as scheduling

        assert scheduling.ShardExecutor is ShardExecutor

    def test_module_alias(self):
        assert parallel_mod.ShardExecutor is ShardExecutor
