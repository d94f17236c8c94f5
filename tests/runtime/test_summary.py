"""The single-declaration contract of :class:`ServiceSummary`.

Every reported metric is one ``metric_field``; ``to_row``, the sweep
columns and the Prometheus families that mirror a summary field are
all derived from those declarations.  These tests pin the derived
surfaces (key order included) and check that an exported family
carries exactly its field's value, mid-run, at the end of a run, and
after a partitioned ``drain_parallel``.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from repro.experiments.sweep import METRIC_COLUMNS
from repro.runtime.observability import (
    REQUIRED_METRIC_FAMILIES,
    parse_prometheus_text,
)
from repro.runtime.service import PipelineService, ServiceConfig, default_job_mix
from repro.runtime.summary import SUMMARY_FAMILIES, ServiceSummary, metric_field

#: ``to_row()`` keys, in order — the row every table, sweep report and
#: recorded run carries.
ROW_KEYS = (
    "completed",
    "mean_wait_s",
    "mean_jct_s",
    "total_jct_s",
    "makespan_s",
    "jobs_per_hour",
    "fairness",
    "replans",
    "probe_transfers",
    "probe_gb",
    "probe_cost_usd",
    "slo_attained",
    "slo_missed",
    "slo_attainment",
    "replan_probe_transfers",
    "replan_probe_gb",
    "replan_cost_usd",
    "preemptions",
    "migrations",
    "throttle_moves",
    "throttle_releases",
    "concurrency_high_water",
    "rollup_rows",
    "events_traced",
    "metrics_scrapes",
    "policy_switches",
    "tuner_arms_explored",
    "scheduler_shards",
    "work_steals",
    "shard_worker_count",
    "parallel_wall_s",
    "recalibrations",
    "recal_adjustments",
    "net_solves",
    "net_solve_requests",
)

#: The columns every sweep report carries (as a set: their order
#: follows the declarations).
SWEEP_SET = frozenset(
    {
        "completed",
        "mean_jct_s",
        "total_jct_s",
        "makespan_s",
        "replans",
        "probe_transfers",
        "probe_gb",
        "probe_cost_usd",
        "replan_cost_usd",
        "slo_attainment",
        "fairness",
        "preemptions",
        "throttle_moves",
        "concurrency_high_water",
        "rollup_rows",
        "events_traced",
        "metrics_scrapes",
        "policy_switches",
        "tuner_arms_explored",
        "recalibrations",
        "recal_adjustments",
    }
)

#: Every family the CI smoke scrape requires.
REQUIRED_SET = frozenset(
    {
        "wanify_jobs_submitted_total",
        "wanify_jobs_admitted_total",
        "wanify_jobs_completed_total",
        "wanify_jobs_preempted_total",
        "wanify_replans_total",
        "wanify_drift_events_total",
        "wanify_probe_transfers_total",
        "wanify_probe_cost_usd_total",
        "wanify_telemetry_samples_total",
        "wanify_trace_events_total",
        "wanify_metrics_scrapes_total",
        "wanify_jobs_running",
        "wanify_jobs_queued",
        "wanify_max_concurrent",
        "wanify_governor_caps_held",
        "wanify_metrics_log_entries",
        "wanify_policy_switches_total",
        "wanify_tuner_arm_pulls",
        "wanify_scheduler_shards",
        "wanify_shard_jobs_queued",
        "wanify_work_steals_total",
        "wanify_shard_workers",
        "wanify_parallel_wall_seconds",
        "wanify_link_estimate_mbps",
        "wanify_recalibrations_total",
        "wanify_recal_capacity_mbps",
        "wanify_job_latency_seconds",
        "wanify_net_solves_total",
        "wanify_net_solve_requests_total",
    }
)

REGIONS = ("us-east-1", "us-west-1", "ap-southeast-1", "eu-west-1")

REPO = Path(__file__).resolve().parents[2]


def _declared_families():
    """``(field, family, help)`` for every exported summary field."""
    return [
        (spec.name, spec.metadata["family"], spec.metadata["help"])
        for spec in dataclasses.fields(ServiceSummary)
        if spec.metadata.get("family") is not None
    ]


def assert_families_mirror_summary(service):
    families = parse_prometheus_text(service.hub.render_prometheus())
    summary = service.summary()
    declared = _declared_families()
    assert len(declared) == 14
    for attr, family, help_text in declared:
        assert families[family]["type"] == (
            "counter" if family.endswith("_total") else "gauge"
        ), family
        assert families[family]["help"] == help_text, family
        assert families[family]["samples"] == [
            (family, {}, float(getattr(summary, attr)))
        ], family


class TestDeclarations:
    def test_service_module_reexports_summary(self):
        from repro.runtime.service import ServiceSummary as reexported

        assert reexported is ServiceSummary

    def test_row_keys_in_declared_order(self):
        assert tuple(ServiceSummary().to_row()) == ROW_KEYS

    def test_row_reports_counts_as_floats_and_arms_by_size(self):
        summary = ServiceSummary(
            completed=3,
            replan_probe_gb=0,
            tuner_arm_stats={"a": {}, "b": {}},
        )
        row = summary.to_row()
        assert row["completed"] == 3.0 and isinstance(row["completed"], float)
        # Measurements are reported exactly as stored.
        assert row["replan_probe_gb"] == 0
        assert isinstance(row["replan_probe_gb"], int)
        assert row["tuner_arms_explored"] == 2.0
        for hidden in ("scheduler", "kernel", "events", "telemetry_samples"):
            assert hidden not in row

    def test_defaults_are_the_empty_run_values(self):
        row = ServiceSummary().to_row()
        assert row["fairness"] == 1.0
        assert row["slo_attainment"] == 1.0
        assert row["scheduler_shards"] == 1.0
        assert row["completed"] == 0.0

    def test_sweep_columns_are_the_sweep_fields(self):
        assert set(METRIC_COLUMNS) == SWEEP_SET
        assert len(METRIC_COLUMNS) == len(SWEEP_SET)
        assert set(METRIC_COLUMNS) <= set(ROW_KEYS)

    def test_required_families_include_every_declared_family(self):
        assert set(REQUIRED_METRIC_FAMILIES) == REQUIRED_SET
        assert len(REQUIRED_METRIC_FAMILIES) == len(REQUIRED_SET)
        assert set(SUMMARY_FAMILIES) <= REQUIRED_SET
        assert [f for _, f, _ in _declared_families()] == list(SUMMARY_FAMILIES)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_fresh_scrape_renders_exactly_the_required_families(self, shards):
        """Both directions: nothing required is missing, and nothing
        rendered is undeclared (a hand-rendered family cannot slip past
        the smoke scrape)."""
        config = ServiceConfig(
            regions=REGIONS[:3],
            n_training_datasets=4,
            n_estimators=3,
            scheduler_shards=shards,
        )
        service = PipelineService.build(config)
        try:
            rendered = parse_prometheus_text(service.hub.render_prometheus())
        finally:
            service.stop()
            service.hub.close()
        assert set(rendered) - set(REQUIRED_METRIC_FAMILIES) == set()
        assert set(REQUIRED_METRIC_FAMILIES) - set(rendered) == set()

    def test_metric_field_factory_default_is_per_instance(self):
        @dataclasses.dataclass
        class Probe:
            ledger: dict = metric_field(dict, "a per-instance ledger")

        assert Probe().ledger is not Probe().ledger


class TestPrometheusMirrorsSummary:
    @pytest.fixture(scope="class")
    def service(self):
        config = ServiceConfig(
            regions=REGIONS,
            n_training_datasets=6,
            n_estimators=6,
            scenario="link-failure",
            recalibrate=True,
            governor=True,
            autoscale=True,
            preemption="urgent-slo",
            slo_deadline_s=900.0,
            scheduler_shards=2,
            shard_workers=2,
        )
        service = PipelineService.build(config)
        yield service
        service.stop()
        if service.hub is not None:
            service.hub.close()

    def test_mid_run_end_of_run_and_after_parallel_drain(self, service):
        # Arrivals straddle the link failure at t=600 s, so the run
        # re-plans and recalibrates around it.
        mix = default_job_mix(REGIONS, count=4, seed=42, scale_mb=3000.0)
        service.submit_mix([(delay + 450.0, job) for delay, job in mix])
        service.run(until=700.0)
        assert_families_mirror_summary(service)

        service.run()
        summary = service.summary()
        assert summary.completed == 4
        assert summary.recalibrations > 0
        assert summary.replans > 0
        assert_families_mirror_summary(service)

        service.drain_parallel(default_job_mix(REGIONS, count=4, seed=7))
        summary = service.summary()
        assert summary.parallel_wall_s > 0.0
        assert summary.scheduler_shards == 2
        assert_families_mirror_summary(service)

    def test_scrape_reads_the_summary_without_rebuilding_rollups(
        self, service, monkeypatch
    ):
        full = service.summary()
        assert full.rollup_rows > 0
        live = service.live_summary()
        assert dataclasses.replace(live, rollup_rows=full.rollup_rows) == full

        def refuse(*_args, **_kwargs):
            raise AssertionError("a scrape rebuilt the metrics-log rollups")

        monkeypatch.setattr(service.hub.log, "rollup", refuse)
        assert "wanify_replans_total" in parse_prometheus_text(
            service.hub.render_prometheus()
        )

    def test_docs_checker_sees_every_rendered_family(self, service):
        """The docs gate's family list is exactly what a scrape shows."""
        spec = importlib.util.spec_from_file_location(
            "check_docs", REPO / "scripts" / "check_docs.py"
        )
        check_docs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_docs)
        rendered = parse_prometheus_text(service.hub.render_prometheus())
        assert set(rendered) == check_docs.rendered_families()
