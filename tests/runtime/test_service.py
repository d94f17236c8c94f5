"""End-to-end tests for the runtime service.

The acceptance scenario: ≥3 concurrent jobs on a drifting network, at
least one mid-job re-plan, online re-planning beating the frozen
submit-time plan on total completion time — all deterministic under a
fixed seed.
"""

import pytest

from repro.net.profiles import network_profile
from repro.runtime.scenarios import StepDrop
from repro.runtime.scheduling import DEFAULT_BATCH
from repro.runtime.service import (
    PipelineService,
    ServiceConfig,
    ServiceSummary,
    default_job_mix,
)

REGIONS = ("us-east-1", "us-west-1", "eu-west-1", "ap-southeast-1")
SEED = 11

FAST = dict(n_training_datasets=10, n_estimators=8)


def _config(online: bool) -> ServiceConfig:
    return ServiceConfig(
        regions=REGIONS,
        seed=SEED,
        online=online,
        max_concurrent=3,
        cooldown_s=180.0,
        **FAST,
    )


def _drifting_weather(config: ServiceConfig) -> StepDrop:
    """A 65% substrate capacity drop at t=240s — mid-mix."""
    base = network_profile(config.profile).fluctuation(seed=config.seed)
    return StepDrop(base, config.seed, at_s=240.0, level=0.35)


def _serve(online: bool) -> PipelineService:
    config = _config(online)
    service = PipelineService.build(config, weather=_drifting_weather(config))
    # Compress the mix's arrival gaps so ≥3 jobs overlap in flight.
    for delay, job in default_job_mix(
        REGIONS, count=6, seed=7, scale_mb=4000.0
    ):
        service.submit_at(delay * 0.3, job)
    service.run()
    service.stop()
    return service


@pytest.fixture(scope="module")
def online_service() -> PipelineService:
    return _serve(online=True)


@pytest.fixture(scope="module")
def static_service() -> PipelineService:
    return _serve(online=False)


class TestAcceptance:
    def test_all_jobs_complete(self, online_service):
        assert len(online_service.scheduler.completed) == 6
        assert all(
            t.result is not None
            for t in online_service.scheduler.completed
        )

    def test_at_least_three_jobs_ran_concurrently(self, online_service):
        assert online_service.scheduler.peak_concurrency >= 3

    def test_at_least_one_mid_job_replan(self, online_service):
        summary = online_service.summary()
        assert summary.replans >= 1
        # "Mid-job": some job was in flight when the event fired.
        tickets = online_service.scheduler.completed
        for event in summary.events:
            assert any(
                t.started_s <= event.time <= t.finished_s
                for t in tickets
            )

    def test_replan_reacts_to_the_drop(self, online_service):
        first = online_service.summary().events[0]
        assert first.time > 240.0  # after the step hit
        assert first.observed_mbps < first.predicted_mbps

    def test_online_beats_static_total_completion(
        self, online_service, static_service
    ):
        online = online_service.summary()
        static = static_service.summary()
        assert static.replans == 0
        assert online.total_jct_s < static.total_jct_s

    def test_telemetry_flowed_through_agents(self, online_service):
        summary = online_service.summary()
        assert summary.telemetry_samples > 100
        # Every DC's agent published.
        sources = {src for src, _dst in online_service.telemetry.links()}
        assert sources == set(REGIONS)

    def test_deterministic_under_fixed_seed(self, online_service):
        repeat = _serve(online=True)
        ours, theirs = online_service.summary(), repeat.summary()
        assert ours.total_jct_s == pytest.approx(theirs.total_jct_s)
        assert ours.replans == theirs.replans
        assert [e.time for e in ours.events] == [
            e.time for e in theirs.events
        ]

    def test_summary_row_shape(self, online_service):
        summary = online_service.summary()
        assert isinstance(summary, ServiceSummary)
        row = summary.to_row()
        assert row["completed"] == 6.0
        assert 0.0 < row["fairness"] <= 1.0


class TestServiceMechanics:
    def test_static_mode_keeps_initial_plan(self, static_service):
        assert static_service._drift_process is None
        assert static_service.summary().replans == 0

    def test_stop_tears_down_agents(self, online_service):
        # _serve() calls stop(): the roster is drained and throttles
        # cleared, but the retired telemetry remains inspectable.
        assert online_service.agents == []
        assert online_service.telemetry.total_samples > 0

    def test_manual_replan_redeploys(self):
        config = ServiceConfig(
            regions=REGIONS[:3], seed=5, online=False, **FAST
        )
        service = PipelineService.build(config)
        assert len(service.agents) == 3
        before = service.agents
        event_input = service.detector
        assert event_input is not None
        from repro.runtime.drift import ReplanEvent

        service.replan(
            ReplanEvent(0.0, REGIONS[0], REGIONS[1], 10.0, 100.0, 0.9)
        )
        assert len(service.agents) == 3
        assert service.agents is not before
        assert service.summary().replans == 1
        # Detector now references the refreshed prediction.
        assert service.detector.predicted is service.predicted

    def test_double_start_rejected(self, online_service):
        with pytest.raises(RuntimeError):
            online_service.start()

    def test_plan_and_prediction_installed(self, online_service):
        assert online_service.plan is not None
        assert online_service.predicted is not None
        assert online_service.predicted.min_bw() > 0


class TestSchedulingService:
    """Config-to-scheduler threading and re-plan cost charging."""

    def _tiny(self, **overrides) -> PipelineService:
        config = ServiceConfig(
            regions=REGIONS[:3], seed=5, online=False, **FAST, **overrides
        )
        return PipelineService.build(config)

    def test_scheduler_config_selects_admission_policy(self):
        service = self._tiny(scheduler="priority")
        assert service.scheduler.admission.name == "priority"
        assert service.scheduler.reallocator.batch == DEFAULT_BATCH
        assert service.summary().scheduler == "priority"

    def test_default_config_stays_fifo(self):
        service = self._tiny()
        assert service.scheduler.admission.name == "fifo"
        assert service.scheduler.default_slo is None

    def test_slo_deadline_config_becomes_default_slo(self):
        service = self._tiny(slo_deadline_s=750.0)
        default = service.scheduler.default_slo
        assert default is not None
        assert default.deadline_s == 750.0
        from repro.gda.workloads.wordcount import wordcount_job

        ticket = service.submit(
            wordcount_job(
                {k: 50.0 for k in REGIONS[:3]}, intermediate_mb=40.0
            )
        )
        assert ticket.slo is default

    def test_replan_charges_snapshot_probe_cost(self):
        from repro.runtime.drift import ReplanEvent

        service = self._tiny()
        event = ReplanEvent(0.0, REGIONS[0], REGIONS[1], 10.0, 100.0, 0.9)
        service.replan(event)
        summary = service.summary()
        n = len(REGIONS[:3])
        assert summary.replans == 1
        assert summary.replan_probe_transfers == n * (n - 1)
        assert summary.replan_cost_usd > 0.0
        assert summary.events[0].probe_cost_usd == pytest.approx(
            summary.replan_cost_usd
        )
        # The charge is the ledger *delta*, so it is strictly less
        # than the gauger's lifetime total (which includes the initial
        # plan's gauge).
        assert summary.replan_cost_usd < summary.probe_cost_usd
        assert "re-gauge" in summary.events[0].describe()

    def test_replan_budget_gates_the_control_loop(self):
        class FiringDetector:
            def check(self, now):
                from repro.runtime.drift import ReplanEvent

                return ReplanEvent(
                    now, REGIONS[0], REGIONS[1], 10.0, 100.0, 0.9
                )

            def rebase(self, predicted, now):
                pass

        service = self._tiny(replan_budget_usd=0.0)
        service.detector = FiringDetector()
        service._check(1000.0)
        assert service.summary().replans == 0  # budget already spent

        unbudgeted = self._tiny()
        unbudgeted.detector = FiringDetector()
        unbudgeted._check(1000.0)
        assert unbudgeted.summary().replans == 1


class TestDefaultJobMix:
    def test_deterministic(self):
        a = default_job_mix(REGIONS, count=5, seed=3)
        b = default_job_mix(REGIONS, count=5, seed=3)
        assert [j.name for _, j in a] == [j.name for _, j in b]
        assert [d for d, _ in a] == [d for d, _ in b]

    def test_cycles_workloads(self):
        names = [j.name for _, j in default_job_mix(REGIONS, count=6)]
        assert any("wordcount" in n for n in names)
        assert any("terasort" in n for n in names)
        assert any("tpcds" in n for n in names)

    def test_inputs_cover_all_dcs(self):
        for _, job in default_job_mix(REGIONS, count=3):
            assert set(job.input_mb_by_dc) == set(REGIONS)
            assert all(mb > 0 for mb in job.input_mb_by_dc.values())

    def test_count_validated(self):
        with pytest.raises(ValueError):
            default_job_mix(REGIONS, count=0)
