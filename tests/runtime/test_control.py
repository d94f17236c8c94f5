"""Tests for the runtime control plane: preempt / govern / autoscale.

Covers the executor's pause/resume checkpointing, the scheduler's
preemption surface, the bandwidth governor's apply/release ledger (the
PR-2 deployment-teardown bug class, now for throttles), the
autoscaler, the registered preemption policies, and the committed
flash-crowd comparison from ``repro.experiments.control_plane``.
"""

import pytest

from repro.gda.engine.cluster import GeoCluster
from repro.gda.systems.tetrium import TetriumPolicy
from repro.gda.systems.vanilla import LocalityPolicy
from repro.gda.workloads.terasort import terasort_job
from repro.pipeline.registry import (
    preemption_policy,
    preemption_policy_registry,
)
from repro.runtime.control import (
    BandwidthGovernor,
    ConcurrencyAutoscaler,
    ControlView,
    CostAwarePreemption,
    NoPreemption,
    PreemptionDecision,
    UrgentSloPreemption,
)
from repro.gda.engine.engine import JobRun
from repro.runtime.scheduler import JobScheduler
from repro.runtime.scheduling import SLO

TRIAD = ("us-east-1", "us-west-1", "ap-southeast-1")


def _cluster(calm):
    return GeoCluster.build(TRIAD, "t2.medium", fluctuation=calm)


def _job(name="ts", mb=300.0):
    return terasort_job({k: mb for k in TRIAD}, name=name)


class _Ticket:
    """Stand-in ticket for governor/policy unit tests."""

    def __init__(self, name, slack=None, preemptions=0, preempted_at=None,
                 seq=0, policy_pinned=False):
        self.job = type("J", (), {"name": name})()
        self.slack = slack
        self.preemptions = preemptions
        self.preempted_at = preempted_at
        self.seq = seq
        self.policy = TetriumPolicy()
        self.policy_pinned = policy_pinned
        self.run = None


def _view(now=0.0, running=(), queued=(), calibrated=True,
          remaining=300.0, phase_cost=10.0):
    return ControlView(
        now=now,
        running=tuple(running),
        queued=tuple(queued),
        slack_s=lambda t: t.slack,
        remaining_s=lambda t: remaining,
        phase_cost_s=lambda t: phase_cost,
        default_policy_name="tetrium",
        calibrated=calibrated,
    )


class TestPauseResume:
    def test_pause_then_resume_completes_with_all_stages(self, calm):
        cluster = _cluster(calm)
        run = JobRun(cluster, _job(), LocalityPolicy()).start()
        sim = cluster.network.sim
        # Run partway into the job, then pause mid-flight.
        while sim.now < 20.0 and sim.step():
            pass
        assert not run.done
        checkpoint = run.pause()
        sim.run()  # drains: the paused run schedules nothing further
        assert not run.done
        resumed = JobRun(
            cluster, _job(), LocalityPolicy(), resume_from=checkpoint
        ).start()
        sim.run()
        assert resumed.done
        # Completed-stage metrics carried over + the redone remainder.
        baseline = JobRun(_cluster(calm), _job(), LocalityPolicy()).start()
        baseline.cluster.network.sim.run()
        assert len(resumed.result.stages) == len(baseline.result.stages)

    def test_pause_discards_interrupted_phase_progress(self, calm):
        cluster = _cluster(calm)
        run = JobRun(cluster, _job(), LocalityPolicy()).start()
        sim = cluster.network.sim
        while sim.now < 20.0 and sim.step():
            pass
        wan_before = run.wan_mbits
        checkpoint = run.pause()
        # The checkpoint credits only *completed* transfers.
        assert checkpoint.wan_mbits == wan_before
        assert not cluster.network.active_transfers()

    def test_pause_lifecycle_guards(self, calm):
        cluster = _cluster(calm)
        run = JobRun(cluster, _job(), LocalityPolicy())
        with pytest.raises(RuntimeError):
            run.pause()  # never started
        run.start()
        sim = cluster.network.sim
        while sim.now < 10.0 and sim.step():
            pass
        run.pause()
        with pytest.raises(RuntimeError):
            run.pause()  # already paused
        finished = JobRun(_cluster(calm), _job(), LocalityPolicy()).start()
        finished.cluster.network.sim.run()
        with pytest.raises(RuntimeError):
            finished.pause()  # already finished

    def test_remaining_wan_mb_matches_whole_job_estimate_at_start(
        self, calm
    ):
        from repro.runtime.control import job_wan_mb

        cluster = _cluster(calm)
        job = _job()
        run = JobRun(cluster, job, LocalityPolicy()).start()
        # A fresh run's remaining volume is the whole-job projection the
        # slack estimator uses for queued tickets — the two estimator
        # paths must agree at the starting line.
        assert run.remaining_wan_mb() == pytest.approx(
            job_wan_mb(job, run.shuffle_overhead)
        )


class TestSchedulerPreemption:
    def test_preempt_swaps_victim_for_beneficiary(self, calm):
        cluster = _cluster(calm)
        scheduler = JobScheduler(cluster, max_concurrent=1)
        victim = scheduler.submit(_job("victim"), TetriumPolicy())
        beneficiary = scheduler.submit(_job("urgent"), TetriumPolicy())
        sim = cluster.network.sim
        while sim.now < 20.0 and sim.step():
            pass
        scheduler.preempt(victim, beneficiary)
        assert victim.state == "queued"
        assert victim.preemptions == 1
        assert victim.checkpoint is not None
        assert beneficiary.state == "running"
        sim.run()
        # Both complete; the beneficiary finished first (it held the
        # slot while the victim waited at the queue front).
        assert victim.state == "done" and beneficiary.state == "done"
        assert beneficiary.finished_s < victim.finished_s
        assert len(scheduler.completed) == 2

    def test_preempted_victim_resumes_at_queue_front(self, calm):
        cluster = _cluster(calm)
        scheduler = JobScheduler(cluster, max_concurrent=1)
        victim = scheduler.submit(_job("victim"), TetriumPolicy())
        beneficiary = scheduler.submit(_job("urgent"), TetriumPolicy())
        later = scheduler.submit(_job("later"), TetriumPolicy())
        sim = cluster.network.sim
        while sim.now < 20.0 and sim.step():
            pass
        scheduler.preempt(victim, beneficiary)
        assert scheduler.queued[0] is victim
        sim.run()
        # FIFO after the swap: urgent, then the resumed victim, then
        # the later arrival.
        assert victim.finished_s < later.finished_s

    def test_wait_excludes_preempted_execution_time(self, calm):
        """wait_s sums queue stints only — never the discarded slice."""
        cluster = _cluster(calm)
        scheduler = JobScheduler(cluster, max_concurrent=1)
        victim = scheduler.submit(_job("victim"), TetriumPolicy())
        beneficiary = scheduler.submit(_job("urgent"), TetriumPolicy())
        sim = cluster.network.sim
        while sim.now < 20.0 and sim.step():
            pass
        scheduler.preempt(victim, beneficiary)
        sim.run()
        # Admitted at 0 (no initial wait), so the only queueing is the
        # preempt → resume gap; the 20 s executed slice must not count.
        assert victim.wait_s == pytest.approx(
            victim.started_s - victim.preempted_at
        )
        assert victim.wait_s < victim.jct_s - 20.0

    def test_preempt_with_migrate_reresolves_policy(self, calm):
        cluster = _cluster(calm)
        scheduler = JobScheduler(
            cluster, max_concurrent=1, default_policy="kimchi"
        )
        victim = scheduler.submit(_job("victim"), TetriumPolicy())
        beneficiary = scheduler.submit(_job("urgent"), TetriumPolicy())
        sim = cluster.network.sim
        while sim.now < 20.0 and sim.step():
            pass
        assert victim.policy.name == "tetrium"
        scheduler.preempt(victim, beneficiary, migrate=True)
        assert victim.policy.name == "kimchi"
        sim.run()
        assert victim.state == "done"

    def test_preempt_rejects_bad_tickets(self, calm):
        cluster = _cluster(calm)
        scheduler = JobScheduler(cluster, max_concurrent=2)
        running = scheduler.submit(_job("a"), TetriumPolicy())
        also_running = scheduler.submit(_job("b"), TetriumPolicy())
        with pytest.raises(ValueError):
            scheduler.preempt(running, also_running)  # not queued
        queued = scheduler.submit(_job("c"), TetriumPolicy())
        with pytest.raises(ValueError):
            scheduler.preempt(queued, None)  # not running

    def test_set_max_concurrent_admits_immediately(self, calm):
        cluster = _cluster(calm)
        scheduler = JobScheduler(cluster, max_concurrent=1)
        for i in range(3):
            scheduler.submit(_job(f"ts-{i}"), TetriumPolicy())
        assert len(scheduler.running) == 1
        scheduler.set_max_concurrent(3)
        assert len(scheduler.running) == 3
        with pytest.raises(ValueError):
            scheduler.set_max_concurrent(0)


class TestBandwidthGovernor:
    def _network(self, calm):
        return _cluster(calm).network

    def test_caps_rich_exclusive_pairs_and_releases_on_finish(self, calm):
        network = self._network(calm)
        network.start_transfer(
            "us-east-1", "us-west-1", 8000.0, tag="rich:shuffle"
        )
        network.start_transfer(
            "us-east-1", "ap-southeast-1", 8000.0, tag="poor:shuffle"
        )
        governor = BandwidthGovernor(network)
        rich = _Ticket("rich", slack=500.0)
        poor = _Ticket("poor", slack=-50.0)
        applied = governor.rebalance(
            0.0, [rich, poor], lambda t: t.slack
        )
        assert applied == 1
        pair = ("us-east-1", "us-west-1")
        assert pair in governor.held
        assert network.tc.limit(*pair) < float("inf")
        governor.release_job("rich")
        assert not governor.held
        assert network.tc.limit(*pair) == float("inf")
        assert governor.throttle_moves == governor.throttle_releases == 1

    def test_release_restores_previous_limit(self, calm):
        network = self._network(calm)
        pair = ("us-east-1", "us-west-1")
        network.tc.set_limit(*pair, 900.0)
        network.start_transfer(*pair, 8000.0, tag="rich:shuffle")
        network.start_transfer(
            "us-east-1", "ap-southeast-1", 8000.0, tag="poor:shuffle"
        )
        governor = BandwidthGovernor(network)
        governor.rebalance(
            0.0,
            [_Ticket("rich", slack=500.0), _Ticket("poor", slack=-50.0)],
            lambda t: t.slack,
        )
        if pair in governor.held:
            assert network.tc.limit(*pair) < 900.0
            governor.release_all()
            assert network.tc.limit(*pair) == 900.0

    def test_never_caps_shared_or_poor_pairs(self, calm):
        network = self._network(calm)
        pair = ("us-east-1", "us-west-1")
        network.start_transfer(*pair, 8000.0, tag="rich:shuffle")
        network.start_transfer(*pair, 8000.0, tag="poor:shuffle")
        governor = BandwidthGovernor(network)
        applied = governor.rebalance(
            0.0,
            [_Ticket("rich", slack=500.0), _Ticket("poor", slack=-50.0)],
            lambda t: t.slack,
        )
        assert applied == 0 and not governor.held

    def test_idle_without_poor_jobs_and_releases_when_poor_drains(
        self, calm
    ):
        network = self._network(calm)
        network.start_transfer(
            "us-east-1", "us-west-1", 8000.0, tag="rich:shuffle"
        )
        network.start_transfer(
            "us-east-1", "ap-southeast-1", 8000.0, tag="poor:shuffle"
        )
        governor = BandwidthGovernor(network)
        rich = _Ticket("rich", slack=500.0)
        poor = _Ticket("poor", slack=-50.0)
        assert governor.rebalance(0.0, [rich], lambda t: t.slack) == 0
        governor.rebalance(0.0, [rich, poor], lambda t: t.slack)
        assert governor.held
        # Poor job recovers → caps lift on the next tick.
        poor.slack = 200.0
        governor.rebalance(30.0, [rich, poor], lambda t: t.slack)
        assert not governor.held
        assert governor.throttle_moves == governor.throttle_releases

    def test_forget_retires_records_without_touching_tc(self, calm):
        network = self._network(calm)
        pair = ("us-east-1", "us-west-1")
        network.start_transfer(*pair, 8000.0, tag="rich:shuffle")
        network.start_transfer(
            "us-east-1", "ap-southeast-1", 8000.0, tag="poor:shuffle"
        )
        governor = BandwidthGovernor(network)
        governor.rebalance(
            0.0,
            [_Ticket("rich", slack=500.0), _Ticket("poor", slack=-50.0)],
            lambda t: t.slack,
        )
        assert governor.held
        # A deployment teardown cleared the table behind our back...
        network.tc.clear_all()
        network.tc.set_limit(*pair, 1234.0)  # the *new* plan's cap
        governor.forget()
        assert not governor.held
        # ...and forget() must not clobber the new deployment's limit.
        assert network.tc.limit(*pair) == 1234.0
        assert governor.throttle_moves == governor.throttle_releases

    def test_throttle_factor_validated(self, calm):
        with pytest.raises(ValueError):
            BandwidthGovernor(self._network(calm), throttle_factor=1.5)


class TestAutoscaler:
    def test_scales_up_under_pressure_down_when_idle(self, calm):
        cluster = _cluster(calm)
        scheduler = JobScheduler(cluster, max_concurrent=1)
        autoscaler = ConcurrencyAutoscaler(scheduler, ceiling=3)
        for i in range(4):
            scheduler.submit(_job(f"ts-{i}"), TetriumPolicy())
        autoscaler.tick(0.0, urgent_queued=False)
        assert scheduler.max_concurrent == 2
        assert len(scheduler.running) == 2
        autoscaler.tick(45.0, urgent_queued=False)
        assert scheduler.max_concurrent == 3
        autoscaler.tick(90.0, urgent_queued=False)  # at ceiling
        assert scheduler.max_concurrent == 3
        cluster.network.sim.run()
        autoscaler.tick(135.0, urgent_queued=False)  # queue empty
        assert scheduler.max_concurrent == 2
        assert autoscaler.high_water == 3
        assert autoscaler.scale_ups == 2 and autoscaler.scale_downs == 1

    def test_never_scales_below_floor(self, calm):
        scheduler = JobScheduler(_cluster(calm), max_concurrent=2)
        autoscaler = ConcurrencyAutoscaler(scheduler, ceiling=4)
        for _ in range(5):
            autoscaler.tick(0.0, urgent_queued=False)
        assert scheduler.max_concurrent == 2

    def test_urgency_triggers_scale_up_below_depth(self, calm):
        cluster = _cluster(calm)
        scheduler = JobScheduler(cluster, max_concurrent=1)
        autoscaler = ConcurrencyAutoscaler(
            scheduler, ceiling=3, scale_up_depth=5
        )
        scheduler.submit(_job("a"), TetriumPolicy())
        scheduler.submit(_job("b"), TetriumPolicy())
        autoscaler.tick(0.0, urgent_queued=False)  # depth 1 < 5
        assert scheduler.max_concurrent == 1
        autoscaler.tick(45.0, urgent_queued=True)
        assert scheduler.max_concurrent == 2

    def test_ceiling_below_floor_rejected(self, calm):
        scheduler = JobScheduler(_cluster(calm), max_concurrent=4)
        with pytest.raises(ValueError):
            ConcurrencyAutoscaler(scheduler, ceiling=2)


class TestPreemptionPolicies:
    def test_registry_resolves_all_builtins(self):
        assert set(preemption_policy_registry.names()) >= {
            "none", "urgent-slo", "cost-aware"
        }
        assert isinstance(preemption_policy("none"), NoPreemption)
        assert isinstance(
            preemption_policy("urgent-slo"), UrgentSloPreemption
        )
        assert isinstance(
            preemption_policy("cost-aware"), CostAwarePreemption
        )

    def test_none_never_fires(self):
        view = _view(
            running=[_Ticket("rich", slack=1000.0)],
            queued=[_Ticket("urgent", slack=-100.0)],
        )
        assert NoPreemption().select(view) is None

    def test_urgent_slo_swaps_richest_for_most_urgent(self):
        rich = _Ticket("rich", slack=1000.0)
        mid = _Ticket("mid", slack=200.0)
        urgent = _Ticket("urgent", slack=-100.0)
        decision = UrgentSloPreemption().select(
            _view(running=[mid, rich], queued=[urgent])
        )
        assert decision is not None
        assert decision.victim is rich
        assert decision.beneficiary is urgent

    def test_urgent_slo_requires_calibration(self):
        view = _view(
            running=[_Ticket("rich", slack=1000.0)],
            queued=[_Ticket("urgent", slack=-100.0)],
            calibrated=False,
        )
        assert UrgentSloPreemption().select(view) is None

    def test_urgent_slo_skips_hopeless_and_poor_victims(self):
        policy = UrgentSloPreemption(rescue_floor_s=-180.0)
        hopeless = _Ticket("hopeless", slack=-500.0)
        view = _view(
            running=[_Ticket("rich", slack=1000.0)], queued=[hopeless]
        )
        assert policy.select(view) is None
        # Victim below the floor: preempting it just moves the miss.
        poor_victim = _Ticket("squeezed", slack=10.0)
        view = _view(
            running=[poor_victim], queued=[_Ticket("urgent", slack=-100.0)]
        )
        assert UrgentSloPreemption().select(view) is None

    def test_urgent_slo_global_fire_interval(self):
        policy = UrgentSloPreemption(fire_interval_s=120.0)
        running = [_Ticket("r1", slack=1000.0), _Ticket("r2", slack=900.0)]
        first = policy.select(
            _view(now=100.0, running=running, queued=[
                _Ticket("u1", slack=-100.0)
            ])
        )
        assert first is not None
        again = policy.select(
            _view(now=150.0, running=running, queued=[
                _Ticket("u2", slack=-100.0)
            ])
        )
        assert again is None  # inside the fire interval
        later = policy.select(
            _view(now=260.0, running=running, queued=[
                _Ticket("u2", slack=-100.0)
            ])
        )
        assert later is not None

    def test_victim_cooldown_and_preemption_cap(self):
        policy = UrgentSloPreemption(cooldown_s=240.0, max_preemptions=2)
        urgent = [_Ticket("u", slack=-100.0)]
        recent = _Ticket("recent", slack=1000.0, preempted_at=900.0)
        assert policy.select(
            _view(now=1000.0, running=[recent], queued=urgent)
        ) is None
        worn = _Ticket("worn", slack=1000.0, preemptions=2)
        assert policy.select(
            _view(now=1000.0, running=[worn], queued=urgent)
        ) is None

    def test_migrate_only_for_unpinned_default_policy_tickets(self):
        """An explicitly-submitted policy is never migration bait."""
        urgent = [_Ticket("urgent", slack=-100.0)]
        # Stub policy is tetrium; view default is "kimchi" (re-pointed).
        pinned = _Ticket("pinned", slack=1000.0, policy_pinned=True)
        view = _view(running=[pinned], queued=urgent)
        view = ControlView(**{**view.__dict__, "default_policy_name": "kimchi"})
        decision = UrgentSloPreemption().select(view)
        assert decision is not None and decision.migrate is False
        floating = _Ticket("floating", slack=1000.0, policy_pinned=False)
        view = _view(running=[floating], queued=urgent)
        view = ControlView(**{**view.__dict__, "default_policy_name": "kimchi"})
        decision = UrgentSloPreemption().select(view)
        assert decision is not None and decision.migrate is True

    def test_cost_aware_rejection_does_not_burn_fire_interval(self):
        """A cost-gated rejection must not delay the next evaluation."""
        policy = CostAwarePreemption(fire_interval_s=120.0)
        running = [_Ticket("rich", slack=1000.0)]
        queued = [_Ticket("urgent", slack=-100.0)]
        expensive = _view(
            now=100.0, running=running, queued=queued,
            remaining=100.0, phase_cost=200.0,
        )
        assert policy.select(expensive) is None
        # 10 s later the swap became affordable — it must fire now,
        # not after a full fire interval from the rejected evaluation.
        cheap = _view(
            now=110.0, running=running, queued=queued,
            remaining=600.0, phase_cost=20.0,
        )
        assert policy.select(cheap) is not None

    def test_cost_aware_falls_through_to_affordable_victim(self):
        """An expensive top victim must not block a cheap runner-up."""
        expensive_rich = _Ticket("top", slack=1000.0)
        cheap_mid = _Ticket("mid", slack=800.0)
        urgent = _Ticket("urgent", slack=-100.0)
        costs = {"top": 500.0, "mid": 5.0}
        view = ControlView(
            now=0.0,
            running=(expensive_rich, cheap_mid),
            queued=(urgent,),
            slack_s=lambda t: t.slack,
            remaining_s=lambda t: 600.0,
            phase_cost_s=lambda t: costs[t.job.name],
            default_policy_name="tetrium",
            calibrated=True,
        )
        decision = CostAwarePreemption().select(view)
        assert decision is not None
        assert decision.victim is cheap_mid

    def test_cost_aware_gates_on_benefit_vs_cost(self):
        running = [_Ticket("rich", slack=1000.0)]
        queued = [_Ticket("urgent", slack=-100.0)]
        cheap = _view(
            running=running, queued=queued,
            remaining=600.0, phase_cost=20.0,
        )
        assert CostAwarePreemption().select(cheap) is not None
        expensive = _view(
            running=running, queued=queued,
            remaining=100.0, phase_cost=200.0,
        )
        assert CostAwarePreemption().select(expensive) is None


class TestFlashCrowdComparison:
    """The committed controlled-vs-uncontrolled acceptance scenario."""

    @pytest.fixture(scope="class")
    def comparison(self):
        from repro.experiments.control_plane import run_service

        return {
            "uncontrolled": run_service(controlled=False),
            "controlled": run_service(controlled=True),
        }

    def test_controlled_strictly_beats_uncontrolled_attainment(
        self, comparison
    ):
        base = comparison["uncontrolled"].summary()
        ctrl = comparison["controlled"].summary()
        assert ctrl.slo_attainment > base.slo_attainment
        assert ctrl.preemptions > 0
        assert ctrl.throttle_moves > 0

    def test_uncontrolled_counters_all_zero(self, comparison):
        base = comparison["uncontrolled"].summary()
        assert base.preemptions == 0
        assert base.migrations == 0
        assert base.throttle_moves == 0
        assert comparison["uncontrolled"].control is None

    def test_governor_releases_every_throttle_it_applied(self, comparison):
        """Regression: the PR-2 teardown bug class, for throttles.

        Every cap the governor applied over the whole run — across job
        completions, preemptions, and re-plan teardowns — must have
        been released by the time the service stopped.
        """
        service = comparison["controlled"]
        governor = service.control.governor
        assert governor is not None
        assert governor.throttle_moves > 0
        assert governor.throttle_moves == governor.throttle_releases
        assert governor.held == {}

    def test_autoscaler_high_water_reported(self, comparison):
        ctrl = comparison["controlled"].summary()
        assert ctrl.concurrency_high_water == 3

    def test_summary_row_carries_control_counters(self, comparison):
        row = comparison["controlled"].summary().to_row()
        for key in (
            "preemptions",
            "migrations",
            "throttle_moves",
            "throttle_releases",
            "concurrency_high_water",
        ):
            assert key in row


class TestServiceDefaultsUnchanged:
    def test_default_config_builds_no_control_plane(self, calm):
        from repro.pipeline.config import ServiceConfig

        config = ServiceConfig()
        assert config.preemption == "none"
        assert config.governor is False
        assert config.autoscale is False

    def test_governor_releases_on_preemption_via_plane(self, calm):
        """A preempted victim's caps are released with its transfers."""
        from repro.pipeline.config import ServiceConfig
        from repro.runtime.control import ControlPlane

        cluster = _cluster(calm)
        scheduler = JobScheduler(cluster, max_concurrent=1)
        config = ServiceConfig(
            preemption="urgent-slo", governor=True
        )
        plane = ControlPlane(
            scheduler, config, predicted_bw=lambda: None
        )
        victim = scheduler.submit(
            _job("victim"), TetriumPolicy(), slo=SLO(deadline_s=10000.0)
        )
        beneficiary = scheduler.submit(
            _job("urgent"), TetriumPolicy(), slo=SLO(deadline_s=10000.0)
        )
        sim = cluster.network.sim
        while sim.now < 20.0 and sim.step():
            pass
        # Seed a cap attributed to the victim, then preempt it.
        governor = plane.governor
        governor.held[("us-east-1", "us-west-1")] = None
        governor._owners[("us-east-1", "us-west-1")] = frozenset(
            {"victim"}
        )
        governor.throttle_moves += 1
        cluster.network.tc.set_limit("us-east-1", "us-west-1", 100.0)
        plane._execute(
            PreemptionDecision(victim=victim, beneficiary=beneficiary)
        )
        assert governor.held == {}
        assert (
            cluster.network.tc.limit("us-east-1", "us-west-1")
            == float("inf")
        )
        assert victim.state == "queued"
        plane.close()
