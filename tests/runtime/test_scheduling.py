"""Tests for the pluggable scheduling subsystem
(:mod:`repro.runtime.scheduling`)."""

import pytest

from repro.gda.engine.cluster import GeoCluster
from repro.gda.engine.dag import JobSpec, StageSpec
from repro.gda.systems.vanilla import LocalityPolicy
from repro.pipeline.registry import (
    admission_policy,
    admission_policy_registry,
    register_admission_policy,
)
from repro.runtime.scenarios import scenario
from repro.runtime.scheduler import ZERO_STATS, JobScheduler, JobTicket
from repro.runtime.scheduling import (
    SLO,
    BatchedReallocator,
    DeadlineAdmission,
    FairShareAdmission,
    FifoAdmission,
    PriorityAdmission,
    SchedulerView,
    deadline_met,
    deadline_tally,
    jain_index,
    spread_slos,
    tenant_of,
)

TRIAD = ("us-east-1", "us-west-1", "ap-southeast-1")
PAIR = ("us-east-1", "us-west-1")


def _job(name="job-0", mb=100.0, keys=TRIAD):
    return JobSpec(
        name=name,
        stages=[
            StageSpec(
                "map", cpu_s_per_mb=0.01, output_ratio=1.0, shuffle=False
            ),
            StageSpec(
                "reduce", cpu_s_per_mb=0.01, output_ratio=0.1, shuffle=True
            ),
        ],
        input_mb_by_dc={k: mb for k in keys},
    )


def _ticket(name="job-0", submitted=0.0, seq=0, slo=None, mb=100.0):
    return JobTicket(
        _job(name, mb=mb),
        LocalityPolicy(),
        submitted_s=submitted,
        seq=seq,
        slo=slo,
    )


def _view(now=0.0, running=(), completed=()):
    return SchedulerView(now=now, running=tuple(running), completed=tuple(completed))


class TestSLO:
    def test_deadline_at_is_relative_to_submission(self):
        assert SLO(deadline_s=300.0).deadline_at(100.0) == 400.0
        assert SLO().deadline_at(100.0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            SLO(deadline_s=0.0)
        with pytest.raises(ValueError):
            SLO(weight=0.0)

    def test_tenant_defaults_to_job_name_prefix(self):
        assert tenant_of(_ticket("wordcount-3")) == "wordcount"
        assert tenant_of(_ticket("solo")) == "solo"
        explicit = _ticket("wordcount-3", slo=SLO(tenant="team-a"))
        assert tenant_of(explicit) == "team-a"

    def test_attainment_counts_only_deadline_jobs(self):
        met = _ticket("a-0", slo=SLO(deadline_s=100.0))
        met.finished_s = 50.0
        missed = _ticket("a-1", slo=SLO(deadline_s=100.0))
        missed.finished_s = 500.0
        free = _ticket("a-2")
        free.finished_s = 9999.0
        unfinished = _ticket("a-3", slo=SLO(deadline_s=100.0))
        tickets = [met, missed, free, unfinished]
        assert deadline_tally(deadline_met(t) for t in tickets)[:2] == (1, 1)

    def test_spread_slos_is_deterministic_and_heterogeneous(self):
        mix = [(0.0, _job(f"j-{i}")) for i in range(6)]
        a = spread_slos(mix, 600.0, seed=3)
        b = spread_slos(mix, 600.0, seed=3)
        assert [slo for _, _, slo in a] == [slo for _, _, slo in b]
        deadlines = {slo.deadline_s for _, _, slo in a}
        assert len(deadlines) == 6  # spread, not uniform
        assert all(240.0 <= d <= 1080.0 for d in deadlines)
        with pytest.raises(ValueError):
            spread_slos(mix, 0.0)


class TestPolicyOrdering:
    def test_fifo_preserves_submission_order(self):
        tickets = [_ticket(f"j-{i}", submitted=float(i), seq=i) for i in range(5)]
        assert FifoAdmission().order(tickets, _view()) == tickets

    def test_priority_orders_descending_then_fifo(self):
        low = _ticket("low-0", submitted=0.0, seq=0, slo=SLO(priority=0))
        high = _ticket("high-1", submitted=1.0, seq=1, slo=SLO(priority=5))
        mid_a = _ticket("mid-2", submitted=2.0, seq=2, slo=SLO(priority=2))
        mid_b = _ticket("mid-3", submitted=3.0, seq=3, slo=SLO(priority=2))
        ordered = PriorityAdmission().order([low, high, mid_a, mid_b], _view())
        assert ordered == [high, mid_a, mid_b, low]

    def test_no_slo_means_neutral_priority(self):
        neutral = _ticket("n-0", submitted=0.0, seq=0)
        boosted = _ticket("b-1", submitted=1.0, seq=1, slo=SLO(priority=1))
        demoted = _ticket("d-2", submitted=2.0, seq=2, slo=SLO(priority=-1))
        ordered = PriorityAdmission().order([neutral, boosted, demoted], _view())
        assert ordered == [boosted, neutral, demoted]

    def test_deadline_edf_orders_by_absolute_deadline(self):
        # Submitted later but tighter: absolute deadline 150 < 300.
        tight = _ticket("t-1", submitted=100.0, seq=1, slo=SLO(deadline_s=50.0))
        loose = _ticket("l-0", submitted=0.0, seq=0, slo=SLO(deadline_s=300.0))
        ordered = DeadlineAdmission().order([loose, tight], _view())
        assert ordered == [tight, loose]

    def test_deadline_free_tickets_sort_last_fifo(self):
        free_a = _ticket("f-0", submitted=0.0, seq=0)
        free_b = _ticket("f-1", submitted=1.0, seq=1)
        dated = _ticket("d-2", submitted=2.0, seq=2, slo=SLO(deadline_s=10.0))
        ordered = DeadlineAdmission().order([free_a, free_b, dated], _view())
        assert ordered == [dated, free_a, free_b]

    def test_fair_share_prefers_the_starved_tenant(self):
        # Tenant "hog" already received lots of service; "starved" none.
        served = _ticket("hog-0", mb=5000.0)
        served.finished_s = 10.0
        hog_next = _ticket("hog-1", seq=1, mb=100.0)
        starved_next = _ticket("starved-2", submitted=5.0, seq=2, mb=100.0)
        view = _view(completed=[served])
        ordered = FairShareAdmission().order([hog_next, starved_next], view)
        assert ordered[0] is starved_next

    def test_fair_share_weight_scales_entitlement(self):
        served = _ticket("a-0", mb=1000.0)
        served.finished_s = 10.0
        # Same attained service, but tenant "a" has weight 10 — its
        # normalized service is small, so it stays ahead of "b".
        heavy = _ticket("a-1", seq=1, mb=100.0, slo=SLO(weight=10.0))
        other = _ticket("b-2", submitted=5.0, seq=2, mb=100.0)
        served_b = _ticket("b-0", mb=1000.0)
        served_b.finished_s = 11.0
        view = _view(completed=[served, served_b])
        ordered = FairShareAdmission().order([heavy, other], view)
        assert ordered[0] is heavy

    def test_fair_share_reduces_to_fifo_for_one_tenant(self):
        tickets = [
            _ticket(f"same-{i}", submitted=float(i), seq=i) for i in range(4)
        ]
        assert FairShareAdmission().order(tickets, _view()) == tickets

    def test_policies_are_registered(self):
        for name in ("fifo", "priority", "deadline-edf", "fair-share"):
            assert name in admission_policy_registry
            assert admission_policy(name).name == name

    def test_custom_policy_registers_and_resolves(self):
        @register_admission_policy("largest-first")
        class LargestFirst:
            name = "largest-first"
            dynamic = False

            def order(self, queued, view):
                return sorted(
                    queued, key=lambda t: -t.job.total_input_mb
                )

        try:
            assert admission_policy("largest-first").name == "largest-first"
        finally:
            admission_policy_registry.unregister("largest-first")


class TestBatchedReallocator:
    def test_batch_validated(self):
        with pytest.raises(ValueError):
            BatchedReallocator(FifoAdmission(), batch=0)

    def test_pop_empty_queue_returns_none(self):
        realloc = BatchedReallocator(FifoAdmission())
        assert realloc.pop([], _view()) is None

    def test_batch_one_reorders_every_admission(self):
        realloc = BatchedReallocator(DeadlineAdmission(), batch=1)
        tickets = [
            _ticket(f"j-{i}", seq=i, slo=SLO(deadline_s=100.0 * (3 - i)))
            for i in range(3)
        ]
        queue = list(tickets)
        popped = []
        for _ in range(3):
            realloc.note_submit()
        while queue:
            ticket = realloc.pop(queue, _view())
            queue.remove(ticket)
            ticket.started_s = 0.0  # leaves the "queued" state
            popped.append(ticket)
        # Exact EDF: tightest absolute deadline first.
        assert popped == [tickets[2], tickets[1], tickets[0]]
        assert realloc.reorders >= 1

    def test_batching_amortizes_reorders(self):
        realloc = BatchedReallocator(FifoAdmission(), batch=50)
        queue = []
        for i in range(100):
            queue.append(_ticket(f"j-{i}", submitted=float(i), seq=i))
            realloc.note_submit()
        popped = []
        while queue:
            ticket = realloc.pop(queue, _view())
            queue.remove(ticket)
            ticket.started_s = 0.0
            popped.append(ticket)
        assert [t.seq for t in popped] == list(range(100))
        assert realloc.pops == 100
        # 100 pops cost ~100/50 orderings, not 100.
        assert realloc.reorders <= 4

    def test_dynamic_policy_reorders_after_finish(self):
        realloc = BatchedReallocator(FairShareAdmission(), batch=50)
        queue = [_ticket(f"t{i}-0", seq=i) for i in range(4)]
        for _ in queue:
            realloc.note_submit()
        realloc.pop(queue, _view())
        before = realloc.reorders
        realloc.note_finish()  # fair-share is dynamic
        realloc.pop(queue, _view())
        assert realloc.reorders == before + 1

    def test_static_policy_ignores_finishes(self):
        realloc = BatchedReallocator(FifoAdmission(), batch=50)
        queue = [_ticket(f"j-{i}", seq=i) for i in range(4)]
        for _ in queue:
            realloc.note_submit()
        realloc.pop(queue, _view())
        before = realloc.reorders
        realloc.note_finish()
        realloc.pop(queue, _view())
        assert realloc.reorders == before


def _cluster(weather, keys=TRIAD):
    return GeoCluster.build(keys, "t2.medium", fluctuation=weather)


def _small_job(name, mb=150.0, keys=TRIAD):
    return _job(name, mb=mb, keys=keys)


class TestSchedulerIntegration:
    def test_default_scheduler_is_fifo(self, calm):
        scheduler = JobScheduler(_cluster(calm))
        assert scheduler.admission.name == "fifo"

    def test_edf_admits_tight_deadlines_first(self, calm):
        cluster = _cluster(calm)
        scheduler = JobScheduler(
            cluster,
            max_concurrent=1,
            admission="deadline-edf",
            admit_batch=1,
        )
        loose = scheduler.submit(
            _small_job("loose-0"), slo=SLO(deadline_s=9000.0)
        )
        tight = scheduler.submit(
            _small_job("tight-1"), slo=SLO(deadline_s=500.0)
        )
        tighter = scheduler.submit(
            _small_job("tighter-2"), slo=SLO(deadline_s=100.0)
        )
        cluster.network.sim.run()
        # loose-0 was already running when the others arrived; among
        # the queued two, EDF admits the tighter deadline first.
        assert loose.started_s == 0.0
        assert tighter.started_s < tight.started_s

    def test_default_slo_applies_to_every_submission(self, calm):
        cluster = _cluster(calm)
        scheduler = JobScheduler(
            cluster, default_slo=SLO(deadline_s=123.0)
        )
        ticket = scheduler.submit(_small_job("dflt-0"))
        assert ticket.slo is not None
        assert ticket.slo.deadline_s == 123.0
        explicit = scheduler.submit(
            _small_job("own-1"), slo=SLO(deadline_s=9.0)
        )
        assert explicit.slo.deadline_s == 9.0

    def test_stats_report_slo_attainment(self, calm):
        cluster = _cluster(calm)
        scheduler = JobScheduler(cluster, max_concurrent=1)
        # Generous deadline met; impossible deadline missed; no-SLO job
        # excluded from the denominator.
        scheduler.submit(_small_job("met-0"), slo=SLO(deadline_s=86400.0))
        scheduler.submit(_small_job("miss-1"), slo=SLO(deadline_s=0.001))
        scheduler.submit(_small_job("free-2"))
        cluster.network.sim.run()
        stats = scheduler.stats()
        assert stats["slo_attained"] == 1.0
        assert stats["slo_missed"] == 1.0
        assert stats["slo_attainment"] == pytest.approx(0.5)

    def test_stats_before_any_finish_are_zeroed(self, calm):
        """Regression: stats() mid-run must not divide by zero."""
        cluster = _cluster(calm)
        scheduler = JobScheduler(cluster, max_concurrent=2)
        # Nothing submitted at all.
        assert scheduler.stats() == ZERO_STATS
        # Jobs queued and running, none finished yet.
        for i in range(4):
            scheduler.submit(_small_job(f"j-{i}"))
        assert len(scheduler.running) == 2
        stats = scheduler.stats()
        assert stats["completed"] == 0.0
        assert stats["jobs_per_hour"] == 0.0
        assert stats["slo_attainment"] == 1.0
        assert stats["fairness"] == 1.0
        cluster.network.sim.run()
        assert scheduler.stats()["completed"] == 4.0

    def test_zero_stats_is_a_fresh_copy(self, calm):
        scheduler = JobScheduler(_cluster(calm))
        stats = scheduler.stats()
        stats["completed"] = 99.0
        assert scheduler.stats()["completed"] == 0.0


class TestBatchedScale:
    """The ROADMAP target: hundreds of queued jobs without churn.

    Parametrized over the queue depth: the 200-job case runs in
    tier-1; the 2000-job case carries ``@pytest.mark.slow`` and runs
    in CI's dedicated slow-tests job (``-m slow``).
    """

    @pytest.fixture(
        scope="class",
        params=[200, pytest.param(2000, marks=pytest.mark.slow)],
    )
    def crowded(self, request):
        """N jobs queued at once under a flash crowd, EDF admission."""
        n_jobs = request.param
        weather = scenario("flash-crowd", seed=7)
        cluster = _cluster(weather, keys=PAIR)
        scheduler = JobScheduler(
            cluster,
            max_concurrent=4,
            admission="deadline-edf",
        )
        tickets = []
        for i in range(n_jobs):
            # Deadlines deliberately scrambled vs. arrival order.
            slo = SLO(deadline_s=600.0 + ((i * 7919) % n_jobs) * 60.0)
            tickets.append(
                scheduler.submit(
                    _small_job(f"crowd-{i}", mb=40.0, keys=PAIR), slo=slo
                )
            )
        cluster.network.sim.run()
        return scheduler, tickets, n_jobs

    def test_all_jobs_complete(self, crowded):
        scheduler, tickets, n_jobs = crowded
        assert len(scheduler.completed) == n_jobs
        assert all(t.result is not None for t in tickets)

    def test_reordering_is_amortized_not_quadratic(self, crowded):
        scheduler, _, n_jobs = crowded
        realloc = scheduler.reallocator
        assert realloc.pops == n_jobs
        # With the default batch, orderings stay a small fraction of
        # admissions (a per-admission re-sort would be n_jobs of them).
        assert realloc.reorders <= n_jobs // 4

    def test_admission_follows_deadlines(self, crowded):
        scheduler, tickets, n_jobs = crowded
        # All jobs were queued simultaneously, so EDF admission should
        # start earlier-deadline jobs earlier on average.  Compare the
        # tightest and loosest quartiles.
        by_deadline = sorted(tickets, key=lambda t: t.slo.deadline_s)
        quarter = n_jobs // 4
        tight_start = sum(t.started_s for t in by_deadline[:quarter]) / quarter
        loose_start = sum(t.started_s for t in by_deadline[-quarter:]) / quarter
        assert tight_start < loose_start

    def test_fairness_index_still_computes(self, crowded):
        scheduler, _, n_jobs = crowded
        stats = scheduler.stats()
        assert 0.0 < stats["fairness"] <= 1.0
        assert stats["completed"] == float(n_jobs)


class TestJainReuse:
    def test_scheduler_and_scheduling_share_one_jain(self):
        from repro.runtime import scheduler as scheduler_module

        assert scheduler_module.jain_index is jain_index
