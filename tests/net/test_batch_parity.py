"""Differential tests: vectorized transfer kernel vs the scalar one.

The vectorized kernel (:mod:`repro.net.batch`) must be a pure
performance substitution — same transfers, same completion times, same
service-level outcomes.  These tests run identical seeded workloads
under ``kernel="scalar"`` and ``kernel="vectorized"`` across the six
named weather scenarios and compare:

* per-transfer completion times (≤ 1e-6 s apart — in practice they are
  bit-identical, because the batched arithmetic mirrors the scalar
  update expression exactly) and the order ``on_complete`` fires in;
* full :class:`~repro.runtime.service.ServiceSummary` job outcomes for
  end-to-end service runs.
"""

import random

import pytest

from repro.net.topology import Topology
from repro.runtime.scenarios import scenario
from repro.runtime.service import ServiceConfig, PipelineService, default_job_mix

TRIAD = ("us-east-1", "us-west-1", "ap-southeast-1")

#: Every named weather scenario plus calm; each gets its own seed so
#: the workloads differ across scenarios too.
SCENARIOS = (
    ("calm", 3),
    ("diurnal", 5),
    ("flash-crowd", 7),
    ("link-degradation", 11),
    ("link-failure", 13),
    ("step-drop", 17),
)

PARITY_S = 1e-6


def _sim(name: str, seed: int, kernel: str):
    from repro.net.simulator import NetworkSimulator

    topology = Topology.build(TRIAD, "t2.medium")
    return NetworkSimulator(
        topology, fluctuation=scenario(name, seed=seed), kernel=kernel
    )


def _run_workload(name: str, seed: int, kernel: str):
    """Run a seeded transfer mix.

    Returns the simulator, the transfers in submission order, and the
    submission indices in the order their ``on_complete`` fired.

    The mix deliberately piles many concurrent transfers onto shared
    pairs (that is the vectorized bucket's hot path) while also
    sprinkling LAN traffic and stragglers submitted mid-run.
    """
    net = _sim(name, seed, kernel)
    rng = random.Random(seed * 1009)
    transfers = []
    completed = []

    def start(src, dst, mbits):
        index = len(transfers)
        transfers.append(
            net.start_transfer(
                src, dst, mbits, on_complete=lambda t: completed.append(index)
            )
        )

    for i in range(40):
        src, dst = rng.sample(TRIAD, 2)
        delay = rng.uniform(0.0, 300.0)
        mbits = rng.uniform(50.0, 4000.0)
        net.sim.schedule(delay, lambda s=src, d=dst, m=mbits: start(s, d, m))
    # LAN traffic shares the batched bucket keyed by VectorKernel.LAN.
    for i in range(6):
        delay = rng.uniform(0.0, 200.0)
        dc = rng.choice(TRIAD)
        mbits = rng.uniform(100.0, 2000.0)
        net.sim.schedule(delay, lambda d=dc, m=mbits: start(d, d, m))
    net.sim.run()
    return net, transfers, completed


class TestTransferParity:
    """Per-transfer completion-time parity, scenario by scenario."""

    @pytest.mark.parametrize(("name", "seed"), SCENARIOS)
    def test_completion_times_match(self, name, seed):
        _, scalar, scalar_order = _run_workload(name, seed, "scalar")
        _, vector, vector_order = _run_workload(name, seed, "vectorized")
        assert len(scalar) == len(vector) == 46
        assert sorted(scalar_order) == list(range(46))
        assert vector_order == scalar_order
        for s, v in zip(scalar, vector):
            assert (s.src, s.dst, s.size_mbits) == (v.src, v.dst, v.size_mbits)
            assert s.finish_time is not None and v.finish_time is not None
            assert abs(s.finish_time - v.finish_time) <= PARITY_S

    @pytest.mark.parametrize(("name", "seed"), SCENARIOS)
    def test_transferred_payloads_match(self, name, seed):
        _, scalar, _ = _run_workload(name, seed, "scalar")
        _, vector, _ = _run_workload(name, seed, "vectorized")
        for s, v in zip(scalar, vector):
            assert s.transferred_mbits == pytest.approx(
                v.transferred_mbits, abs=1e-6
            )

    def test_event_counts_match(self):
        """Both kernels walk the same event sequence, not just end state."""
        scalar_net, *_ = _run_workload("flash-crowd", 7, "scalar")
        vector_net, *_ = _run_workload("flash-crowd", 7, "vectorized")
        assert (
            scalar_net.sim.events_processed
            == vector_net.sim.events_processed
        )
        assert scalar_net.sim.now == pytest.approx(
            vector_net.sim.now, abs=PARITY_S
        )

    def test_mid_run_observations_match(self):
        """rate/matrix queries mid-run agree (they hit different code)."""
        scalar = _sim("diurnal", 5, "scalar")
        vector = _sim("diurnal", 5, "vectorized")
        for net in (scalar, vector):
            for _ in range(5):
                net.start_transfer("us-east-1", "us-west-1", 5000.0)
            for _ in range(4):
                net.start_transfer("us-west-1", "ap-southeast-1", 3000.0)
            net.sim.run(until=10.0)
        pair = ("us-east-1", "us-west-1")
        assert scalar.current_rate(*pair) == pytest.approx(
            vector.current_rate(*pair), rel=1e-9
        )
        srates = [t.rate_mbps for t in scalar.active_transfers()]
        vrates = [t.rate_mbps for t in vector.active_transfers()]
        assert srates == pytest.approx(vrates, rel=1e-9)


def _service_config(kernel: str, **overrides) -> ServiceConfig:
    return ServiceConfig(
        regions=TRIAD,
        seed=29,
        online=True,
        max_concurrent=3,
        kernel=kernel,
        n_training_datasets=4,
        n_estimators=4,
        **overrides,
    )


def _serve(name: str, seed: int, kernel: str) -> PipelineService:
    config = _service_config(kernel)
    service = PipelineService.build(
        config, weather=scenario(name, seed=seed)
    )
    for delay, job in default_job_mix(TRIAD, count=4, seed=7, scale_mb=800.0):
        service.submit_at(delay * 0.3, job)
    service.run()
    service.stop()
    return service


class TestServiceParity:
    """End-to-end service outcomes under both kernels."""

    @pytest.mark.parametrize(("name", "seed"), SCENARIOS)
    def test_summary_outcomes_identical(self, name, seed):
        scalar = _serve(name, seed, "scalar")
        vector = _serve(name, seed, "vectorized")
        s, v = scalar.summary(), vector.summary()
        assert s.completed == v.completed == 4
        assert s.slo_attained == v.slo_attained
        assert s.slo_missed == v.slo_missed
        assert s.replans == v.replans
        assert s.makespan_s == pytest.approx(v.makespan_s, abs=PARITY_S)
        assert s.total_jct_s == pytest.approx(v.total_jct_s, abs=1e-5)
        for st, vt in zip(
            scalar.scheduler.completed, vector.scheduler.completed
        ):
            assert st.job.name == vt.job.name
            assert st.finished_s == pytest.approx(vt.finished_s, abs=PARITY_S)

    def test_summary_reports_kernel(self):
        vector = _serve("calm", 3, "vectorized")
        summary = vector.summary()
        assert summary.kernel == "vectorized"


class TestDefaultsUnchanged:
    """Default config keeps today's exact scheduler and kernel."""

    def test_unknown_kernel_rejected(self, triad):
        from repro.net.simulator import NetworkSimulator

        with pytest.raises(ValueError, match="vectorized"):
            NetworkSimulator(triad, kernel="turbo")

    def test_default_config_is_scalar_single_queue(self):
        from repro.runtime.scheduler import JobScheduler

        config = ServiceConfig(
            regions=TRIAD, seed=29, n_training_datasets=4, n_estimators=4
        )
        assert config.scheduler_shards == 1
        assert config.kernel == "scalar"
        service = PipelineService.build(config)
        assert type(service.scheduler) is JobScheduler
        assert service.network.kernel == "scalar"

    def test_scalar_bucket_keeps_objects_current(self):
        """A crowded scalar bucket never goes array-backed: its transfer
        objects carry live rates and progress without a sync."""
        net = _sim("calm", 3, "scalar")
        transfers = [
            net.start_transfer("us-east-1", "us-west-1", 1e6) for _ in range(5)
        ]
        net.sim.run(until=10.0)
        # pair_statistics advances progress to now; it does not sync.
        stats = net.pair_statistics()[("us-east-1", "us-west-1")]
        share = net.current_rate("us-east-1", "us-west-1") / 5
        assert share > 0
        for transfer in transfers:
            assert transfer.rate_mbps == pytest.approx(share, rel=1e-12)
            assert transfer.transferred_mbits == pytest.approx(stats.mbits / 5)
