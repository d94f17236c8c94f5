"""Differential tests: vectorized transfer kernel vs the scalar one.

The vectorized kernel (:mod:`repro.net.batch`) must be a pure
performance substitution: both kernels solve rates with the one
max-min solver and the array buckets mirror the per-object arithmetic
operation for operation, so the two runs are bit-identical.  These
tests run identical seeded workloads under ``kernel="scalar"`` and
``kernel="vectorized"`` across the six named weather scenarios and
compare, as packed doubles:

* per-transfer completion times and delivered payloads, and the order
  ``on_complete`` fires in;
* the whole :meth:`~repro.runtime.summary.ServiceSummary.to_row` and
  every job's finish time for end-to-end service runs.

The seeded mix rarely puts more than a handful of transfers on one
pair, which stays below :data:`~repro.net.batch.SMALL_BUCKET`; the
crowded case piles two waves of 80 onto one pair and spies on the
bucket to show the arrays were built and dropped mid-run.
"""

import random
import struct

import pytest

from repro.net.batch import SMALL_BUCKET, _Bucket
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


def _packed(values):
    """``values`` as packed IEEE doubles, so equality is bit equality."""
    return [struct.pack("<d", value) for value in values]


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
        assert _packed(t.finish_time for t in scalar) == _packed(
            t.finish_time for t in vector
        )

    @pytest.mark.parametrize(("name", "seed"), SCENARIOS)
    def test_transferred_payloads_match(self, name, seed):
        _, scalar, _ = _run_workload(name, seed, "scalar")
        _, vector, _ = _run_workload(name, seed, "vectorized")
        assert _packed(t.transferred_mbits for t in scalar) == _packed(
            t.transferred_mbits for t in vector
        )

    def test_completed_transfers_report_full_payload(self):
        """An array bucket writes its progress back on removal, up to
        the finish slop short; completion must still report the size."""
        _, transfers, completed = _run_workload("diurnal", 5, "vectorized")
        assert len(completed) == 46
        for index in completed:
            transfer = transfers[index]
            assert transfer.transferred_mbits == transfer.size_mbits, index

    def test_event_counts_match(self):
        """Both kernels walk the same event sequence, not just end state."""
        scalar_net, *_ = _run_workload("flash-crowd", 7, "scalar")
        vector_net, *_ = _run_workload("flash-crowd", 7, "vectorized")
        assert (
            scalar_net.sim.events_processed
            == vector_net.sim.events_processed
        )
        assert _packed([scalar_net.sim.now]) == _packed([vector_net.sim.now])

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
        assert _packed([scalar.current_rate(*pair)]) == _packed(
            [vector.current_rate(*pair)]
        )
        srates = [t.rate_mbps for t in scalar.active_transfers()]
        vrates = [t.rate_mbps for t in vector.active_transfers()]
        assert _packed(srates) == _packed(vrates)


#: The crowded pair: every wave piles onto it.
CROWDED = ("us-east-1", "us-west-1")

#: Scenarios the crowded case runs under (calm, a capacity loss and a
#: transient crunch).
CROWDED_SCENARIOS = (("calm", 3), ("link-failure", 13), ("flash-crowd", 7))


class _BucketSpy:
    """Counts array builds and drops, and the largest bucket population."""

    def __init__(self, monkeypatch) -> None:
        self.builds = []
        self.drops = 0
        self.peak = 0
        build, drop, add = _Bucket._build_arrays, _Bucket._drop_arrays, _Bucket.add

        def spy_build(bucket):
            self.builds.append(len(bucket.transfers))
            build(bucket)

        def spy_drop(bucket):
            self.drops += 1
            drop(bucket)

        def spy_add(bucket, transfer):
            add(bucket, transfer)
            self.peak = max(self.peak, len(bucket.transfers))

        monkeypatch.setattr(_Bucket, "_build_arrays", spy_build)
        monkeypatch.setattr(_Bucket, "_drop_arrays", spy_drop)
        monkeypatch.setattr(_Bucket, "add", spy_add)


def _run_crowded(name: str, seed: int, kernel: str):
    """Two waves of 80 transfers on one pair, plus stragglers.

    Each wave arrives within 10 s and takes about 100 s to drain, so
    the pair's bucket climbs past ``2 × SMALL_BUCKET`` and falls back
    below ``SMALL_BUCKET`` twice in one run.
    """
    net = _sim(name, seed, kernel)
    rng = random.Random(seed * 7919)
    transfers = []
    completed = []

    def start(src, dst, mbits):
        index = len(transfers)
        transfers.append(
            net.start_transfer(
                src, dst, mbits, on_complete=lambda t: completed.append(index)
            )
        )

    for wave in (0.0, 400.0):
        for _ in range(80):
            delay = wave + rng.uniform(0.0, 10.0)
            mbits = rng.uniform(200.0, 3000.0)
            net.sim.schedule(delay, lambda m=mbits: start(*CROWDED, m))
    for _ in range(10):
        delay = rng.uniform(0.0, 600.0)
        src, dst = rng.sample(TRIAD, 2)
        mbits = rng.uniform(100.0, 1500.0)
        net.sim.schedule(delay, lambda s=src, d=dst, m=mbits: start(s, d, m))
    net.sim.run()
    return transfers, completed


class TestCrowdedPairParity:
    """A bucket that crosses the array threshold both ways mid-run."""

    @pytest.mark.parametrize(("name", "seed"), CROWDED_SCENARIOS)
    def test_crowded_pair_matches_scalar(self, name, seed, monkeypatch):
        scalar_spy = _BucketSpy(monkeypatch)
        scalar, scalar_order = _run_crowded(name, seed, "scalar")
        assert scalar_spy.builds == []
        vector_spy = _BucketSpy(monkeypatch)
        vector, vector_order = _run_crowded(name, seed, "vectorized")
        # The arrays were really built, each time the population first
        # passed the threshold, and dropped again on the way down.
        assert vector_spy.peak > 2 * SMALL_BUCKET
        assert vector_spy.builds == [SMALL_BUCKET + 1] * 2
        assert vector_spy.drops == 2
        assert len(scalar) == len(vector) == 170
        assert sorted(scalar_order) == list(range(170))
        assert vector_order == scalar_order
        assert _packed(t.finish_time for t in scalar) == _packed(
            t.finish_time for t in vector
        )
        assert _packed(t.transferred_mbits for t in scalar) == _packed(
            t.transferred_mbits for t in vector
        )


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
        s, v = scalar.summary().to_row(), vector.summary().to_row()
        assert s["completed"] == 4
        assert dict(zip(s, _packed(s.values()))) == dict(
            zip(v, _packed(v.values()))
        )
        s_jobs, v_jobs = scalar.scheduler.completed, vector.scheduler.completed
        assert [t.job.name for t in s_jobs] == [t.job.name for t in v_jobs]
        assert _packed(t.finished_s for t in s_jobs) == _packed(
            t.finished_s for t in v_jobs
        )

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
