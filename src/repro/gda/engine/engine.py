"""The job runner.

Executes a :class:`~repro.gda.engine.dag.JobSpec` on a
:class:`~repro.gda.engine.cluster.GeoCluster` under a placement policy
(:mod:`repro.gda.systems`), with all WAN movement going through the
flow-level network simulator — so shuffle durations, the observed
minimum cluster BW, and egress volumes come out of the same contention
model WANify's agents act on.

Execution model per stage (see DESIGN.md):

1. *(before stage 1 only)* the policy may migrate input between DCs —
   the "input data migration, which is slow and costly" of §2.2 — using
   whatever BW matrix it was given for decisions;
2. the policy chooses per-DC placement fractions for the stage;
3. shuffle stages move ``data_at_src × fraction_dst`` for every ordered
   pair concurrently; the stage's network time is the makespan;
4. each DC then processes its received volume across its task slots;
   the stage's compute time is the slowest DC (barrier semantics);
5. stage output is ``input × output_ratio``, located per the placement.

The *decision* BW matrix is deliberately separate from the *actual*
network: feeding static-independent BWs here while the simulator
enforces runtime contention is exactly the sub-optimality mechanism the
paper demonstrates (§2.2, Table 4).

:class:`JobRun` implements that model once, as a callback-driven state
machine (transfer batches advance it from their completion callbacks,
compute phases are scheduled events), so any number of runs interleave
on one shared :class:`~repro.sim.kernel.Simulator`.
:class:`GdaEngine` drives a single run on a network it owns; the
runtime's scheduler drives many against the same contended WAN, which
is why a run also accepts a ``decision_bw`` *callable* re-read at every
placement (a mid-job re-plan reaches later stages), counts its own WAN
volume, and can :meth:`~JobRun.pause` into a :class:`JobCheckpoint`
that a new run resumes from — the control plane's preemption
primitive.  Work inside the interrupted phase is redone on resume;
that lost progress is the preemption cost ``cost-aware`` weighs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.gda.engine.cluster import GeoCluster
from repro.gda.engine.cost import CostBreakdown, job_cost
from repro.gda.engine.dag import JobSpec, StageSpec
from repro.net.matrix import BandwidthMatrix
from repro.pipeline.deploy import Deployment

if TYPE_CHECKING:
    from repro.gda.systems.base import PlacementPolicy

#: Transfers below this volume are dropped (numerical dust from
#: fractional placements).
MIN_TRANSFER_MB = 1e-6

#: Spark shuffle amplification: the bytes that actually cross the WAN
#: per logical shuffle byte.  Covers spill re-reads, fetch protocol
#: overhead, retries, and wave serialization — the reasons a real Spark
#: shuffle moves data far slower than a raw iPerf stream.  Applied to
#: shuffle transfers only (bulk input migration is an efficient
#: distcp-style copy).
SHUFFLE_OVERHEAD = 4.0


@dataclass
class StageMetrics:
    """Timings and movement for one executed stage."""

    name: str
    network_s: float = 0.0
    compute_s: float = 0.0
    moved_mb: float = 0.0
    placement: dict[str, float] = field(default_factory=dict)


@dataclass
class JobResult:
    """Everything the evaluation reads off a finished query."""

    job_name: str
    system_name: str
    jct_s: float
    cost: CostBreakdown
    min_bw_mbps: float
    wan_gb: float
    stages: list[StageMetrics] = field(default_factory=list)
    migration_s: float = 0.0
    migration_mb: float = 0.0

    @property
    def jct_minutes(self) -> float:
        """JCT in minutes (the unit of Figs. 5–8)."""
        return self.jct_s / 60.0

    @property
    def network_s(self) -> float:
        """Total time spent in WAN phases."""
        return self.migration_s + sum(s.network_s for s in self.stages)

    @property
    def compute_s(self) -> float:
        """Total time spent in compute phases."""
        return sum(s.compute_s for s in self.stages)


#: ``decision_bw`` forms a run accepts: a fixed matrix, a provider
#: re-read per stage, or nothing (policies fall back to static logic).
DecisionBw = Union[
    BandwidthMatrix, Callable[[], Optional[BandwidthMatrix]], None
]


def wan_mb_ahead(
    stages: list[StageSpec], total_mb: float, shuffle_overhead: float
) -> float:
    """Projected WAN volume (MB) of pushing ``total_mb`` through ``stages``.

    Each shuffle stage moves the then-current data volume (overhead
    included) and every stage shrinks it by its ``output_ratio``.
    Placement locality is ignored — this is the planning heuristic
    behind :meth:`JobRun.remaining_wan_mb` and the control plane's
    slack estimates, not an exact forecast.  The single definition
    keeps those estimators consistent.
    """
    volume = 0.0
    for stage in stages:
        if stage.shuffle:
            volume += total_mb * shuffle_overhead
        total_mb *= stage.output_ratio
    return volume


@dataclass(frozen=True)
class JobCheckpoint:
    """Completed-stage state of a paused run, enough to resume from.

    Captures the phase *boundary* the run last crossed: the interrupted
    phase's entry data distribution, the metrics of every fully
    completed stage, and the WAN/migration accounting accumulated so
    far.  Progress inside the interrupted phase (cancelled transfers,
    the unfinished compute timer) is deliberately absent — it is redone
    on resume, which is the preemption cost.
    """

    #: Index of the stage the run was in when paused (the resume point).
    stage_index: int
    #: Whether the input-migration phase had completed; when ``False``
    #: the resumed run re-plans migration from ``data`` — under the
    #: *current* decision matrix, so a resume after a re-plan migrates
    #: to the fresh view of the network.
    migrated: bool
    #: Data distribution (MB per DC) at the interrupted phase's entry.
    data: dict[str, float]
    #: Metrics of stages completed before the pause.
    stages: tuple[StageMetrics, ...]
    #: WAN megabits carried by *completed* transfers before the pause.
    wan_mbits: float
    migration_s: float
    migration_mb: float


class GdaEngine:
    """Runs jobs on a cluster under a placement policy."""

    def __init__(
        self, cluster: GeoCluster, shuffle_overhead: float = SHUFFLE_OVERHEAD
    ) -> None:
        if shuffle_overhead < 1.0:
            raise ValueError(
                f"shuffle overhead must be ≥ 1: {shuffle_overhead}"
            )
        self.cluster = cluster
        self.shuffle_overhead = shuffle_overhead

    def run(
        self,
        job: JobSpec,
        policy: "PlacementPolicy",
        decision_bw: Optional[BandwidthMatrix] = None,
        deployment: Optional[Deployment] = None,
        reset: bool = True,
    ) -> JobResult:
        """Execute ``job`` and return its metrics.

        ``decision_bw`` is what the policy *believes* about the network
        (static, simultaneous, or predicted); ``deployment`` optionally
        installs WANify's connection plan/agents/throttles first, and is
        torn down again however the run ends.  Pass ``reset=False``
        when the caller has already prepared the network (e.g.
        installed a deployment manually for instrumentation).

        WAN volume and cost come from the network's counter, which
        this run owns since the reset (:attr:`JobRun.wan_mbits` sums
        the same transfers in another float order).
        """
        network = self.cluster.network
        sim = network.sim
        if reset:
            self._reset_network()
        if deployment is not None:
            deployment.install(network)
        try:
            run = JobRun(
                self.cluster, job, policy, decision_bw, self.shuffle_overhead
            ).start()
            while not run.done:
                if not sim.step():
                    raise RuntimeError(
                        f"simulation stalled before job {job.name!r} finished"
                    )
            wan_mbits = network.total_wan_mbits()
            return replace(
                run.result,
                cost=job_cost(
                    self.cluster, run.result.jct_s, wan_mbits,
                    job.total_input_mb,
                ),
                wan_gb=wan_mbits / 8.0 / 1024.0,
            )
        finally:
            if deployment is not None:
                deployment.teardown(network)

    def _reset_network(self) -> None:
        network = self.cluster.network
        network.reset_statistics()
        network.tc.clear_all()
        network.set_connection_plan(
            BandwidthMatrix.full(self.cluster.keys, 1.0)
        )


class JobRun:
    """One job advancing through its stages via simulator callbacks."""

    def __init__(
        self,
        cluster: GeoCluster,
        job: JobSpec,
        policy: "PlacementPolicy",
        decision_bw: DecisionBw = None,
        shuffle_overhead: float = SHUFFLE_OVERHEAD,
        on_finish: Optional[Callable[[JobResult], None]] = None,
        resume_from: Optional[JobCheckpoint] = None,
    ) -> None:
        if shuffle_overhead < 1.0:
            raise ValueError(
                f"shuffle overhead must be ≥ 1: {shuffle_overhead}"
            )
        self.cluster = cluster
        self.job = job
        self.policy = policy
        self._decision_bw = decision_bw
        self.shuffle_overhead = shuffle_overhead
        self.on_finish = on_finish
        self.result: Optional[JobResult] = None
        self.started = False
        self.paused = False
        self.wan_mbits = 0.0
        #: WAN volume inherited from the checkpoint (0 for fresh runs).
        self._carried_wan_mbits = (
            resume_from.wan_mbits if resume_from is not None else 0.0
        )
        self._resume = resume_from
        self._t0 = 0.0
        self._data: dict[str, float] = {}
        self._stages: list[StageMetrics] = []
        self._migration_s = 0.0
        self._migration_mb = 0.0
        self._migrated = False
        self._stage_index = 0
        #: Data distribution at the current phase's entry — what a
        #: checkpoint records, since mid-phase progress is not resumable.
        self._entry_data: dict[str, float] = {}
        #: Transfers currently in flight (cancelled wholesale on pause).
        self._inflight: list = []
        #: The pending advance event (compute timer / empty-batch hop).
        self._pending_event = None
        self._phase_started_s = 0.0

    @property
    def done(self) -> bool:
        """Whether the job has produced its result."""
        return self.result is not None

    @property
    def stage_index(self) -> int:
        """Index of the stage currently executing."""
        return self._stage_index

    @property
    def elapsed_s(self) -> float:
        """Seconds since this run started (the resumed slice only)."""
        if not self.started:
            return 0.0
        return self.cluster.network.sim.now - self._t0

    @property
    def slice_wan_mbits(self) -> float:
        """WAN megabits moved by *this* run slice (checkpoint carryover
        excluded) — the numerator matching :attr:`elapsed_s`, so
        throughput estimates for resumed runs stay honest."""
        return self.wan_mbits - self._carried_wan_mbits

    @property
    def phase_elapsed_s(self) -> float:
        """Seconds spent inside the current phase — the work a pause
        right now would throw away."""
        if not self.started or self.done:
            return 0.0
        return self.cluster.network.sim.now - self._phase_started_s

    def remaining_wan_mb(self) -> float:
        """Crude WAN volume still ahead of this run (MB).

        :func:`wan_mb_ahead` over the remaining stages, seeded with
        the current phase-entry volume.
        """
        return wan_mb_ahead(
            self.job.stages[self._stage_index:],
            sum(self._entry_data.values()),
            self.shuffle_overhead,
        )

    @property
    def wan_mb(self) -> float:
        """WAN volume (MB) this run's transfers have carried so far.

        Live during execution — the fair-share admission policy reads
        it to count in-flight service, not just completed jobs.
        """
        return self.wan_mbits / 8.0

    def decision_bw(self) -> Optional[BandwidthMatrix]:
        """The policy's current belief about the network."""
        if callable(self._decision_bw):
            return self._decision_bw()
        return self._decision_bw

    # -- state machine --------------------------------------------------

    def start(self) -> "JobRun":
        """Begin executing; returns immediately, completion is async.

        With ``resume_from`` set, execution restarts from the
        checkpoint instead of the job's raw inputs: completed stages
        and WAN accounting carry over, and the interrupted phase runs
        again from its entry state (re-planned against the *current*
        decision matrix — a resume after a service re-plan effectively
        migrates the job to the fresh backend plan).
        """
        if self.started:
            raise RuntimeError(f"job {self.job.name!r} already started")
        self.started = True
        sim = self.cluster.network.sim
        self._t0 = sim.now
        self._phase_started_s = sim.now
        if self._resume is not None:
            self._data = dict(self._resume.data)
            for dc in self._data:
                self.cluster.topology.index(dc)
            self._entry_data = dict(self._data)
            self._stages = list(self._resume.stages)
            self.wan_mbits = self._resume.wan_mbits
            self._migration_s = self._resume.migration_s
            self._migration_mb = self._resume.migration_mb
            if self._resume.migrated:
                self._migrated = True
                self._begin_stage(self._resume.stage_index)
                return self
            # Interrupted during migration: fall through and re-plan
            # the move from the checkpointed distribution.
        else:
            self._data = {
                dc: float(mb)
                for dc, mb in self.job.input_mb_by_dc.items()
                if mb > 0
            }
            for dc in self._data:
                self.cluster.topology.index(dc)
        self._entry_data = dict(self._data)
        migration = self.policy.plan_migration(
            self._data,
            self.decision_bw(),
            self.cluster,
            shuffle_mb=self.job.intermediate_mb(),
        )
        transfers = []
        for src, dst, mb in migration:
            if mb <= MIN_TRANSFER_MB or src == dst:
                continue
            transfers.append((src, dst, mb))
            self._data[src] = self._data.get(src, 0.0) - mb
            self._data[dst] = self._data.get(dst, 0.0) + mb
            self._migration_mb += mb
        migration_start = sim.now

        def migrated() -> None:
            """Record migration time, then enter the first stage."""
            self._migration_s += sim.now - migration_start
            self._migrated = True
            self._begin_stage(0)

        self._launch(transfers, "migration", migrated)
        return self

    def pause(self) -> JobCheckpoint:
        """Stop executing and checkpoint the completed-stage state.

        Cancels every in-flight transfer and the pending compute event;
        ``on_finish`` never fires for a paused run.  The returned
        checkpoint feeds a fresh ``JobRun(..., resume_from=...)`` —
        this run itself is finished with.  Progress inside the
        interrupted phase is discarded (cancelled transfer bytes are
        not re-credited), which is the preemption cost.
        """
        if not self.started:
            raise RuntimeError(f"job {self.job.name!r} never started")
        if self.done:
            raise RuntimeError(f"job {self.job.name!r} already finished")
        if self.paused:
            raise RuntimeError(f"job {self.job.name!r} already paused")
        self.paused = True
        network = self.cluster.network
        for transfer in list(self._inflight):
            network.cancel_transfer(transfer)
        self._inflight.clear()
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        return JobCheckpoint(
            stage_index=self._stage_index,
            migrated=self._migrated,
            data=dict(self._entry_data),
            stages=tuple(self._stages),
            wan_mbits=self.wan_mbits,
            migration_s=self._migration_s,
            migration_mb=self._migration_mb,
        )

    def _begin_stage(self, index: int) -> None:
        if self.paused:
            return
        if index >= len(self.job.stages):
            self._finish()
            return
        self._stage_index = index
        self._entry_data = dict(self._data)
        self._phase_started_s = self.cluster.network.sim.now
        stage = self.job.stages[index]
        metrics = StageMetrics(stage.name)
        sim = self.cluster.network.sim
        if stage.shuffle:
            placement = self.policy.place_stage(
                stage, self._data, self.decision_bw(), self.cluster
            )
            validate_placement(placement, self.cluster.keys)
            transfers = []
            arriving = {dc: 0.0 for dc in self.cluster.keys}
            for src, mb in self._data.items():
                for dst, frac in placement.items():
                    volume = mb * frac
                    if volume <= MIN_TRANSFER_MB:
                        continue
                    arriving[dst] += volume
                    if src != dst:
                        transfers.append(
                            (src, dst, volume * self.shuffle_overhead)
                        )
            metrics.moved_mb = sum(
                mb for _, _, mb in transfers
            ) / self.shuffle_overhead
            metrics.placement = dict(placement)
            start = sim.now

            def shuffled() -> None:
                metrics.network_s = sim.now - start
                self._compute(index, stage, metrics, arriving)

            self._launch(transfers, stage.name, shuffled)
        else:
            arriving = dict(self._data)
            total = sum(arriving.values())
            metrics.placement = {
                dc: (mb / total if total > 0 else 0.0)
                for dc, mb in arriving.items()
            }
            self._compute(index, stage, metrics, arriving)

    def _compute(
        self,
        index: int,
        stage: StageSpec,
        metrics: StageMetrics,
        arriving: dict[str, float],
    ) -> None:
        sim = self.cluster.network.sim
        compute_s = max(
            (
                self.cluster.compute_seconds(dc, mb, stage.cpu_s_per_mb)
                for dc, mb in arriving.items()
                if mb > 0
            ),
            default=0.0,
        )
        metrics.compute_s = compute_s

        def computed() -> None:
            """Close this stage's books and advance to the next."""
            if self.paused:
                return
            self._pending_event = None
            self._stages.append(metrics)
            self._data = {
                dc: mb * stage.output_ratio
                for dc, mb in arriving.items()
                if mb * stage.output_ratio > 0
            }
            self._begin_stage(index + 1)

        self._pending_event = sim.schedule(compute_s, computed)

    def _launch(
        self,
        transfers: list[tuple[str, str, float]],
        tag: str,
        then: Callable[[], None],
    ) -> None:
        """Start a batch of transfers; call ``then`` when all finish."""
        network = self.cluster.network
        if not transfers:
            # Keep the advance asynchronous even for empty batches so
            # stage ordering is uniform (and recursion stays bounded).
            def hop() -> None:
                if self.paused:
                    return
                self._pending_event = None
                then()

            self._pending_event = network.sim.schedule(0.0, hop)
            return
        pending = [len(transfers)]

        def done(transfer) -> None:
            """Tally one finished transfer; fire ``then`` on the last."""
            if self.paused:
                return
            self.wan_mbits += transfer.size_mbits
            if transfer in self._inflight:
                self._inflight.remove(transfer)
            pending[0] -= 1
            if pending[0] == 0:
                then()

        for src, dst, mb in transfers:
            self._inflight.append(
                network.start_transfer(
                    src,
                    dst,
                    mb * 8.0,
                    on_complete=done,
                    tag=f"{self.job.name}:{tag}",
                )
            )

    def _finish(self) -> None:
        network = self.cluster.network
        jct_s = network.sim.now - self._t0
        self.result = JobResult(
            job_name=self.job.name,
            system_name=self.policy.name,
            jct_s=jct_s,
            cost=job_cost(
                self.cluster, jct_s, self.wan_mbits,
                self.job.total_input_mb,
            ),
            # Cluster-wide floor since service start: with concurrent
            # jobs there is no per-job exclusive window to average over.
            min_bw_mbps=network.min_observed_bw(),
            wan_gb=self.wan_mbits / 8.0 / 1024.0,
            stages=self._stages,
            migration_s=self._migration_s,
            migration_mb=self._migration_mb,
        )
        if self.on_finish is not None:
            self.on_finish(self.result)


def validate_placement(
    placement: dict[str, float], keys: tuple[str, ...]
) -> None:
    unknown = set(placement) - set(keys)
    if unknown:
        raise ValueError(f"placement references unknown DCs: {unknown}")
    total = sum(placement.values())
    if not 0.999 <= total <= 1.001:
        raise ValueError(f"placement fractions sum to {total}, expected 1")
    if any(f < -1e-9 for f in placement.values()):
        raise ValueError(f"negative placement fraction: {placement}")
