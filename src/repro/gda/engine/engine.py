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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.gda.engine.cluster import GeoCluster
from repro.gda.engine.cost import CostBreakdown, job_cost
from repro.gda.engine.dag import JobSpec, StageSpec
from repro.net.matrix import BandwidthMatrix
from repro.pipeline.deploy import Deployment

#: Transfers below this volume are dropped (numerical dust from
#: fractional placements).  Shared with the runtime executor.
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
        installs WANify's connection plan/agents/throttles first.  Pass
        ``reset=False`` when the caller has already prepared the network
        (e.g. installed a deployment manually for instrumentation).
        """
        network = self.cluster.network
        sim = network.sim
        if reset:
            self._reset_network()
        if deployment is not None:
            deployment.install(network)
        t0 = sim.now

        data = {
            dc: float(mb)
            for dc, mb in job.input_mb_by_dc.items()
            if mb > 0
        }
        for dc in data:
            self.cluster.topology.index(dc)  # validate keys early

        # Input migration (policy decision, billed as part of the query).
        migration = policy.plan_migration(
            data, decision_bw, self.cluster, shuffle_mb=job.intermediate_mb()
        )
        migration_mb = 0.0
        migration_start = sim.now
        if migration:
            transfers = []
            for src, dst, mb in migration:
                if mb <= MIN_TRANSFER_MB or src == dst:
                    continue
                transfers.append((src, dst, mb))
                data[src] = data.get(src, 0.0) - mb
                data[dst] = data.get(dst, 0.0) + mb
                migration_mb += mb
            self._execute_transfers(transfers, tag="migration")
        migration_s = sim.now - migration_start

        stages: list[StageMetrics] = []
        for stage in job.stages:
            stages.append(self._run_stage(stage, data, policy, decision_bw))

        jct_s = sim.now - t0
        wan_mbits = network.total_wan_mbits()
        min_bw = network.min_observed_bw()
        cost = job_cost(
            self.cluster, jct_s, wan_mbits, job.total_input_mb
        )
        if deployment is not None:
            deployment.teardown(network)
        return JobResult(
            job_name=job.name,
            system_name=policy.name,
            jct_s=jct_s,
            cost=cost,
            min_bw_mbps=min_bw,
            wan_gb=wan_mbits / 8.0 / 1024.0,
            stages=stages,
            migration_s=migration_s,
            migration_mb=migration_mb,
        )

    # ------------------------------------------------------------------

    def _reset_network(self) -> None:
        network = self.cluster.network
        network.reset_statistics()
        network.tc.clear_all()
        network.set_connection_plan(
            BandwidthMatrix.full(self.cluster.keys, 1.0)
        )

    def _run_stage(
        self,
        stage: StageSpec,
        data: dict[str, float],
        policy: "PlacementPolicy",
        decision_bw: Optional[BandwidthMatrix],
    ) -> StageMetrics:
        sim = self.cluster.network.sim
        metrics = StageMetrics(stage.name)

        if stage.shuffle:
            placement = policy.place_stage(
                stage, data, decision_bw, self.cluster
            )
            validate_placement(placement, self.cluster.keys)
            transfers = []
            arriving = {dc: 0.0 for dc in self.cluster.keys}
            for src, mb in data.items():
                for dst, frac in placement.items():
                    volume = mb * frac
                    if volume <= MIN_TRANSFER_MB:
                        continue
                    arriving[dst] += volume
                    if src != dst:
                        transfers.append(
                            (src, dst, volume * self.shuffle_overhead)
                        )
            start = sim.now
            metrics.moved_mb = sum(
                v for _, _, v in transfers
            ) / self.shuffle_overhead
            self._execute_transfers(transfers, tag=stage.name)
            metrics.network_s = sim.now - start
            metrics.placement = dict(placement)
        else:
            # In-place stage: compute where the data lives.
            arriving = dict(data)
            total = sum(arriving.values())
            metrics.placement = {
                dc: (mb / total if total > 0 else 0.0)
                for dc, mb in arriving.items()
            }

        compute_s = max(
            (
                self.cluster.compute_seconds(dc, mb, stage.cpu_s_per_mb)
                for dc, mb in arriving.items()
                if mb > 0
            ),
            default=0.0,
        )
        if compute_s > 0:
            sim.run(until=sim.now + compute_s)
        metrics.compute_s = compute_s

        data.clear()
        for dc, mb in arriving.items():
            out = mb * stage.output_ratio
            if out > 0:
                data[dc] = out
        return metrics

    def _execute_transfers(
        self, transfers: list[tuple[str, str, float]], tag: str
    ) -> None:
        """Start all transfers concurrently and wait for completion."""
        if not transfers:
            return
        network = self.cluster.network
        sim = network.sim
        pending = [0]

        def done(_transfer) -> None:
            pending[0] -= 1

        for src, dst, mb in transfers:
            pending[0] += 1
            network.start_transfer(src, dst, mb * 8.0, on_complete=done, tag=tag)
        while pending[0] > 0:
            if not sim.step():
                raise RuntimeError(
                    f"simulation stalled with {pending[0]} transfers pending"
                )


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
