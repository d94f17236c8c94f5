"""The blocking ``GdaEngine``, kept as the oracle for ``repro.gda.engine``.

This is the job runner that pumped the simulator itself: it ran input
migration, then each stage (placement, shuffle transfers, compute) in a
blocking loop, ``sim.step()`` until every transfer batch drained and
``sim.run(until=…)`` over each compute phase.  ``GdaEngine.run`` now
drives the event-driven ``JobRun`` instead, and
``test_engine_oracle.py`` requires every result field and the final
simulation clock to equal this one's, bit for bit.  The class is copied
unchanged; do not edit it to follow ``repro.gda.engine``.
"""

from __future__ import annotations

from typing import Optional

from repro.gda.engine.cluster import GeoCluster
from repro.gda.engine.cost import job_cost
from repro.gda.engine.dag import StageSpec, JobSpec
from repro.gda.engine.engine import (
    MIN_TRANSFER_MB,
    SHUFFLE_OVERHEAD,
    JobResult,
    StageMetrics,
    validate_placement,
)
from repro.net.matrix import BandwidthMatrix
from repro.pipeline.deploy import Deployment


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
