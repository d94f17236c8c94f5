"""The WANify runtime service: gauge → plan → watch → re-plan, forever.

:class:`PipelineService` owns one
:class:`~repro.gda.engine.cluster.GeoCluster` and a composed
:class:`~repro.pipeline.core.Pipeline`, and keeps the control loop
running while the :class:`~repro.runtime.scheduler.JobScheduler`
admits and executes jobs:

1. **gauge** — snapshot the live network (through the pipeline's
   :class:`~repro.pipeline.stages.Gauger` stage) and predict stable
   runtime BWs with the trained model (the paper's online module);
2. **plan** — build the configured deployment *variant* through the
   variant registry (``wanify-tc`` by default: global optimizer + AIMD
   agents + throttling); agents publish their monitor samples to the
   shared :class:`~repro.runtime.telemetry.TelemetryStore`;
3. **watch** — a periodic :class:`~repro.runtime.drift.DriftDetector`
   check compares telemetry capacity estimates with the prediction;
4. **re-plan** — on a fired event the service re-gauges, rebuilds the
   deployment, and swaps the scheduler's decision matrix so *later
   stages of running jobs* place work against the fresh view.

``online=False`` freezes the loop after the initial plan — the static
baseline the online-vs-static experiment compares against.

When the config enables any control-plane feature (``preemption``
other than ``"none"``, ``governor``, or ``autoscale``) the service
also runs a :class:`~repro.runtime.control.plane.ControlPlane` tick
alongside the drift watcher: preempting slack-rich runs for
deadline-critical queued jobs, shifting WAN share between running
jobs, and autoscaling ``max_concurrent`` — see docs/OPERATIONS.md.

Training uses the *base* weather (normal conditions); the cluster runs
the *scenario* weather.  The divergence between the two is precisely
what the drift detector exists to catch.

Every service knob — including the pipeline's ``variant`` and the
scheduler's default placement ``policy`` — lives in
:class:`~repro.pipeline.config.ServiceConfig`, resolvable through the
layered config system from code, files, env vars, or the CLI.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.gda.engine.cluster import GeoCluster
from repro.gda.engine.dag import JobSpec
from repro.net.matrix import BandwidthMatrix
from repro.pipeline.config import ServiceConfig
from repro.pipeline.core import Pipeline
from repro.pipeline.deploy import Deployment
from repro.runtime.control.plane import ControlPlane
from repro.runtime.drift import DriftDetector, ReplanEvent
from repro.runtime.observability.hub import ObservabilityHub
from repro.runtime.recalibrator import RECAL_INTERVAL_S, CapacityRecalibrator
from repro.runtime.scenarios import service_cluster
from repro.runtime.scheduler import JobScheduler, JobTicket, PolicySpec, scheduler_args
from repro.runtime.scheduling import SLO, spread_slos
from repro.runtime.scheduling.shards import ShardedScheduler
from repro.runtime.summary import ServiceSummary
from repro.runtime.telemetry import TelemetryStore
from repro.sim.kernel import Process
from repro.core.agent import LocalAgent

import numpy as np

if TYPE_CHECKING:
    from repro.runtime.scheduling.parallel import Entry

__all__ = [
    "PipelineService",
    "ServiceConfig",
    "ServiceSummary",
    "default_job_mix",
]

#: Sliding window (s) of the shared telemetry store.  Shorter than the
#: 300 s weather grid on purpose: the drift detector's median over this
#: window is the re-plan trigger, and detection latency is about half
#: the window for a persistent drop.
TELEMETRY_WINDOW_S = 120.0

#: Period (s) of the drift check that compares telemetry with the
#: prediction while the service runs online.
CHECK_INTERVAL_S = 30.0


class PipelineService:
    """Long-running multi-job WANify over one shared cluster.

    Built on a :class:`~repro.pipeline.core.Pipeline`: the service's
    gauge/predict/plan steps are the pipeline's stages, and the
    deployment each (re-)plan installs comes from the configured
    variant's registered strategy.
    """

    def __init__(
        self,
        cluster: GeoCluster,
        pipeline: Pipeline,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.cluster = cluster
        self.pipeline = pipeline
        self.config = config if config is not None else ServiceConfig()
        # With observability on, the hub's metrics log reads every sample here.
        self.telemetry = TelemetryStore(TELEMETRY_WINDOW_S, keep_all=self.config.observability)
        # Telemetry handoff: a gauger that can consume the shared store
        # (the passive-telemetry alternate) gets it before first gauge.
        binder = getattr(self.pipeline.gauger, "bind_telemetry", None)
        if callable(binder):
            binder(self.telemetry)
        scheduler_kwargs = dict(
            scheduler_args(self.config), decision_bw=lambda: self.predicted
        )
        # scheduler_shards == 1 constructs the plain JobScheduler, not
        # a one-shard ShardedScheduler: the default must stay
        # byte-identical to the pre-sharding service.  Any other count
        # goes to ShardedScheduler, which rejects counts below 1.
        if self.config.scheduler_shards != 1:
            self.scheduler = ShardedScheduler(
                cluster,
                shards=self.config.scheduler_shards,
                **scheduler_kwargs,
            )
        else:
            self.scheduler = JobScheduler(cluster, **scheduler_kwargs)
        self.predicted: Optional[BandwidthMatrix] = None
        self.deployment: Optional[Deployment] = None
        self.detector: Optional[DriftDetector] = None
        self.control: Optional[ControlPlane] = None
        self.hub: Optional[ObservabilityHub] = None
        self.recalibrator: Optional[CapacityRecalibrator] = None
        self.replans: list[ReplanEvent] = []
        self._drift_process: Optional[Process] = None
        self._recal_process: Optional[Process] = None
        self._started = False
        #: State of the last :meth:`drain_parallel` (``None`` until one
        #: runs): the merged statistics row, the worker count actually
        #: used, whether the pool degraded to serial, and the
        #: wall-clock seconds the drain took.
        self.parallel_stats: Optional[dict[str, float]] = None
        self.parallel_records: list = []
        self.parallel_workers = 0
        self.parallel_fell_back = False
        self.parallel_wall_s = 0.0

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        config: Optional[ServiceConfig] = None,
        weather: Optional[object] = None,
        pipeline: Optional[Pipeline] = None,
    ) -> "PipelineService":
        """Build, train, and start a service from a config.

        The prediction model trains on the profile's *base* weather;
        the live cluster runs the configured *scenario* on top of it.
        Pass ``weather`` (any ``factor``/``snapshot_jitter`` model) to
        override the named scenario — e.g. a
        :class:`~repro.runtime.scenarios.StepDrop` with custom timing.
        Pass ``pipeline`` to reuse a pre-built (possibly pre-trained)
        pipeline — the sweep runner shares one trained predictor
        across matrix cells this way.
        """
        config = config if config is not None else ServiceConfig()
        cluster, base = service_cluster(config, weather)
        if pipeline is None:
            pipeline = Pipeline(cluster.topology, base, config)
        # Construct before training: the config refused out-of-range
        # shard, batch and concurrency values, and what the scheduler
        # still rejects fails here, without paying for a forest.
        service = cls(cluster, pipeline, config)
        if not pipeline.is_trained:
            pipeline.train()
        service.start()
        return service

    # -- deployment views -----------------------------------------------

    @property
    def plan(self):
        """The currently installed :class:`GlobalPlan` (if any)."""
        return self.deployment.plan if self.deployment is not None else None

    @property
    def agents(self) -> list[LocalAgent]:
        """The currently running AIMD agents (empty when torn down)."""
        if self.deployment is None:
            return []
        return self.deployment.agents_running

    # -- control loop ---------------------------------------------------

    @property
    def network(self):
        """The cluster's live network simulator."""
        return self.cluster.network

    @property
    def sim(self):
        """The shared simulation kernel."""
        return self.network.sim

    def start(self) -> None:
        """Initial gauge + plan + agent deployment; arms the watcher."""
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self.predicted = self._gauge()
        self._install(self.predicted)
        self.detector = DriftDetector(
            self.telemetry,
            self.predicted,
            threshold=self.config.drift_threshold,
            cooldown_s=self.config.cooldown_s,
        )
        if self.config.online:
            self._drift_process = Process(
                self.sim,
                CHECK_INTERVAL_S,
                self._check,
                start_delay=CHECK_INTERVAL_S,
                priority=5,
            )
        # Continuous capacity recalibration: a background gauger that
        # walks the published decision matrix toward the p95 of
        # observed throughput, guarded by floor/ceiling/step clamps.
        # Priority 4: recalibration lands *before* a same-instant drift
        # check, so drift judges the freshest capacity view.
        if self.config.recalibrate:
            self.recalibrator = CapacityRecalibrator(
                self.telemetry,
                self.predicted,
                link_ceiling=self._topology_ceiling,
                on_publish=self._recal_publish,
            )
            self._recal_process = Process(
                self.sim,
                RECAL_INTERVAL_S,
                self.recalibrator.tick,
                start_delay=RECAL_INTERVAL_S,
                priority=4,
            )
        # The control plane only exists when asked for: a default
        # config changes nothing about existing runs.
        if (
            self.config.preemption != "none"
            or self.config.governor
            or self.config.autoscale
            or self.config.tuner != "none"
        ):
            self.control = ControlPlane(
                self.scheduler,
                self.config,
                predicted_bw=lambda: self.predicted,
                # Deferred: the hub (and its warehouse) is built after
                # the plane, and only when observability is on.
                warehouse=lambda: (
                    self.hub.log if self.hub is not None else None
                ),
            )
        # Observability last: the hub hooks into whatever the config
        # actually built (detector, control plane, gauger ledger), and
        # every hook is observation-only — disabling it changes no
        # run's numbers, only what can be seen of them.
        if self.config.observability:
            self.hub = ObservabilityHub(self)

    def _gauge(self) -> BandwidthMatrix:
        """Snapshot the *live* network weather and predict runtime BWs.

        Goes through the pipeline's gauger stage, but against the
        cluster's live (scenario) weather rather than the training
        weather the pipeline was built with.
        """
        report = self.pipeline.gauger.gauge(
            self.cluster.topology,
            self.network.fluctuation,
            self.sim.now + self.network.time_offset,
        )
        return self.pipeline.predict(report=report)

    def _install(self, predicted: BandwidthMatrix) -> None:
        """Build and install the configured variant's deployment.

        The shared telemetry store's ``record`` travels through the
        strategy's ``build`` so custom registered variants see it at
        build time.
        """
        deployment = self.pipeline.deployment(
            self.config.variant, bw=predicted, telemetry=self.telemetry.record
        )
        deployment.install(self.network)
        self.deployment = deployment
        # A planner that scores placement backends (the multi-backend
        # alternate) steers the scheduler: jobs submitted after this
        # (re-)plan run under the backend predicted fastest *now*.
        chosen = getattr(self.pipeline.planner, "chosen_policy", None)
        if chosen is not None:
            self.scheduler.default_policy = chosen

    def _teardown(self) -> None:
        if self.deployment is not None:
            self.deployment.teardown(self.network)

    def _topology_ceiling(self, src: str, dst: str) -> float:
        """The pair's weather-free hard capacity (Mbps).

        TCP aggregate ceiling at the configured connection budget —
        the recalibrator's "never above topology" guard rail.
        """
        topology = self.cluster.topology
        return topology.tcp.aggregate_cap_mbps(
            topology.rtt_ms(src, dst),
            self.config.max_connections,
            self.network.knee,
        )

    def _recal_publish(self, matrix: BandwidthMatrix) -> None:
        """Install a recalibrated matrix as the decision matrix.

        Everything that reads capacity through a callable sees it at
        its next decision: the scheduler's ``decision_bw`` (placement
        scoring), the control plane's ``predicted_bw`` (slack
        estimation and, when recalibrating, the governor's cap
        clamp).  The drift detector keeps its own plan-time baseline —
        recalibration tracks reality, drift judges the plan.
        """
        self.predicted = matrix
        if self.hub is not None:
            self.hub.recalibration_recorded(matrix)

    @property
    def replan_spent_usd(self) -> float:
        """Probe dollars charged to re-plans so far."""
        return sum(event.probe_cost_usd for event in self.replans)

    def _check(self, now: float) -> None:
        if self.detector is None:
            return
        if (
            self.config.replan_budget_usd is not None
            and self.replan_spent_usd >= self.config.replan_budget_usd
        ):
            return
        event = self.detector.check(now)
        if event is not None:
            self.replan(event)

    def replan(self, event: ReplanEvent) -> None:
        """Re-gauge, re-optimize, redeploy — the mid-job pivot.

        Running jobs keep their in-flight transfers; their *next*
        placement decisions read the refreshed matrix through the
        scheduler's ``decision_bw`` callable.

        Re-gauging is charged: the gauger's
        :class:`~repro.pipeline.stages.GaugeLedger` delta across the
        re-gauge (probe flows, GB, dollars) is attached to the recorded
        event, and counts against ``replan_budget_usd``.
        """
        self._teardown()
        if self.control is not None:
            # Teardown wiped the TC table; the governor's held caps
            # are gone with it and must be retired, not restored.
            self.control.on_replan()
        gauger = self.pipeline.gauger
        before = (
            int(getattr(gauger, "probe_transfers", 0)),
            float(getattr(gauger, "probe_gb", 0.0)),
            float(getattr(gauger, "probe_cost_usd", 0.0)),
        )
        self.predicted = self._gauge()
        self._install(self.predicted)
        if self.detector is not None:
            self.detector.rebase(self.predicted, self.sim.now)
        if self.recalibrator is not None:
            # The fresh plan's matrix is the new baseline: guards and
            # step sizes re-anchor, and the walk restarts from it.
            self.recalibrator.rebase(self.predicted)
        charged = event.charged(
            transfers=int(getattr(gauger, "probe_transfers", 0)) - before[0],
            gigabytes=float(getattr(gauger, "probe_gb", 0.0)) - before[1],
            dollars=float(getattr(gauger, "probe_cost_usd", 0.0)) - before[2],
        )
        self.replans.append(charged)
        if self.hub is not None:
            self.hub.replan_recorded(charged)

    def stop(self) -> None:
        """Stop agents, control plane, and watcher (queued jobs stay)."""
        if self.control is not None:
            # Release governor caps *before* teardown so each restores
            # the limit it actually replaced.
            self.control.close()
        self._teardown()
        if self._drift_process is not None:
            self._drift_process.stop()
            self._drift_process = None
        if self._recal_process is not None:
            self._recal_process.stop()
            self._recal_process = None

    # -- job interface --------------------------------------------------

    def submit(
        self,
        job: JobSpec,
        policy: PolicySpec = None,
        slo: Optional[SLO] = None,
    ) -> JobTicket:
        """Queue a job under ``policy`` (the config's default when unset).

        ``policy`` may be an instance, a registered name, or a class —
        anything :func:`repro.pipeline.registry.placement_policy`
        resolves.  ``slo`` attaches per-job promises; when unset, the
        config's ``slo_deadline_s`` (if any) applies through the
        scheduler's default SLO.
        """
        return self.scheduler.submit(job, policy, slo=slo)

    def submit_at(
        self,
        delay_s: float,
        job: JobSpec,
        policy: PolicySpec = None,
        slo: Optional[SLO] = None,
    ) -> None:
        """Queue a job ``delay_s`` simulated seconds from now."""
        self.scheduler.submit_at(delay_s, job, policy, slo=slo)

    def submit_mix(
        self, mix: list[tuple[float, JobSpec]], spread_deadlines: bool = True
    ) -> None:
        """Submit a ``(delay, job)`` mix, attaching SLOs when configured.

        With ``slo_deadline_s`` set and ``spread_deadlines`` on, the
        deadlines are heterogeneous (seeded spread around the
        configured value, via
        :func:`~repro.runtime.scheduling.slo.spread_slos`) — a uniform
        deadline would make earliest-deadline-first indistinguishable
        from FIFO.  The CLI's ``serve`` and the sweep runner submit
        through this.

        The whole mix goes through the scheduler's ``submit_many``
        bulk insert (one kernel heapify) rather than a per-job
        ``submit_at`` sift; event order is identical either way.
        """
        self.scheduler.submit_many(self._entries(mix, spread_deadlines))

    def _entries(
        self, mix: list[tuple[float, JobSpec]], spread_deadlines: bool
    ) -> list[Entry]:
        """``(delay, job, policy, slo)`` submissions for a mix, with
        spread SLO deadlines when configured (see :meth:`submit_mix`)."""
        config = self.config
        if config.slo_deadline_s is None or not spread_deadlines:
            return [(delay, job, None, None) for delay, job in mix]
        return [
            (delay, job, None, slo)
            for delay, job, slo in spread_slos(
                mix, config.slo_deadline_s, seed=config.seed
            )
        ]

    def run(self, until: Optional[float] = None) -> None:
        """Drive the shared simulator (open-ended: until jobs drain)."""
        self.sim.run(until=until)

    def drain_parallel(
        self, mix: list[tuple[float, JobSpec]], spread_deadlines: bool = True
    ) -> dict[str, float]:
        """Partition a mix by tenant and drain each shard in parallel.

        The multi-core alternative to :meth:`submit_mix` + :meth:`run`:
        the mix splits into ``scheduler_shards`` tenant-hashed slices
        (same CRC-32 routing as the in-process
        :class:`~repro.runtime.scheduling.shards.ShardedScheduler`),
        each slice drains as a **self-contained seeded simulation** in
        a :class:`~repro.runtime.scheduling.parallel.ShardExecutor`
        worker process (``shard_workers`` of them; 0 or 1 runs the
        shards serially in-process with byte-identical results), and
        the per-shard records merge deterministically into one
        statistics row — which :meth:`summary` then reports instead of
        the idle in-process scheduler's.

        Partitioned shards do not share a WAN and cannot steal work
        from each other; that independence is exactly what lets them
        scale across cores.  The service's control loop (drift
        watcher, control plane) does not reach into the workers — this
        is the throughput path for big batch mixes, not the online
        re-planning path.
        """
        # Imported here: multiprocessing stays out of services that
        # never drain in parallel.
        from repro.runtime.scheduling.parallel import (
            ShardExecutor,
            build_tasks,
            merge_stats,
        )

        tasks = build_tasks(self._entries(mix, spread_deadlines), self.config)
        executor = ShardExecutor(self.config.shard_workers)
        results = executor.run(tasks)
        self.parallel_records = [r for result in results for r in result.records]
        self.parallel_stats = merge_stats(results)
        self.parallel_workers = executor.workers_used
        self.parallel_fell_back = executor.fell_back
        self.parallel_wall_s = executor.wall_s
        return self.parallel_stats

    # -- reporting ------------------------------------------------------

    def summary(self) -> ServiceSummary:
        """Aggregate statistics for everything completed so far."""
        summary = self.live_summary()
        if self.hub is not None:
            summary.rollup_rows = self.hub.log.rollup_rows()
        return summary

    def live_summary(self) -> ServiceSummary:
        """:meth:`summary` without ``rollup_rows``, which walks every
        link's samples in the metrics log; what a ``/metrics`` scrape
        reads, so a scrape never walks the log."""
        stats = self.scheduler.stats()
        if self.parallel_stats is not None:
            # A parallel drain ran outside the in-process scheduler;
            # its merged row supersedes the idle scheduler's zeros.
            stats = {**stats, **self.parallel_stats}
        # Components that are off leave their metrics at the defaults.
        observed: dict[str, object] = {
            "concurrency_high_water": self.scheduler.peak_concurrency
        }
        control = self.control
        if control is not None:
            observed.update(
                preemptions=control.preemptions,
                migrations=control.migrations,
                throttle_moves=control.throttle_moves,
                throttle_releases=control.throttle_releases,
                concurrency_high_water=control.concurrency_high_water,
                policy_switches=control.policy_switches,
            )
            if control.switcher is not None:
                observed["tuner_arm_stats"] = control.switcher.arm_stats()
        if self.hub is not None:
            observed.update(
                events_traced=self.hub.events_traced,
                metrics_scrapes=self.hub.metrics_scrapes,
            )
        if self.recalibrator is not None:
            observed.update(
                recalibrations=self.recalibrator.ticks,
                recal_adjustments=self.recalibrator.adjustments,
            )
        gauger = self.pipeline.gauger
        return ServiceSummary(
            completed=int(stats["completed"]),
            mean_wait_s=stats["mean_wait_s"],
            mean_jct_s=stats["mean_jct_s"],
            total_jct_s=stats["total_jct_s"],
            makespan_s=stats["makespan_s"],
            jobs_per_hour=stats["jobs_per_hour"],
            fairness=stats["fairness"],
            replans=len(self.replans),
            telemetry_samples=self.telemetry.total_samples,
            probe_transfers=int(getattr(gauger, "probe_transfers", 0)),
            probe_gb=float(getattr(gauger, "probe_gb", 0.0)),
            probe_cost_usd=float(getattr(gauger, "probe_cost_usd", 0.0)),
            scheduler=self.scheduler.admission.name,
            slo_attained=int(stats["slo_attained"]),
            slo_missed=int(stats["slo_missed"]),
            slo_attainment=stats["slo_attainment"],
            replan_probe_transfers=sum(
                event.probe_transfers for event in self.replans
            ),
            replan_probe_gb=sum(event.probe_gb for event in self.replans),
            replan_cost_usd=self.replan_spent_usd,
            scheduler_shards=(
                int(self.parallel_stats["shards"])
                if self.parallel_stats is not None
                else getattr(self.scheduler, "shard_count", 1)
            ),
            work_steals=getattr(self.scheduler, "steal_count", 0),
            shard_worker_count=self.parallel_workers,
            parallel_wall_s=self.parallel_wall_s,
            kernel=self.network.kernel,
            net_solves=self.network.solves,
            net_solve_requests=self.network.solve_requests,
            events=list(self.replans),
            **observed,
        )


def default_job_mix(
    keys: tuple[str, ...],
    count: int = 6,
    seed: int = 42,
    scale_mb: float = 2000.0,
) -> list[tuple[float, JobSpec]]:
    """A seeded (arrival-delay, job) mix cycling the paper's workloads.

    Inputs are skewed per job (one DC holds a double share) and arrivals
    are spaced half a mean-JCT apart, so the queue stays busy without
    saturating.  Deterministic in ``(keys, count, seed, scale_mb)``.
    """
    from repro.gda.workloads.terasort import terasort_job
    from repro.gda.workloads.tpcds import tpcds_job
    from repro.gda.workloads.wordcount import wordcount_job

    if count < 1:
        raise ValueError(f"count must be ≥ 1: {count}")
    rng = np.random.default_rng(seed)
    jobs: list[tuple[float, JobSpec]] = []
    arrival = 0.0
    for index in range(count):
        weights = rng.uniform(0.5, 1.5, size=len(keys))
        weights[rng.integers(0, len(keys))] *= 2.0
        weights /= weights.sum()
        inputs = {
            dc: float(scale_mb * w) for dc, w in zip(keys, weights)
        }
        kind = index % 3
        if kind == 0:
            job = wordcount_job(
                inputs, intermediate_mb=scale_mb * 0.8,
                name=f"wordcount-{index}",
            )
        elif kind == 1:
            job = terasort_job(inputs, name=f"terasort-{index}")
        else:
            query = (82, 95, 11, 78)[index % 4]
            job = tpcds_job(query, inputs)
            job = JobSpec(
                name=f"{job.name}-{index}",
                stages=job.stages,
                input_mb_by_dc=job.input_mb_by_dc,
            )
        jobs.append((arrival, job))
        arrival += float(rng.uniform(60.0, 240.0))
    return jobs
