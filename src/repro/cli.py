"""Command-line interface: ``python -m repro <command>``.

Eight commands cover the things a downstream user does most:

=============  =========================================================
command        what it does
=============  =========================================================
``list``       list every reproducible experiment (tables & figures)
``run``        run one experiment and print its paper-vs-measured table
``report``     run everything and (re)write EXPERIMENTS.md
``topology``   show distances, RTTs and capacities for a region set
``predict``    train WANify and print static vs predicted runtime BWs
               plus the optimized connection plan
``serve``      run the multi-job runtime service under a bandwidth
               scenario (optionally comparing online vs static plans)
``sweep``      expand a ``[sweep]`` config section into a variants ×
               scenarios × stage-choices × schedulers matrix and write
               a JSON + markdown comparison report (``--jobs N`` runs
               cells on parallel workers; ``repeats`` adds mean ±
               stdev columns)
``tune``       successive-halving search over the same matrix for the
               cheapest configuration meeting an SLO-attainment target
               (``[tune]`` table); writes tune.json + tune.md +
               winner.toml
=============  =========================================================

Every command is deterministic given ``--seed`` (the network weather is
a pure function of it).  The module is import-safe: :func:`main` takes
``argv`` and an output stream, so tests drive it without subprocesses.

``predict`` and ``serve`` resolve their knobs through the layered
config system (:mod:`repro.pipeline.config`): most of their flags are
*generated* from the :class:`~repro.pipeline.config.PipelineConfig` /
:class:`~repro.pipeline.config.ServiceConfig` dataclass fields, and
every generated flag can also come from a ``--config file.toml`` or a
``WANIFY_*`` environment variable (explicit flags win).  Registered
extensions plug in by name: ``--variant``, ``--policy``, and
``--scenario`` all resolve through the
:mod:`repro.pipeline.registry` registries, and ``--scenario`` composes
with ``+`` (``diurnal+flash-crowd``).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import IO, Optional

from repro.cloud.regions import PAPER_REGIONS, region
from repro.net.matrix import BandwidthMatrix
from repro.net.measurement import measure_independent
from repro.net.profiles import network_profile
from repro.net.topology import Topology
from repro.pipeline.config import (
    ConfigArguments,
    PipelineConfig,
    ServiceConfig,
)
from repro.pipeline.core import Pipeline
from repro.pipeline.registry import unregistered

_PROG = "python -m repro"

#: Generated flags for ``predict`` — every :class:`PipelineConfig`
#: field the command consumes, with its historical fast-training
#: defaults (``variant``/``policy`` excluded: predict stops at the
#: plan, so those flags would be accepted but dead).
PREDICT_CONFIG = ConfigArguments(
    PipelineConfig,
    defaults={"seed": 42, "n_training_datasets": 40, "n_estimators": 30},
    exclude=("variant", "policy"),
)

#: Generated flags for ``serve`` — every :class:`ServiceConfig` field
#: (``regions`` stays positional, ``online`` is spelled ``--static``).
SERVE_CONFIG = ConfigArguments(
    ServiceConfig,
    defaults={
        "scenario": "step-drop",
        "n_training_datasets": 16,
        "n_estimators": 12,
    },
)


def _experiment_registry():
    """The (id, title, module) triples from the report harness.

    Imported lazily — the experiment modules pull in the whole stack and
    ``repro topology`` shouldn't pay for that.
    """
    from repro.experiments.report import EXPERIMENTS

    return EXPERIMENTS


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def cmd_list(args: argparse.Namespace, out: IO[str]) -> int:
    """List experiment ids and the paper artifacts they regenerate."""
    rows = _experiment_registry()
    width = max(len(exp_id) for exp_id, _, _ in rows)
    for exp_id, title, module in rows:
        out.write(f"{exp_id:<{width}}  {title}\n")
    out.write(
        f"\n{len(rows)} experiments; run one with "
        f"`{_PROG} run <id>`, all with `{_PROG} report`.\n"
    )
    return 0


def cmd_run(args: argparse.Namespace, out: IO[str]) -> int:
    """Run a single experiment and print its rendered table."""
    registry = {exp_id: (title, mod) for exp_id, title, mod in _experiment_registry()}
    exp_id = args.experiment.upper()
    if exp_id not in registry:
        out.write(
            f"unknown experiment {args.experiment!r}; "
            f"`{_PROG} list` shows the valid ids.\n"
        )
        return 2
    title, module = registry[exp_id]
    out.write(f"== {exp_id}: {title} ==\n")
    start = time.time()
    results = module.run(fast=not args.full)
    out.write(module.render(results))
    out.write(f"\n({time.time() - start:.1f} s)\n")
    return 0


def cmd_report(args: argparse.Namespace, out: IO[str]) -> int:
    """Regenerate EXPERIMENTS.md, or emit KPIs for a recorded run.

    Without ``--run`` this is the legacy behavior (re-run every
    experiment and rewrite EXPERIMENTS.md).  With ``--run FILE`` it
    instead reads a recorded service run (``serve --record``) and
    writes the operator KPI report — congestion hot-spots, SLO
    attainment by tenant, failover quality, probe cost — as
    ``kpi.json`` + ``kpi.md``; ``--trace`` adds the reconstructed
    event timeline.
    """
    if args.run_file is not None:
        return _kpi_report(args, out)
    if args.trace:
        out.write("--trace needs --run FILE (a recorded service run)\n")
        return 2
    from repro.experiments.report import generate

    path = generate(args.output)
    out.write(f"wrote {path}\n")
    return 0


def _kpi_report(args: argparse.Namespace, out: IO[str]) -> int:
    """The ``report --run`` path: recorded run → operator KPI tables."""
    from repro.runtime.observability import (
        KpiReport,
        load_run,
        write_kpi_report,
    )

    try:
        run = load_run(args.run_file)
    except (OSError, ValueError, KeyError) as exc:
        out.write(f"bad recorded run {args.run_file!r}: {exc}\n")
        return 2
    report = KpiReport.from_run(run)
    timeline = run.timeline() if args.trace else None
    # `-o` doubles as the report directory here; the EXPERIMENTS.md
    # default belongs to the legacy mode, so swap it for a KPI dir.
    output = (
        args.output if args.output != "EXPERIMENTS.md" else "kpi-report"
    )
    json_path, md_path = write_kpi_report(report, output, timeline=timeline)
    out.write(report.render_markdown())
    if timeline is not None:
        out.write("\n## Event timeline\n\n" + timeline)
        if run.events_dropped:
            out.write(
                f"({run.events_dropped} earlier events evicted by the "
                f"trace ring)\n"
            )
    out.write(f"\nwrote {json_path} and {md_path}\n")
    return 0


def cmd_topology(args: argparse.Namespace, out: IO[str]) -> int:
    """Print the static description of a cluster."""
    keys = tuple(args.regions) if args.regions else PAPER_REGIONS
    try:
        for key in keys:
            region(key)
        profile = network_profile(args.profile)
        topology = Topology.build(keys, args.vm, profile=profile)
    except KeyError as exc:
        out.write(f"{exc.args[0]}\n")
        return 2
    out.write(
        f"{topology.n} DCs, VM type {args.vm}, profile {profile.key}\n\n"
    )
    out.write("Great-circle distances (miles):\n")
    out.write(topology.distance_matrix().to_table("{:7.0f}"))
    out.write("\n\nModelled RTTs (ms):\n")
    rtt = BandwidthMatrix(topology.keys, topology.rtt_matrix())
    out.write(rtt.to_table("{:7.1f}"))
    out.write("\n\nSingle-connection uncontended caps (Mbps):\n")
    caps = BandwidthMatrix.zeros(topology.keys)
    for src, dst in caps.pairs():
        caps.set(src, dst, topology.single_connection_cap(src, dst))
    out.write(caps.to_table("{:7.0f}"))
    out.write("\n")
    return 0


def cmd_predict(args: argparse.Namespace, out: IO[str]) -> int:
    """Train the pipeline and print static vs predicted BWs + the plan."""
    keys = tuple(args.regions) if args.regions else PAPER_REGIONS
    try:
        config = PREDICT_CONFIG.resolve(args)
    except (OSError, ValueError) as exc:
        out.write(f"bad configuration: {exc}\n")
        return 2
    if (unknown := unregistered(config)) is not None:
        out.write(unknown + "\n")
        return 2
    try:
        profile = network_profile(args.profile)
        topology = Topology.build(keys, args.vm, profile=profile)
    except KeyError as exc:
        out.write(f"{exc.args[0]}\n")
        return 2
    if topology.n < 2:
        out.write("predict needs at least 2 regions (no WAN otherwise)\n")
        return 2
    weather = profile.fluctuation(seed=config.seed)
    # Everything a knob can reject runs before the first line of
    # output, so a bad value prints one message and nothing else.
    try:
        pipeline = Pipeline(topology, weather, config)
        summary = pipeline.train()
        predicted = pipeline.predict(at_time=args.at)
        plan = pipeline.plan(predicted)
    except ValueError as exc:
        out.write(f"bad configuration: {exc}\n")
        return 2
    out.write(
        f"training on {config.n_training_datasets} datasets "
        f"({config.n_estimators} estimators) ...\n"
    )
    out.write(
        f"  rows={summary['rows']:.0f}  "
        f"target SD={summary['target_std_mbps']:.0f} Mbps  "
        f"train accuracy={summary['train_accuracy_pct']:.2f}%\n\n"
    )

    static = measure_independent(topology, weather, at_time=0.0).matrix
    out.write("Static-independent BWs (Mbps, measured one pair at a time):\n")
    out.write(static.to_table())
    out.write(
        f"\n\nPredicted runtime BWs at t={args.at:.0f}s (Mbps):\n"
    )
    out.write(predicted.to_table())

    out.write("\n\nOptimal connection windows (min–max per pair):\n")
    window = BandwidthMatrix.zeros(topology.keys)
    for src, dst in window.pairs():
        lo, hi = plan.connection_window(src, dst)
        window.set(src, dst, hi)
    out.write(window.to_table("{:7.0f}"))
    out.write(
        f"\n\nmin BW {predicted.min_bw():.0f} → achievable "
        f"{plan.max_bw.min_bw():.0f} Mbps "
        f"({plan.max_bw.min_bw() / max(predicted.min_bw(), 1e-9):.1f}x)\n"
    )
    return 0


def _render_service(svc, out: IO[str]) -> None:
    """Per-job table, re-plan events, and the aggregate summary."""
    summary = svc.summary()
    records = getattr(svc, "parallel_records", [])
    if records:
        # The parallel drain ran outside the in-process scheduler;
        # per-job rows come from the merged shard records instead.
        out.write(
            f"{'job':<16} {'tenant':<10} {'shard':>5} {'wait(s)':>8} "
            f"{'jct(s)':>8}\n"
        )
        for record in records:
            out.write(
                f"{record.name:<16} {record.tenant:<10} "
                f"{record.shard:>5d} {record.wait_s:>8.1f} "
                f"{record.jct_s:>8.1f}\n"
            )
    else:
        out.write(
            f"{'job':<16} {'system':<10} {'wait(s)':>8} {'jct(s)':>8} "
            f"{'wan(GB)':>8}\n"
        )
        for ticket in svc.scheduler.completed:
            result = ticket.result
            out.write(
                f"{ticket.job.name:<16} {result.system_name:<10} "
                f"{ticket.wait_s:>8.1f} {ticket.jct_s:>8.1f} "
                f"{result.wan_gb:>8.2f}\n"
            )
    if summary.events:
        out.write("\nre-plan events:\n")
        for event in summary.events:
            out.write(f"  {event.describe()}\n")
    out.write(
        f"\ncompleted {summary.completed} jobs in "
        f"{summary.makespan_s:.0f} s "
        f"({summary.jobs_per_hour:.1f} jobs/sim-hour)\n"
        f"mean wait {summary.mean_wait_s:.1f} s, "
        f"mean JCT {summary.mean_jct_s:.1f} s, "
        f"fairness {summary.fairness:.2f}, "
        f"re-plans {summary.replans}\n"
        f"probe cost: {summary.probe_transfers} transfers, "
        f"{summary.probe_gb:.2f} GB, "
        f"${summary.probe_cost_usd:.4f} "
        f"(re-plan share: ${summary.replan_cost_usd:.4f})\n"
    )
    if summary.slo_attained or summary.slo_missed:
        out.write(
            f"SLO ({summary.scheduler}): "
            f"{summary.slo_attained}/{summary.slo_attained + summary.slo_missed} "
            f"deadlines met "
            f"({summary.slo_attainment * 100.0:.0f}% attainment)\n"
        )
    if summary.preemptions or summary.throttle_moves:
        out.write(
            f"control plane: {summary.preemptions} preemptions "
            f"({summary.migrations} migrated), "
            f"{summary.throttle_moves} throttle moves "
            f"({summary.throttle_releases} released), "
            f"peak concurrency {summary.concurrency_high_water}\n"
        )
    if records:
        workers = (
            f"{summary.shard_worker_count} worker processes"
            if summary.shard_worker_count
            else "in-process (serial)"
        )
        out.write(
            f"parallel drain: {summary.scheduler_shards} shards, "
            f"{workers}, wall {summary.parallel_wall_s:.2f} s\n"
        )


def cmd_serve(args: argparse.Namespace, out: IO[str]) -> int:
    """Run the runtime service on a scenario; optionally compare modes."""
    import dataclasses

    from repro.runtime.service import PipelineService, default_job_mix

    try:
        # Positional regions are an explicit override; otherwise the
        # config layers (file / WANIFY_REGIONS / dataclass default)
        # decide.
        if args.regions:
            base_config = SERVE_CONFIG.resolve(
                args, regions=tuple(args.regions)
            )
        else:
            base_config = SERVE_CONFIG.resolve(args)
    except (OSError, ValueError) as exc:
        out.write(f"bad configuration: {exc}\n")
        return 2
    keys = base_config.regions
    if (unknown := unregistered(base_config)) is not None:
        out.write(unknown + "\n")
        return 2
    try:
        for key in keys:
            region(key)
        network_profile(base_config.profile)
    except KeyError as exc:
        out.write(f"{exc.args[0]}\n")
        return 2
    if len(keys) < 2:
        out.write("serve needs at least 2 regions (no WAN otherwise)\n")
        return 2
    if args.jobs < 1:
        out.write(f"--jobs must be ≥ 1 (got {args.jobs})\n")
        return 2
    if not (math.isfinite(args.scale_mb) and args.scale_mb > 0):
        out.write(f"--scale-mb must be positive (got {args.scale_mb})\n")
        return 2
    if args.duration is not None and not (
        math.isfinite(args.duration) and args.duration > 0
    ):
        out.write(
            f"--duration must be a positive number of seconds "
            f"(got {args.duration})\n"
        )
        return 2
    if args.record_file is not None and not base_config.observability:
        out.write(
            "cannot record the run: observability is disabled "
            "(--record needs the telemetry warehouse)\n"
        )
        return 2

    def prepare(online: bool) -> tuple[PipelineService, list]:
        config = dataclasses.replace(base_config, online=online)
        service = PipelineService.build(config)
        mix = default_job_mix(
            keys,
            count=args.jobs,
            seed=config.seed,
            scale_mb=args.scale_mb,
        )
        # submit_mix spreads heterogeneous SLO deadlines over the mix
        # when --slo-deadline-s (or the config layers) set one.  With
        # --shard-workers set the mix instead drains through the
        # partitioned shard executor at run time (tenant-hashed
        # shards, one seeded simulation per shard, optionally in
        # worker processes).
        if config.shard_workers == 0:
            service.submit_mix(mix)
        return service, mix

    def run_once(
        service: PipelineService, mix: list, metrics: bool = False
    ) -> None:
        config = service.config
        if (
            metrics
            and service.hub is not None
            and config.metrics_port is not None
        ):
            endpoint = service.hub.serve_metrics(config.metrics_port)
            out.write(f"metrics: {endpoint.url}\n")
            flush = getattr(out, "flush", None)
            if flush is not None:
                flush()
        if config.shard_workers > 0:
            service.drain_parallel(mix)
        else:
            service.run(until=args.duration)
        service.stop()

    # --static is an explicit override; otherwise the layered `online`
    # knob (file / WANIFY_ONLINE / dataclass default True) decides.
    primary_online = False if args.static else base_config.online
    # Build (and submit to) every service before the first line of
    # output: a knob its constructors reject prints one message and
    # nothing else.  Errors raised while a simulation runs propagate.
    try:
        primary, primary_mix = prepare(primary_online)
        other, other_mix = (
            prepare(not primary_online) if args.compare else (None, None)
        )
    except ValueError as exc:
        out.write(f"bad configuration: {exc}\n")
        return 2
    mode = "online re-planning" if primary_online else "static plan"
    out.write(
        f"serving {args.jobs} jobs on {len(keys)} DCs, scenario "
        f"{base_config.scenario!r}, {mode} (seed {base_config.seed})\n\n"
    )
    # Only the primary run owns the /metrics endpoint — a comparison
    # run binding the same port would clash.
    run_once(primary, primary_mix, metrics=True)
    _render_service(primary, out)
    if other is not None:
        # The comparison run is always the *opposite* mode, so
        # `--static --compare` works too.
        other_mode = (
            "static plan (no re-planning)" if primary_online else
            "online re-planning"
        )
        out.write(f"\n-- comparison: {other_mode} --\n\n")
        run_once(other, other_mix)
        _render_service(other, out)
        online_svc, static_svc = (
            (primary, other) if primary_online else (other, primary)
        )
        online_total = online_svc.summary().total_jct_s
        static_total = static_svc.summary().total_jct_s
        if online_total > 0:
            out.write(
                f"\nonline/static total-JCT speedup: "
                f"{static_total / online_total:.2f}x\n"
            )
    if args.record_file is not None:
        from repro.runtime.observability import write_run

        path = write_run(primary, args.record_file)
        out.write(f"recorded run → {path}\n")
    if (
        args.metrics_linger > 0
        and primary.hub is not None
        and primary.hub.endpoint is not None
    ):
        out.write(
            f"metrics endpoint lingering {args.metrics_linger:g}s "
            f"for scrapes…\n"
        )
        flush = getattr(out, "flush", None)
        if flush is not None:
            flush()
        time.sleep(args.metrics_linger)
    if primary.hub is not None:
        primary.hub.close()
    return 0


def cmd_sweep(args: argparse.Namespace, out: IO[str]) -> int:
    """Run (or dry-run) the sweep matrix described by a config file."""
    from repro.experiments.sweep import (
        load_sweep,
        render_markdown,
        run_sweep,
        write_report,
    )

    if args.config_file is None:
        out.write(
            "sweep needs --config FILE (a TOML/JSON config with a "
            "[sweep] table; see examples/sweep.toml)\n"
        )
        return 2
    try:
        spec = load_sweep(args.config_file)
    except (OSError, ValueError) as exc:  # SweepError is a ValueError
        out.write(f"bad sweep configuration: {exc}\n")
        return 2
    if args.workers < 1:
        out.write(f"--jobs must be ≥ 1 (got {args.workers})\n")
        return 2
    cells = spec.cells
    swept = ", ".join(spec.swept) if spec.swept else "nothing (single cell)"
    out.write(
        f"sweep matrix: {spec.shape} over {swept} — {len(cells)} cells, "
        f"{spec.jobs} jobs each (seed {spec.base.seed})\n"
    )
    if args.dry_run:
        for index, cell in enumerate(cells):
            out.write(f"  [{index + 1}/{len(cells)}] {spec.label(cell)}\n")
        out.write("dry run: nothing executed\n")
        return 0

    def progress(index: int, total: int, label: str) -> None:
        out.write(f"  [{index + 1}/{total}] {label}\n")

    result = run_sweep(spec, progress=progress, workers=args.workers)
    json_path, md_path = write_report(result, args.output)
    out.write("\n" + render_markdown(result))
    out.write(f"wrote {json_path} and {md_path}\n")
    return 0


def cmd_tune(args: argparse.Namespace, out: IO[str]) -> int:
    """Run (or dry-run) the successive-halving config search."""
    from repro.tuner.search import (
        load_tune,
        render_tune_markdown,
        rung_plan,
        run_tune,
        write_tune_report,
    )

    if args.config_file is None:
        out.write(
            "tune needs --config FILE (a sweep config, optionally with "
            "a [tune] table; see examples/tune.toml)\n"
        )
        return 2
    try:
        spec = load_tune(args.config_file)
    except (OSError, ValueError) as exc:  # TuneError is a ValueError
        out.write(f"bad tune configuration: {exc}\n")
        return 2
    if args.workers < 1:
        out.write(f"--jobs must be ≥ 1 (got {args.workers})\n")
        return 2
    sweep = spec.sweep
    cells = sweep.cells
    plan = rung_plan(spec)
    swept = ", ".join(sweep.swept) if sweep.swept else "nothing (single cell)"
    out.write(
        f"tune matrix: {sweep.shape} over {swept} — {len(cells)} cells, "
        f"target slo_attainment ≥ {spec.target}, eta {spec.eta}\n"
    )
    for index, (jobs, repeats) in enumerate(plan):
        out.write(
            f"  rung {index + 1}/{len(plan)}: jobs={jobs} repeats={repeats}"
            f"{' (full fidelity)' if index == len(plan) - 1 else ''}\n"
        )
    if args.dry_run:
        for index, cell in enumerate(cells):
            out.write(f"  [{index + 1}/{len(cells)}] {sweep.label(cell)}\n")
        out.write("dry run: nothing executed\n")
        return 0

    def progress(index: int, total: int, label: str) -> None:
        out.write(f"  [{index + 1}/{total}] {label}\n")

    result = run_tune(spec, progress=progress, workers=args.workers)
    json_path, md_path, toml_path = write_tune_report(result, args.output)
    out.write("\n" + render_tune_markdown(result))
    out.write(f"wrote {json_path}, {md_path} and {toml_path}\n")
    return 0 if result.feasible else 1


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The full argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="WANify reproduction — experiments and exploration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible experiments")

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("experiment", help="experiment id, e.g. E-F5")
    p_run.add_argument(
        "--full",
        action="store_true",
        help="paper-scale model (slower; default uses fast settings)",
    )

    p_report = sub.add_parser(
        "report",
        help="regenerate EXPERIMENTS.md, or (--run) emit operator KPIs "
        "for a recorded service run",
    )
    p_report.add_argument(
        "-o",
        "--output",
        default="EXPERIMENTS.md",
        help="output path (with --run: the KPI report directory; "
        "default kpi-report)",
    )
    p_report.add_argument(
        "--run",
        dest="run_file",
        metavar="FILE",
        default=None,
        help="recorded run (from `serve --record`) → write kpi.json + "
        "kpi.md instead of EXPERIMENTS.md",
    )
    p_report.add_argument(
        "--trace",
        action="store_true",
        help="with --run: append the reconstructed event timeline",
    )

    p_topo = sub.add_parser("topology", help="inspect a cluster topology")
    p_topo.add_argument(
        "regions", nargs="*", help="region keys (default: the paper's 8)"
    )
    p_topo.add_argument("--vm", default="t2.medium", help="VM type key")
    p_topo.add_argument(
        "--profile",
        default="vpc-peering",
        help="network profile: vpc-peering, public-internet, edge-cloud",
    )

    p_pred = sub.add_parser(
        "predict", help="train the pipeline and print predicted BWs + plan"
    )
    p_pred.add_argument(
        "regions", nargs="*", help="region keys (default: the paper's 8)"
    )
    p_pred.add_argument("--vm", default="t2.medium", help="VM type key")
    p_pred.add_argument(
        "--profile",
        default="vpc-peering",
        help="network profile: vpc-peering, public-internet, edge-cloud",
    )
    p_pred.add_argument(
        "--at", type=float, default=7.5 * 3600.0, help="prediction time (s)"
    )
    PREDICT_CONFIG.install(p_pred)

    p_serve = sub.add_parser(
        "serve",
        help="run the multi-job runtime service under a scenario",
    )
    p_serve.add_argument(
        "regions", nargs="*", help="region keys (default: the paper's 8)"
    )
    p_serve.add_argument(
        "--jobs", type=int, default=6, help="jobs in the submission mix"
    )
    p_serve.add_argument(
        "--scale-mb",
        type=float,
        default=4000.0,
        help="per-job input volume (MB)",
    )
    p_serve.add_argument(
        "--duration",
        type=float,
        default=None,
        help="stop after this many simulated seconds (default: drain)",
    )
    p_serve.add_argument(
        "--static",
        action="store_true",
        help="freeze the submit-time plan (no online re-planning)",
    )
    p_serve.add_argument(
        "--compare",
        action="store_true",
        help="also run the static baseline and print the speedup",
    )
    p_serve.add_argument(
        "--record",
        dest="record_file",
        metavar="FILE",
        default=None,
        help="write the primary run (summary, rollups, event trace) "
        "as JSON for `report --run`",
    )
    p_serve.add_argument(
        "--metrics-linger",
        type=float,
        default=0.0,
        metavar="S",
        help="keep the /metrics endpoint up this many wall-clock "
        "seconds after the run (with --metrics-port)",
    )
    SERVE_CONFIG.install(p_serve)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a variants × scenarios × stage-choices matrix "
        "from one config file",
    )
    p_sweep.add_argument(
        "--config",
        dest="config_file",
        metavar="FILE",
        default=None,
        help="TOML/JSON config with a [sweep] table (see examples/sweep.toml)",
    )
    p_sweep.add_argument(
        "--output",
        default="sweep-report",
        help="report directory (sweep.json + sweep.md are written there)",
    )
    p_sweep.add_argument(
        "--jobs",
        dest="workers",
        type=int,
        default=1,
        metavar="N",
        help="parallel worker processes (cells are independent "
        "simulations; the report order stays deterministic)",
    )
    p_sweep.add_argument(
        "--dry-run",
        action="store_true",
        help="print the expanded matrix cells without running them",
    )

    p_tune = sub.add_parser(
        "tune",
        help="successive-halving search over a sweep matrix for the "
        "cheapest config meeting an SLO target",
    )
    p_tune.add_argument(
        "--config",
        dest="config_file",
        metavar="FILE",
        default=None,
        help="TOML/JSON sweep config, optionally with a [tune] table "
        "(see examples/tune.toml)",
    )
    p_tune.add_argument(
        "--output",
        default="tune-report",
        help="report directory (tune.json + tune.md + winner.toml are "
        "written there)",
    )
    p_tune.add_argument(
        "--jobs",
        dest="workers",
        type=int,
        default=1,
        metavar="N",
        help="parallel worker processes per rung (rows stay in "
        "deterministic matrix order)",
    )
    p_tune.add_argument(
        "--dry-run",
        action="store_true",
        help="print the rung plan and matrix cells without running them",
    )
    return parser


_COMMANDS = {
    "list": cmd_list,
    "run": cmd_run,
    "report": cmd_report,
    "topology": cmd_topology,
    "predict": cmd_predict,
    "serve": cmd_serve,
    "sweep": cmd_sweep,
    "tune": cmd_tune,
}


def main(argv: Optional[list[str]] = None, out: Optional[IO[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)
    # The raw argv lets the config layer distinguish flags actually
    # typed from parser defaults (see ConfigArguments.resolve).
    args._argv = list(argv)
    stream = out if out is not None else sys.stdout
    return _COMMANDS[args.command](args, stream)
