"""Registry-driven sweep matrices: variants × scenarios × stage choices.

Terra-style cross-layer comparisons need a matrix, not a single run:
the interesting WANify results are *relative* — how much probe cost the
passive-telemetry gauger saves, what that does to re-plan counts, which
placement backend wins under which scenario.  This module expands a
``[sweep]`` TOML section into a full cartesian matrix over the
registries, runs every cell through
:class:`~repro.runtime.service.PipelineService`, and writes a JSON +
markdown comparison report with probe-cost and replan columns.

A sweep file is an ordinary layered-config file plus one table::

    # base ServiceConfig fields (same file also works with `serve`)
    regions = ["us-east-1", "us-west-1", "ap-southeast-1"]
    n_training_datasets = 6
    n_estimators = 5

    [sweep]
    variants  = ["wanify-tc", "single"]
    scenarios = ["step-drop", "diurnal+flash-crowd"]
    gaugers   = ["snapshot", "passive-telemetry"]
    schedulers = ["fifo", "deadline-edf"]
    jobs = 2
    scale_mb = 600.0
    repeats = 3          # per-cell seed range → mean ± stdev columns

Every axis key maps to a :class:`~repro.pipeline.config.ServiceConfig`
field; each cell's config is built and its names checked when the file
loads, so user registrations sweep like the built-ins.  Cells that
share training-relevant knobs share one trained predictor — an 8-cell
sweep trains once, not eight times.

Cells are independent simulations; ``run_sweep(spec, workers=N)``
(``wanify sweep --jobs N``) fans them out over a process pool with
the report rows kept in deterministic matrix order.

Entry points: :func:`run_sweep` in code, ``wanify sweep --config
file.toml`` on the command line (``--dry-run`` prints the matrix
without running it).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import itertools
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

from repro.net.profiles import network_profile
from repro.net.topology import Topology
from repro.pipeline.alternates import CachedPredictor
from repro.pipeline.config import (
    ServiceConfig,
    _coerce,
    _field_types,
    layered_config,
    load_config_file,
)
from repro.pipeline.core import Pipeline
from repro.pipeline.registry import (
    build_stage,
    gauger_registry,
    planner_registry,
    predictor_registry,
    unregistered,
)
from repro.pipeline.stages import ForestPredictor
from repro.runtime.summary import SWEEP_COLUMNS

#: ``[sweep]`` axis key → ServiceConfig field.  Axis values coerce
#: through the field's annotated type like any other layer's, so
#: ``governors = [true, false]`` sweeps the governor on and off.
AXES: Mapping[str, str] = {
    "variants": "variant", "scenarios": "scenario", "gaugers": "gauger",
    "predictors": "predictor", "planners": "planner", "policies": "policy",
    "schedulers": "scheduler", "preemptions": "preemption", "governors": "governor",
    "autoscales": "autoscale", "recalibrates": "recalibrate",
}

#: Entry-point defaults for sweep runs (beneath files/env/overrides):
#: training sizes small enough that a matrix stays interactive.
SWEEP_DEFAULTS: Mapping[str, Any] = {
    "n_training_datasets": 8,
    "n_estimators": 6,
}

#: Columns every report carries, beyond the axis columns: the
#: ``sweep=True`` metrics declared on :class:`ServiceSummary`.
METRIC_COLUMNS: tuple[str, ...] = SWEEP_COLUMNS


@dataclass(frozen=True)
class SweepSpec:
    """A fully validated sweep: base config, axes, and run knobs."""

    base: ServiceConfig
    #: ServiceConfig field → the values that axis takes (≥ 1 each,
    #: typed like the field).
    axes: Mapping[str, tuple[Any, ...]]
    #: Axis fields explicitly listed in the ``[sweep]`` section, in
    #: file order — these become the report's leading columns.
    swept: tuple[str, ...]
    jobs: int = 3
    scale_mb: float = 1000.0
    duration: Optional[float] = None
    #: Multiplier on the job mix's arrival gaps (< 1 compresses the
    #: arrivals and builds queue pressure — the regime where admission
    #: policies actually disagree).
    arrival_scale: float = 1.0
    #: Per-cell repetitions over a seed range (``repeats`` in
    #: ``[sweep]``); metrics aggregate to mean ± stdev.
    repeats: int = 1
    #: Base seed for the repetition range (``seed`` in ``[sweep]``);
    #: ``None`` uses the base config's seed.
    seed: Optional[int] = None

    def seed_for(self, repeat: int) -> int:
        """The weather/campaign seed of repetition ``repeat``."""
        base_seed = self.seed if self.seed is not None else self.base.seed
        return base_seed + repeat

    @property
    def cells(self) -> list[dict[str, Any]]:
        """The cartesian matrix as per-cell config overrides."""
        fields = [f for f in self.axes if len(self.axes[f]) > 0]
        combos = itertools.product(*(self.axes[f] for f in fields))
        return [dict(zip(fields, combo)) for combo in combos]

    def label(self, cell: Mapping[str, Any]) -> str:
        """Compact ``field=value`` label over the swept axes."""
        parts = [f"{f}={cell[f]}" for f in self.swept]
        return " ".join(parts) if parts else "default"

    @property
    def shape(self) -> str:
        """``2×2×2``-style description of the swept axes."""
        sizes = [str(len(self.axes[f])) for f in self.swept]
        return "×".join(sizes) if sizes else "1"


class SweepError(ValueError):
    """A sweep file failed validation (bad axis value, empty matrix…)."""


def load_sweep(
    path: Union[str, Path],
    environ: Optional[Mapping[str, str]] = None,
    overrides: Optional[Mapping[str, Any]] = None,
) -> SweepSpec:
    """Parse and validate a sweep file.

    The top-level table resolves through the ordinary config layers
    (so ``WANIFY_*`` vars and ``overrides`` still apply); the
    ``[sweep]`` table supplies the axes and the per-cell run knobs
    (``jobs``, ``scale_mb``, ``duration``).  A bad value or name in
    any cell raises :class:`ValueError` here, before anything runs.
    """
    data = load_config_file(path)
    section = data.get("sweep", {})
    if not isinstance(section, dict):
        raise SweepError(f"[sweep] in {path} must be a table")
    base = layered_config(
        ServiceConfig,
        path=path,
        environ=environ,
        overrides=overrides,
        defaults=SWEEP_DEFAULTS,
    )

    types = _field_types(ServiceConfig)
    axes: dict[str, tuple[Any, ...]] = {}
    swept: list[str] = []
    for key, config_field_ in AXES.items():
        raw = section.get(key)
        if raw is None:
            axes[config_field_] = (getattr(base, config_field_),)
            continue
        if isinstance(raw, (str, bool)):
            raw = [raw]
        if not isinstance(raw, (list, tuple)):
            raise SweepError(
                f"sweep axis {key!r} must be a value or a list of "
                f"values; got {raw!r}"
            )
        try:
            values = tuple(_coerce(config_field_, types[config_field_], v) for v in raw)
        except ValueError as exc:
            raise SweepError(f"bad value in sweep axis {key!r}: {exc}") from None
        if not values:
            raise SweepError(f"sweep axis {key!r} is empty")
        axes[config_field_] = values
        swept.append(config_field_)
    known_keys = set(AXES) | {
        "jobs",
        "scale_mb",
        "duration",
        "arrival_scale",
        "repeats",
        "seed",
    }
    unknown = sorted(set(section) - known_keys)
    if unknown:
        raise SweepError(
            f"unknown [sweep] keys {unknown}; known: {sorted(known_keys)}"
        )
    jobs = int(section.get("jobs", 3))
    if jobs < 1:
        raise SweepError(f"[sweep] jobs must be ≥ 1: {jobs}")
    scale_mb = float(section.get("scale_mb", 1000.0))
    if scale_mb <= 0:
        raise SweepError(f"[sweep] scale_mb must be positive: {scale_mb}")
    duration = section.get("duration")
    arrival_scale = float(section.get("arrival_scale", 1.0))
    if arrival_scale <= 0:
        raise SweepError(
            f"[sweep] arrival_scale must be positive: {arrival_scale}"
        )
    repeats = int(section.get("repeats", 1))
    if repeats < 1:
        raise SweepError(f"[sweep] repeats must be ≥ 1: {repeats}")
    seed = section.get("seed")
    spec = SweepSpec(
        base=base,
        axes=axes,
        swept=tuple(swept),
        jobs=jobs,
        scale_mb=scale_mb,
        duration=float(duration) if duration is not None else None,
        arrival_scale=arrival_scale,
        repeats=repeats,
        seed=int(seed) if seed is not None else None,
    )
    for cell in spec.cells:
        if (unknown := unregistered(dataclasses.replace(base, **cell))) is not None:
            raise SweepError(unknown)
    return spec


@dataclass
class CellResult:
    """One matrix cell's configuration and measured outcome.

    With ``repeats > 1`` the ``metrics`` are per-seed means and
    ``metrics_std`` carries the matching sample standard deviations.
    """

    cell: dict[str, Any]
    label: str
    metrics: dict[str, float]
    #: Sample stdev per metric (only populated when ``repeats > 1``).
    metrics_std: dict[str, float] = field(default_factory=dict)
    #: Seeds this cell actually ran (one per repetition).
    seeds: tuple[int, ...] = ()
    #: Cache statistics when the cell ran a caching predictor (first
    #: repetition's run).
    cache_hits: Optional[int] = None
    cache_misses: Optional[int] = None
    #: The backend a multi-backend planner settled on (last choice of
    #: the first repetition).
    chosen_policy: Optional[str] = None

    def to_json(self) -> dict[str, Any]:
        """JSON-ready flat representation (stdevs as ``<name>_std``)."""
        out: dict[str, Any] = {"label": self.label, **self.cell}
        out.update(self.metrics)
        for name, value in self.metrics_std.items():
            out[f"{name}_std"] = value
        if len(self.seeds) > 1:
            out["seeds"] = list(self.seeds)
        if self.cache_hits is not None:
            out["cache_hits"] = self.cache_hits
            out["cache_misses"] = self.cache_misses
        if self.chosen_policy is not None:
            out["chosen_policy"] = self.chosen_policy
        return out


@dataclass
class SweepResult:
    """Everything a finished sweep produced."""

    spec: SweepSpec
    rows: list[CellResult] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        """JSON-ready report (axes, run knobs, one row per cell)."""
        return {
            "shape": self.spec.shape,
            "axes": {f: list(v) for f, v in self.spec.axes.items()},
            "swept": list(self.spec.swept),
            "jobs": self.spec.jobs,
            "scale_mb": self.spec.scale_mb,
            "duration": self.spec.duration,
            "repeats": self.spec.repeats,
            "cells": [row.to_json() for row in self.rows],
        }


def _training_key(config: ServiceConfig) -> tuple:
    """Everything the offline campaign depends on — cells sharing this
    share one trained forest."""
    return (
        config.regions,
        config.vm,
        config.profile,
        config.seed,
        config.n_training_datasets,
        config.n_estimators,
    )


def _train_forest(
    config: ServiceConfig, trained: dict[tuple, ForestPredictor]
) -> ForestPredictor:
    """The trained forest for ``config``'s training key (cached).

    The single source of how a cell's forest is built — the sequential
    path (:func:`_cell_pipeline`) and the parallel pre-trainer
    (:func:`_pretrain`) both call this, so ``--jobs N`` cannot drift
    from a sequential run by training differently.
    """
    key = _training_key(config)
    forest = trained.get(key)
    if forest is None:
        profile = network_profile(config.profile)
        base_weather = profile.fluctuation(seed=config.seed)
        topology = Topology.build(config.regions, config.vm, profile=profile)
        forest = ForestPredictor(topology, base_weather, config)
        forest.train(topology, base_weather, config)
        trained[key] = forest
    return forest


def _cell_pipeline(
    config: ServiceConfig, trained: dict[tuple, ForestPredictor]
) -> Pipeline:
    """Build the cell's pipeline, reusing a trained forest when possible.

    The forest predictor is pure at inference time, so cells differing
    only in variant / scenario / gauger / planner share one instance;
    the ``cached`` predictor gets a fresh memo wrapper per cell so one
    cell's cache never leaks into another's measurements.
    """
    profile = network_profile(config.profile)
    base_weather = profile.fluctuation(seed=config.seed)
    topology = Topology.build(config.regions, config.vm, profile=profile)
    context = {"topology": topology, "weather": base_weather, "config": config}

    predictor = None
    if config.predictor in ("forest", "cached"):
        predictor = _train_forest(config, trained)
        if config.predictor == "cached":
            predictor = CachedPredictor(inner=predictor)
    else:
        predictor = build_stage(predictor_registry, config.predictor, **context)

    gauger = build_stage(gauger_registry, config.gauger, **context)
    planner = build_stage(planner_registry, config.planner, **context)
    return Pipeline(
        topology,
        base_weather,
        config,
        gauger=gauger,
        predictor=predictor,
        planner=planner,
    )


def _run_once(
    spec: SweepSpec,
    config: ServiceConfig,
    trained: dict[tuple, ForestPredictor],
):
    """One service run for one cell/seed; returns the stopped service."""
    from repro.runtime.service import PipelineService, default_job_mix

    pipeline = _cell_pipeline(config, trained)
    service = PipelineService.build(config, pipeline=pipeline)
    mix = default_job_mix(
        config.regions,
        count=spec.jobs,
        seed=config.seed,
        scale_mb=spec.scale_mb,
    )
    mix = [(delay * spec.arrival_scale, job) for delay, job in mix]
    service.submit_mix(mix)
    service.run(until=spec.duration)
    service.stop()
    return service


def run_cell(
    spec: SweepSpec,
    cell: Mapping[str, Any],
    trained: Optional[dict[tuple, ForestPredictor]] = None,
) -> CellResult:
    """Run one matrix cell (all its repetitions) and collect its row."""
    trained = trained if trained is not None else {}
    seeds = tuple(spec.seed_for(r) for r in range(spec.repeats))
    samples: list[dict[str, float]] = []
    first = None
    for seed in seeds:
        config = dataclasses.replace(spec.base, **dict(cell), seed=seed)
        service = _run_once(spec, config, trained)
        if first is None:
            first = service
        row = service.summary().to_row()
        samples.append({name: row[name] for name in METRIC_COLUMNS})
    metrics = {
        name: statistics.fmean(sample[name] for sample in samples)
        for name in METRIC_COLUMNS
    }
    metrics_std = (
        {
            name: statistics.stdev([sample[name] for sample in samples])
            for name in METRIC_COLUMNS
        }
        if len(samples) > 1
        else {}
    )
    predictor = first.pipeline.predictor
    planner = first.pipeline.planner
    return CellResult(
        cell=dict(cell),
        label=spec.label(cell),
        metrics=metrics,
        metrics_std=metrics_std,
        seeds=seeds,
        cache_hits=getattr(predictor, "hits", None),
        cache_misses=getattr(predictor, "misses", None),
        chosen_policy=getattr(planner, "chosen_policy", None),
    )


def _pretrain(spec: SweepSpec) -> dict[tuple, ForestPredictor]:
    """Train every forest the matrix will need, once, in the parent.

    Parallel workers cannot share a lazily-filled cache (each process
    would train its own copy), so the parallel path trains all
    distinct training keys up front and ships the finished predictors
    to the workers.
    """
    trained: dict[tuple, ForestPredictor] = {}
    for cell in spec.cells:
        for repeat in range(spec.repeats):
            config = dataclasses.replace(
                spec.base, **dict(cell), seed=spec.seed_for(repeat)
            )
            if config.predictor in ("forest", "cached"):
                _train_forest(config, trained)
    return trained


#: Per-worker trained-forest cache, installed by the pool initializer
#: so it is pickled once per worker instead of once per cell.
_WORKER_TRAINED: dict[tuple, ForestPredictor] = {}


def _init_worker(trained: dict[tuple, ForestPredictor]) -> None:
    global _WORKER_TRAINED
    _WORKER_TRAINED = trained


def _run_cell_in_worker(spec: SweepSpec, cell: dict[str, Any]) -> CellResult:
    return run_cell(spec, cell, _WORKER_TRAINED)


def run_cells(
    spec: SweepSpec,
    cells: Sequence[Mapping[str, Any]],
    trained: dict[tuple, ForestPredictor],
    workers: int,
    progress=None,
) -> list[CellResult]:
    """Run ``cells`` under ``spec``; rows come back in submission order.

    Sequentially (``workers == 1`` or at most one cell) the cells share
    ``trained`` as a lazily-filled forest cache.  Otherwise a
    :class:`concurrent.futures.ProcessPoolExecutor` runs them, each
    worker starting from ``trained`` (pre-train with
    :func:`_pretrain`), and rows are collected in submission order so
    the result does not depend on which worker finishes first.

    ``progress`` is an optional ``callable(index, total, label)``,
    called as each cell starts (sequential) or finishes (parallel).
    """
    if workers == 1 or len(cells) <= 1:
        rows = []
        for index, cell in enumerate(cells):
            if progress is not None:
                progress(index, len(cells), spec.label(cell))
            rows.append(run_cell(spec, cell, trained))
        return rows
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=min(workers, len(cells)),
        initializer=_init_worker,
        initargs=(trained,),
    ) as pool:
        futures = [
            pool.submit(_run_cell_in_worker, spec, dict(cell)) for cell in cells
        ]
        if progress is not None:
            labels = {
                future: spec.label(cell)
                for future, cell in zip(futures, cells)
            }
            for done, future in enumerate(
                concurrent.futures.as_completed(futures)
            ):
                progress(done, len(cells), labels[future])
        return [future.result() for future in futures]


def run_sweep(spec: SweepSpec, progress=None, workers: int = 1) -> SweepResult:
    """Run every cell of the matrix.

    Cells are independent simulations, so ``workers > 1`` fans them
    out over a process pool (``wanify sweep --jobs N``, see
    :func:`run_cells`).  The report is identical either way: rows
    always appear in matrix order, and each cell's simulation is a
    pure function of its config, so parallel and sequential runs
    produce the same numbers.

    ``progress`` is an optional ``callable(index, total, label)`` the
    CLI uses for per-cell status lines.
    """
    if workers < 1:
        raise SweepError(f"workers must be ≥ 1: {workers}")
    trained = _pretrain(spec) if workers > 1 else {}
    result = SweepResult(spec)
    result.rows = run_cells(spec, spec.cells, trained, workers, progress)
    return result


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        if value != 0.0 and abs(value) < 0.01:
            # Probe dollars are fractions of a cent — don't render a
            # nonzero charge as "0.00".
            return f"{value:.4f}"
        return f"{value:.2f}" if abs(value) < 1000 else f"{value:.0f}"
    return str(value)


def render_markdown(result: SweepResult) -> str:
    """The comparison table as GitHub-flavored markdown.

    With ``repeats > 1`` every metric cell reads ``mean ±stdev``.
    """
    spec = result.spec
    axis_columns = list(spec.swept) or ["variant"]
    extra: list[str] = []
    if any(row.cache_hits is not None for row in result.rows):
        extra.append("cache_hits")
    if any(row.chosen_policy is not None for row in result.rows):
        extra.append("chosen_policy")
    header = axis_columns + list(METRIC_COLUMNS) + extra
    seeds = (
        f"seeds: {spec.seed_for(0)}–{spec.seed_for(spec.repeats - 1)} "
        f"({spec.repeats} repeats per cell)"
        if spec.repeats > 1
        else f"seed: {spec.base.seed}"
    )
    lines = [
        f"# Sweep report ({spec.shape} matrix, {len(result.rows)} cells)",
        "",
        f"jobs per cell: {spec.jobs}, scale: {spec.scale_mb:.0f} MB, "
        f"{seeds}",
        "",
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    for row in result.rows:
        flat = row.to_json()
        cells = []
        for col in header:
            rendered = _format_value(flat.get(col, ""))
            if col in row.metrics_std:
                rendered += f" ±{_format_value(row.metrics_std[col])}"
            cells.append(rendered)
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    return "\n".join(lines)


def write_report(result: SweepResult, output: Union[str, Path]) -> tuple[Path, Path]:
    """Write ``sweep.json`` and ``sweep.md`` under ``output``."""
    directory = Path(output)
    directory.mkdir(parents=True, exist_ok=True)
    json_path = directory / "sweep.json"
    md_path = directory / "sweep.md"
    json_path.write_text(json.dumps(result.to_json(), indent=2) + "\n")
    md_path.write_text(render_markdown(result))
    return json_path, md_path
