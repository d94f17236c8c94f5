"""Offline config search: successive halving over the sweep matrix.

``wanify tune`` answers the operator question the sweep report leaves
open: *which* cell should I actually deploy?  The search space is the
same registry-driven matrix a ``[sweep]`` table describes (control ×
scheduler × gauger × planner …), the objective is **cheapest feasible**:

    minimize   probe_cost_usd + replan_cost_usd
    subject to slo_attainment ≥ target

A full cartesian product at production fidelity is exactly what the
sweep runner already does — and exactly what a tuner must avoid.  This
module layers successive-halving style pruning on top of the *same*
cell runner (:func:`repro.experiments.sweep.run_cell`): early rungs run
every surviving cell with a reduced job count (a cheap fidelity proxy),
rank them by the objective, and keep only the top ``1/eta`` fraction;
the final rung re-runs the survivors at the file's full ``(jobs,
repeats)`` fidelity, so the winner's reported metrics are *identical*
to what the unpruned sweep path would have measured for that cell.

A tune file is a sweep file plus one more table::

    [sweep]
    schedulers = ["fifo", "deadline-edf"]
    preemptions = ["none", "urgent-slo"]
    jobs = 8
    repeats = 2

    [tune]
    target = 0.9        # SLO-attainment floor (default: base tune_target)
    eta = 2             # survivor fraction per rung (keep 1/eta)
    min_jobs = 1        # fidelity floor for the earliest rung

Entry points: :func:`run_tune` in code, ``wanify tune --config
file.toml`` on the command line (``--dry-run`` prints the rung plan
without running anything).  The report is ``tune.json`` + ``tune.md``
plus ``winner.toml`` — an ordinary layered-config file loadable by
``wanify serve`` and ``wanify sweep`` alike.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.pipeline.config import ServiceConfig, load_config_file
from repro.experiments.sweep import (
    CellResult,
    SweepError,
    SweepSpec,
    _pretrain,
    load_sweep,
    run_cells,
)

#: Objective metrics every ranking reads (subset of METRIC_COLUMNS).
COST_METRICS = ("probe_cost_usd", "replan_cost_usd")


class TuneError(SweepError):
    """A tune file failed validation (bad target, bad eta…)."""


@dataclass(frozen=True)
class TuneSpec:
    """A validated tuning run: the sweep matrix plus the objective."""

    sweep: SweepSpec
    #: Feasibility floor: cells below this SLO attainment only win when
    #: nothing reaches it (the report flags the winner infeasible).
    target: float = 0.9
    #: Survivor fraction per rung — each rung keeps ``ceil(n / eta)``.
    eta: int = 2
    #: Fidelity floor: the earliest rung never runs fewer jobs.
    min_jobs: int = 1


def load_tune(
    path: Union[str, Path],
    environ: Optional[Mapping[str, str]] = None,
    overrides: Optional[Mapping[str, Any]] = None,
) -> TuneSpec:
    """Parse and validate a tune file (a sweep file + ``[tune]``)."""
    sweep = load_sweep(path, environ=environ, overrides=overrides)
    data = load_config_file(path)
    section = data.get("tune", {})
    if not isinstance(section, dict):
        raise TuneError(f"[tune] in {path} must be a table")
    known = {"target", "eta", "min_jobs"}
    unknown = sorted(set(section) - known)
    if unknown:
        raise TuneError(f"unknown [tune] keys {unknown}; known: {sorted(known)}")
    target = float(section.get("target", sweep.base.tune_target))
    if not 0.0 < target <= 1.0:
        raise TuneError(f"[tune] target must be in (0, 1]: {target}")
    eta = int(section.get("eta", 2))
    if eta < 2:
        raise TuneError(f"[tune] eta must be ≥ 2: {eta}")
    min_jobs = int(section.get("min_jobs", 1))
    if not 1 <= min_jobs <= sweep.jobs:
        raise TuneError(
            f"[tune] min_jobs must be in [1, jobs={sweep.jobs}]: {min_jobs}"
        )
    return TuneSpec(sweep=sweep, target=target, eta=eta, min_jobs=min_jobs)


def rung_plan(spec: TuneSpec) -> list[tuple[int, int]]:
    """The ``(jobs, repeats)`` fidelity ladder, cheapest rung first.

    ``ceil(log_eta(cells))`` reduced-fidelity rungs (enough to halve an
    ``n``-cell matrix down to one survivor) followed by one rung at the
    sweep's full ``(jobs, repeats)``.  A single-cell matrix gets just
    the full-fidelity rung — there is nothing to prune.
    """
    cells = len(spec.sweep.cells)
    rounds = math.ceil(math.log(cells) / math.log(spec.eta)) if cells > 1 else 0
    plan = [
        (
            max(spec.min_jobs, spec.sweep.jobs // spec.eta ** (rounds - r)),
            1,
        )
        for r in range(rounds)
    ]
    plan.append((spec.sweep.jobs, spec.sweep.repeats))
    return plan


def _rank_key(
    row: CellResult, target: float, index: int
) -> tuple[int, float, float, int]:
    """Cheapest-feasible ordering: feasibility, cost, attainment, matrix order."""
    attainment = row.metrics["slo_attainment"]
    cost = sum(row.metrics[name] for name in COST_METRICS)
    return (0 if attainment >= target else 1, cost, -attainment, index)


@dataclass
class RungResult:
    """One rung's ledger: what ran at which fidelity, what got pruned."""

    rung: int
    jobs: int
    repeats: int
    evaluated: tuple[str, ...]
    pruned: tuple[str, ...]

    def to_json(self) -> dict[str, Any]:
        """JSON-ready flat representation."""
        return {
            "rung": self.rung,
            "jobs": self.jobs,
            "repeats": self.repeats,
            "evaluated": list(self.evaluated),
            "pruned": list(self.pruned),
        }


@dataclass
class TuneResult:
    """Everything a finished tuning search produced."""

    spec: TuneSpec
    rungs: list[RungResult] = field(default_factory=list)
    winner: Optional[CellResult] = None
    #: Matrix index of the winning cell.
    winner_index: int = 0
    #: Cell-runs actually executed across all rungs (the pruning win:
    #: compare against ``len(cells) × len(rungs)`` unpruned).
    cells_executed: int = 0
    #: Whether the winner actually meets the SLO target (``False``
    #: means *nothing* did and the winner is merely least-bad).
    feasible: bool = False

    def best_config(self) -> ServiceConfig:
        """The winning cell applied to the base config."""
        assert self.winner is not None
        return dataclasses.replace(self.spec.sweep.base, **self.winner.cell)

    def to_json(self) -> dict[str, Any]:
        """The report's JSON body (winner row + rung ledger)."""
        assert self.winner is not None
        cost = sum(self.winner.metrics[name] for name in COST_METRICS)
        return {
            "shape": self.spec.sweep.shape,
            "target": self.spec.target,
            "eta": self.spec.eta,
            "cells": len(self.spec.sweep.cells),
            "cells_executed": self.cells_executed,
            "feasible": self.feasible,
            "winner": self.winner.to_json(),
            "winner_objective_usd": cost,
            "rungs": [rung.to_json() for rung in self.rungs],
        }


def run_tune(spec: TuneSpec, progress=None, workers: int = 1) -> TuneResult:
    """Successive halving over the matrix; returns the cheapest feasible cell.

    ``progress`` is an optional ``callable(done, total, label)``
    matching the sweep runner's hook; labels carry a ``rung r/N``
    prefix.  Pruned cells are never executed again — each rung runs
    only its survivors, and a survivor whose fidelity did not change
    between rungs reuses the row it already measured.
    """
    if workers < 1:
        raise TuneError(f"workers must be ≥ 1: {workers}")
    sweep = spec.sweep
    cells = sweep.cells
    if not cells:
        raise TuneError("the tune matrix is empty")
    plan = rung_plan(spec)
    trained = _pretrain(sweep) if workers > 1 else {}
    survivors = list(range(len(cells)))
    result = TuneResult(spec)
    #: (jobs, repeats, cell index) → measured row, so an unchanged
    #: fidelity never re-runs a survivor.
    measured: dict[tuple[int, int, int], CellResult] = {}
    done = 0
    expected = len(cells)
    total = 0
    for _ in plan:
        total += expected
        expected = max(1, math.ceil(expected / spec.eta))
    for rung_index, (jobs_r, repeats_r) in enumerate(plan):
        rung_spec = dataclasses.replace(sweep, jobs=jobs_r, repeats=repeats_r)
        to_run = [
            i for i in survivors if (jobs_r, repeats_r, i) not in measured
        ]
        if progress is not None:
            for i in to_run:
                progress(
                    done,
                    total,
                    f"rung {rung_index + 1}/{len(plan)} "
                    f"(jobs={jobs_r}): {sweep.label(cells[i])}",
                )
                done += 1
        rows = run_cells(
            rung_spec, [cells[i] for i in to_run], trained, workers
        )
        for i, row in zip(to_run, rows):
            measured[(jobs_r, repeats_r, i)] = row
        result.cells_executed += len(to_run)
        ranked = sorted(
            survivors,
            key=lambda i: _rank_key(
                measured[(jobs_r, repeats_r, i)], spec.target, i
            ),
        )
        if rung_index < len(plan) - 1:
            keep = max(1, math.ceil(len(survivors) / spec.eta))
            kept = sorted(ranked[:keep])
        else:
            kept = [ranked[0]]
        pruned = [i for i in survivors if i not in kept]
        result.rungs.append(
            RungResult(
                rung=rung_index,
                jobs=jobs_r,
                repeats=repeats_r,
                evaluated=tuple(sweep.label(cells[i]) for i in survivors),
                pruned=tuple(sweep.label(cells[i]) for i in pruned),
            )
        )
        survivors = kept
    winner_index = survivors[0]
    final_jobs, final_repeats = plan[-1]
    result.winner_index = winner_index
    result.winner = measured[(final_jobs, final_repeats, winner_index)]
    result.feasible = result.winner.metrics["slo_attainment"] >= spec.target
    return result


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def _toml_value(value: Any) -> str:
    """One config value as a TOML literal."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(_toml_value(v) for v in value) + "]"
    return json.dumps(str(value))


def winning_toml(result: TuneResult) -> str:
    """The winner as a flat layered-config TOML.

    Every non-``None`` :class:`ServiceConfig` field is spelled out
    (not just the swept ones), so the file is self-contained: loading
    it through ``serve``, ``sweep``, or ``tune`` reproduces the
    winning cell exactly, independent of default drift.
    """
    config = result.best_config()
    lines = [
        "# Winning configuration from `wanify tune`",
        f"# objective: probe+replan cost with slo_attainment >= {result.spec.target}",
        f"# winning cell: {result.winner.label}"
        if result.winner is not None
        else "#",
    ]
    for field_ in dataclasses.fields(type(config)):
        value = getattr(config, field_.name)
        if value is None:
            continue
        lines.append(f"{field_.name} = {_toml_value(value)}")
    lines.append("")
    return "\n".join(lines)


def render_tune_markdown(result: TuneResult) -> str:
    """The tuning report as GitHub-flavored markdown."""
    spec = result.spec
    winner = result.winner
    assert winner is not None
    cost = sum(winner.metrics[name] for name in COST_METRICS)
    unpruned = len(spec.sweep.cells)
    lines = [
        f"# Tuning report ({spec.sweep.shape} matrix, "
        f"{result.cells_executed} cell-runs)",
        "",
        f"objective: minimize probe+replan cost subject to "
        f"`slo_attainment ≥ {spec.target}` (eta = {spec.eta}); "
        f"full sweep would run {unpruned} cells at full fidelity.",
        "",
        "## Rungs",
        "",
        "| rung | jobs | repeats | evaluated | pruned |",
        "|---|---|---|---|---|",
    ]
    for rung in result.rungs:
        lines.append(
            f"| {rung.rung + 1} | {rung.jobs} | {rung.repeats} "
            f"| {len(rung.evaluated)} | "
            f"{', '.join(rung.pruned) if rung.pruned else '—'} |"
        )
    verdict = (
        "meets the target"
        if result.feasible
        else "**misses the target** (no cell reached it; least-bad shown)"
    )
    lines += [
        "",
        "## Winner",
        "",
        f"`{winner.label}` — {verdict}:",
        "",
        f"- slo_attainment: {winner.metrics['slo_attainment']:.3f}",
        f"- probe+replan cost: ${cost:.4f}",
        f"- mean JCT: {winner.metrics['mean_jct_s']:.1f} s",
        "",
        "The full configuration is written alongside this report as "
        "`winner.toml`, loadable by `wanify serve` and `wanify sweep`.",
        "",
    ]
    return "\n".join(lines)


def write_tune_report(
    result: TuneResult, output: Union[str, Path]
) -> tuple[Path, Path, Path]:
    """Write ``tune.json``, ``tune.md`` and ``winner.toml`` under ``output``."""
    directory = Path(output)
    directory.mkdir(parents=True, exist_ok=True)
    json_path = directory / "tune.json"
    md_path = directory / "tune.md"
    toml_path = directory / "winner.toml"
    json_path.write_text(json.dumps(result.to_json(), indent=2) + "\n")
    md_path.write_text(render_tune_markdown(result))
    toml_path.write_text(winning_toml(result))
    return json_path, md_path, toml_path
