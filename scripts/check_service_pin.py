#!/usr/bin/env python
"""Service-path pin: the benchmark workloads must repeat across commits.

For every workload of ``perfbench/workloads.py`` at seeds 1–3, sets it
up once, runs one repetition, and compares the repetition's fingerprint
and outcome metrics (``jct_mean_s``, ``slo_attainment``,
``probe_cost_usd``, ``predict_mape_pct``) with the committed values in
``benchmarks/service_pin.txt``.  At seed 1 the repetition of each
simulator workload (serve-online, batch-sharded) runs under
``perfbench/tracer.py``, and its per-layer counts (:data:`TRACED`) are
compared too: a change that prices, solves or steps around the traced
calls moves them.  Neither perfbench file is changed; the script only
imports them.

The pin file holds one ``<workload> <seed> <name> <value>`` line per
value, after a ``# python … numpy …`` line naming the versions
that wrote it, like ``benchmarks/experiments_fast.sha256``: the forest
and the solver's floats are bit-exact only under those versions, so a
mismatch is reported next to any failure.  A change meant to leave the
service's outcomes alone must pass unchanged; one that moves them on
purpose regenerates the file with ``--write`` and says why.

Run locally (about ten seconds)::

    python scripts/check_service_pin.py           # compare
    python scripts/check_service_pin.py --write   # regenerate the pin file

Exit code 0 when every value matches; 1 listing the values that
differ, are missing from the file or are no longer measured, and any
repetition that failed an operation or a workload check.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

from check_experiments import environment

REPO = Path(__file__).resolve().parent.parent

#: The committed values.
PIN = REPO / "benchmarks" / "service_pin.txt"

SEEDS = (1, 2, 3)

#: The workloads whose seed-1 repetition is traced.
TRACED_WORKLOADS = ("serve-online", "batch-sharded")

#: Pinned per-layer counts → (tracer table part, tracer key), as
#: ``perfbench/run.py`` reads them.
TRACED = {
    "net.reprice_calls": ("calls", "net.reprice"),
    "net.factor_calls": ("calls", "net.factor"),
    "net.alloc_calls": ("calls", "net.alloc"),
    "net.transfers": ("calls", "net.start"),
    "sim.events": ("counts", "sim.events"),
    "core.agent_epochs": ("calls", "core.agent"),
    "runtime.telemetry_records": ("calls", "runtime.telemetry"),
}


def _traced_rep(workload, state, tracer_module):
    """One repetition under the tracer: its outcome and pinned counts,
    summed over this process and every shard worker."""
    with tempfile.TemporaryDirectory() as spill:
        tracer = tracer_module.Tracer(spill_dir=Path(spill))
        tracer.install()
        try:
            outcome = workload.rep(state)
        finally:
            tracer.uninstall()
        tables = [tracer.table(), *tracer.workers]
    counts = {
        name: sum(table[part].get(key, 0) for table in tables)
        for name, (part, key) in TRACED.items()
    }
    return outcome, counts


def measure() -> tuple[dict[str, str], list[str]]:
    """``({"<workload> <seed> <name>": value text}, problems)`` for
    every workload at :data:`SEEDS`."""
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(REPO / "perfbench"))
    import tracer
    from workloads import WORKLOADS

    values: dict[str, str] = {}
    problems: list[str] = []
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            start = time.perf_counter()
            state = workload.setup(seed)
            counts: dict[str, int] = {}
            if seed == 1 and name in TRACED_WORKLOADS:
                outcome, counts = _traced_rep(workload, state, tracer)
            else:
                outcome = workload.rep(state)
            extra, finish_problems = workload.finish([state], seed)
            prefix = f"{name} {seed}"
            values[f"{prefix} fingerprint"] = outcome.fingerprint
            for metric, value in sorted({**outcome.metrics, **extra}.items()):
                values[f"{prefix} {metric}"] = repr(float(value))
            for count, value in counts.items():
                values[f"{prefix} {count}"] = str(value)
            if outcome.failed:
                problems.append(f"{prefix}: {outcome.failed} of {outcome.attempted} failed")
            problems += [f"{prefix}: {p}" for p in outcome.problems + finish_problems]
            print(f"[{prefix}] {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return values, problems


def read_pin(path: Path) -> tuple[str, dict[str, str]]:
    """Parse a pin file written by :func:`write_pin`: ``(recorded
    environment, {"<workload> <seed> <name>": value text})``."""
    recorded = ""
    out: dict[str, str] = {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            recorded = line.lstrip("# ").strip()
        elif line.strip():
            workload, seed, name, value = line.split()
            out[f"{workload} {seed} {name}"] = value
    return recorded, out


def write_pin(path: Path, values: dict[str, str]) -> None:
    """Write the environment line, then one line per value."""
    lines = [f"# {environment()}\n"]
    lines += [f"{key} {value}\n" for key, value in values.items()]
    path.write_text("".join(lines))


def compare(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """One finding per value that is missing or differs."""
    findings = [
        f"{key}: {expected[key]} -> {value}"
        for key, value in actual.items()
        if key in expected and expected[key] != value
    ]
    findings += [f"{key}: not in the pin file" for key in actual if key not in expected]
    findings += [f"{key}: no longer measured" for key in expected if key not in actual]
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="regenerate the pin file")
    args = parser.parse_args(argv)
    actual, problems = measure()
    for problem in problems:
        print(f"FAIL {problem}")
    if args.write:
        if problems:
            print("not writing a pin of failed repetitions")
            return 1
        write_pin(PIN, actual)
        print(f"wrote {len(actual)} values to {PIN.relative_to(REPO)}")
        return 0
    recorded, expected = read_pin(PIN)
    findings = compare(expected, actual)
    for finding in findings:
        print(f"FAIL {finding}")
    if findings or problems:
        if findings and recorded != environment():
            print(f"note: values were recorded under {recorded or 'an unrecorded environment'};")
            print(f"      this run used {environment()}")
        return 1
    print(f"all {len(actual)} values match {PIN.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
