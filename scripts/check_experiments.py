#!/usr/bin/env python
"""Paper-figure gate: every experiment must render byte-identically.

Renders each entry of ``repro.experiments.report.EXPERIMENTS`` with
``fast=True`` and compares the sha256 of its rendering against the
committed digest in ``benchmarks/experiments_fast.sha256`` (one
``<sha256>  <experiment id>`` line each, in report order, after a
``# python … numpy …`` line naming the versions that rendered them).
Renderings are bit-identical only under those versions — the
experiments run numpy arithmetic — so CI pins them, and a mismatch is
reported next to any failure.  A change that is meant to leave the
simulated outcomes alone must leave every digest alone; one that moves
a figure on purpose regenerates the file with ``--write`` and says why.

``--render DIR`` also writes each rendering to ``DIR/<experiment id>.txt``,
so the figures of two checkouts can be compared line by line with
``diff -r``.

Run locally (about half a minute)::

    python scripts/check_experiments.py                 # compare
    python scripts/check_experiments.py --render out/   # compare, keep renderings
    python scripts/check_experiments.py --write         # regenerate the digests

Exit code 0 when every digest matches; 1 listing the experiments that
differ, are missing from the file, or are no longer registered.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: The committed digests.
DIGESTS = REPO / "benchmarks" / "experiments_fast.sha256"


def environment() -> str:
    """The versions a rendering depends on, as the digest file records
    them: the Python minor version and the exact numpy."""
    import numpy

    python = ".".join(map(str, sys.version_info[:2]))
    return f"python {python} numpy {numpy.__version__}"


def render_all() -> dict[str, str]:
    """``{experiment id: its fast rendering}`` in report order."""
    from repro.experiments.report import EXPERIMENTS

    out: dict[str, str] = {}
    for exp_id, _title, module in EXPERIMENTS:
        start = time.perf_counter()
        out[exp_id] = module.render(module.run(fast=True))
        print(f"[{exp_id}] {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return out


def digest(body: str) -> str:
    """The sha256 of one rendering."""
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def write_renderings(directory: Path, bodies: dict[str, str]) -> None:
    """Write each rendering to ``directory/<experiment id>.txt``."""
    directory.mkdir(parents=True, exist_ok=True)
    for exp_id, body in bodies.items():
        (directory / f"{exp_id}.txt").write_text(body)


def read_digests(path: Path) -> tuple[str, dict[str, str]]:
    """Parse a digest file written by :func:`write_digests`:
    ``(recorded environment, {experiment id: sha256})``."""
    recorded = ""
    out: dict[str, str] = {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            recorded = line.lstrip("# ").strip()
        elif line.strip():
            digest, exp_id = line.split()
            out[exp_id] = digest
    return recorded, out


def write_digests(path: Path, digests: dict[str, str]) -> None:
    """Write the environment line, then ``digests`` in ``sha256sum``
    layout."""
    lines = [f"# {environment()}\n"]
    lines += [f"{d}  {exp_id}\n" for exp_id, d in digests.items()]
    path.write_text("".join(lines))


def compare(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """One finding per experiment whose digest is missing or differs."""
    findings = [
        f"{exp_id}: rendering changed ({expected[exp_id][:12]} -> {digest[:12]})"
        for exp_id, digest in actual.items()
        if exp_id in expected and expected[exp_id] != digest
    ]
    findings += [f"{exp_id}: no committed digest" for exp_id in actual if exp_id not in expected]
    findings += [f"{exp_id}: no longer registered" for exp_id in expected if exp_id not in actual]
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="regenerate the digest file")
    parser.add_argument(
        "--render", type=Path, metavar="DIR", help="also write each rendering to DIR/<id>.txt"
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(REPO / "src"))
    bodies = render_all()
    if args.render is not None:
        write_renderings(args.render, bodies)
        print(f"wrote {len(bodies)} renderings to {args.render}")
    actual = {exp_id: digest(body) for exp_id, body in bodies.items()}
    if args.write:
        write_digests(DIGESTS, actual)
        print(f"wrote {len(actual)} digests to {DIGESTS.relative_to(REPO)}")
        return 0
    recorded, expected = read_digests(DIGESTS)
    findings = compare(expected, actual)
    for finding in findings:
        print(f"FAIL {finding}")
    if findings:
        if recorded != environment():
            print(f"note: digests were recorded under {recorded or 'an unrecorded environment'};")
            print(f"      this run used {environment()}")
        return 1
    print(f"all {len(actual)} experiment renderings match {DIGESTS.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
