#!/usr/bin/env python
"""cProfile the simulator's event hot loop and print the top-N rows.

Two workloads, selected with ``--mode``, both built by the runtime
benchmark (``benchmarks/test_bench_runtime.py``) so the profile and
the bench rows measure the same thing:

* ``kernel`` (default) — the bare event kernel: bulk arrival waves via
  ``schedule_many`` where every arrival cancels and re-arms a shared
  completion event, whose firings chain until the wave drains (the
  ``NetworkSimulator._schedule_completion`` shape with the network
  math stripped out).
* ``network`` — a crowded single-pair ``NetworkSimulator`` drain with
  strictly increasing transfer sizes, so every completion re-shares
  the surviving crowd (the transfer kernel's worst case).

Prints a ``tottime``-sorted table and, with ``--output``, writes the
same rows as JSON for tooling::

    PYTHONPATH=src python scripts/profile_sim.py --transfers 50000 \\
        --top 15 --output profile.json
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT / "benchmarks"))

from repro.sim.kernel import Simulator  # noqa: E402
from test_bench_runtime import (  # noqa: E402
    crowded_pair_network,
    event_kernel_workload,
)


def _kernel_workload(n_transfers: int) -> Simulator:
    """Drive the bench's event-kernel workload in waves of 1000."""
    sim, arrive, _ = event_kernel_workload()
    wave = 1000
    for _ in range(max(1, n_transfers // wave)):
        sim.schedule_many((0.001 * (k // 10), arrive) for k in range(wave))
        sim.run()
    return sim


def _network_workload(n_transfers: int, kernel: str) -> Simulator:
    """Drain the bench's crowded WAN pair."""
    net = crowded_pair_network(kernel, n_transfers)
    net.sim.run()
    return net.sim


def _rows(stats: pstats.Stats, top: int) -> list[dict]:
    """The ``top`` tottime-heaviest profile entries as plain dicts."""
    entries = []
    for (filename, line, name), row in stats.stats.items():  # type: ignore[attr-defined]
        cc, ncalls, tottime, cumtime, _ = row
        entries.append(
            {
                "function": name,
                "file": filename,
                "line": line,
                "ncalls": ncalls,
                "tottime_s": round(tottime, 6),
                "cumtime_s": round(cumtime, 6),
            }
        )
    entries.sort(key=lambda e: e["tottime_s"], reverse=True)
    return entries[:top]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--mode",
        choices=("kernel", "network"),
        default="kernel",
        help="which hot loop to profile",
    )
    parser.add_argument(
        "--transfers",
        type=int,
        default=50_000,
        help="transfers to push through the loop (network mode caps "
        "practical sizes around a few thousand)",
    )
    parser.add_argument(
        "--kernel",
        choices=("scalar", "vectorized"),
        default="vectorized",
        help="transfer-advancement kernel for network mode",
    )
    parser.add_argument(
        "--top", type=int, default=20, help="profile rows to report"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also write the rows as JSON to this path",
    )
    args = parser.parse_args(argv)
    if args.transfers < 1:
        parser.error(f"--transfers must be ≥ 1: {args.transfers}")

    profiler = cProfile.Profile()
    profiler.enable()
    if args.mode == "kernel":
        sim = _kernel_workload(args.transfers)
    else:
        sim = _network_workload(args.transfers, args.kernel)
    profiler.disable()

    stats = pstats.Stats(profiler)
    rows = _rows(stats, args.top)
    total = sum(r["tottime_s"] for r in rows)
    print(
        f"{args.mode} workload: {sim.events_processed} events dispatched; "
        f"top {len(rows)} rows cover {total:.3f} s tottime"
    )
    width = max((len(r["function"]) for r in rows), default=8)
    print(f"{'function':<{width}}  {'ncalls':>10}  {'tottime':>9}  {'cumtime':>9}")
    for r in rows:
        print(
            f"{r['function']:<{width}}  {r['ncalls']:>10}  "
            f"{r['tottime_s']:>9.4f}  {r['cumtime_s']:>9.4f}"
        )
    if args.output is not None:
        payload = {
            "mode": args.mode,
            "transfers": args.transfers,
            "events_processed": sim.events_processed,
            "rows": rows,
        }
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
