#!/usr/bin/env python
"""CI smoke: serve briefly, scrape /metrics, validate the exposition.

Launches ``python -m repro serve`` as a subprocess with an ephemeral
metrics port and a linger window, finds the advertised scrape URL on
its stdout, fetches ``/metrics``, and strictly parses the response with
:func:`repro.runtime.observability.parse_prometheus_text`.  The check
fails if the text does not parse, if any family in
:data:`~repro.runtime.observability.REQUIRED_METRIC_FAMILIES` is
missing, if the scrape returns a family that list does not declare, or
if the completed-jobs counter does not match the workload — i.e. if the
service stopped being observable or a family landed undeclared.
"""

from __future__ import annotations

import subprocess
import sys
import time
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.runtime.observability import (  # noqa: E402 - path set above
    REQUIRED_METRIC_FAMILIES,
    parse_prometheus_text,
)

SERVE = [
    sys.executable,
    "-u",
    "-m",
    "repro",
    "serve",
    "us-east-1",
    "us-west-1",
    "ap-southeast-1",
    "--jobs",
    "2",
    "--scale-mb",
    "600",
    "--datasets",
    "6",
    "--estimators",
    "5",
    "--metrics-port",
    "0",
    "--metrics-linger",
    "60",
]

#: Overall deadline for the whole smoke (seconds).
DEADLINE_S = 240.0


def main() -> int:
    """Entry point; returns the process exit code."""
    import os

    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    process = subprocess.Popen(
        SERVE,
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    url = None
    deadline = time.monotonic() + DEADLINE_S
    try:
        assert process.stdout is not None
        # The URL prints before the run; the linger line marks the run
        # done (final counters).  Scraping is valid from either point —
        # waiting for the linger keeps the assertions deterministic.
        for line in process.stdout:
            sys.stdout.write(line)
            if line.startswith("metrics: "):
                url = line.split("metrics: ", 1)[1].strip()
            if "lingering" in line:
                break
            if time.monotonic() > deadline:
                print("smoke_metrics: timed out waiting for serve")
                return 1
        if url is None:
            print("smoke_metrics: serve never advertised a metrics URL")
            return 1
        with urllib.request.urlopen(url, timeout=30.0) as response:
            content_type = response.headers.get("Content-Type", "")
            body = response.read().decode()
        if "version=0.0.4" not in content_type:
            print(f"smoke_metrics: bad Content-Type {content_type!r}")
            return 1
        families = parse_prometheus_text(body)
        missing = [
            name for name in REQUIRED_METRIC_FAMILIES if name not in families
        ]
        if missing:
            print(f"smoke_metrics: missing families: {', '.join(missing)}")
            return 1
        undeclared = sorted(set(families) - set(REQUIRED_METRIC_FAMILIES))
        if undeclared:
            print(
                "smoke_metrics: families not in REQUIRED_METRIC_FAMILIES: "
                f"{', '.join(undeclared)}"
            )
            return 1
        completed = families["wanify_jobs_completed_total"]["samples"]
        if completed != [("wanify_jobs_completed_total", {}, 2.0)]:
            print(f"smoke_metrics: unexpected job count: {completed}")
            return 1
        print(
            f"smoke_metrics: OK — {len(families)} families, "
            f"{sum(len(f['samples']) for f in families.values())} samples "
            f"from {url}"
        )
        return 0
    finally:
        process.kill()
        process.wait(timeout=30.0)


if __name__ == "__main__":
    sys.exit(main())
