"""Heavy dependencies load where they are first used, not at import.

``http.server`` (~6 MB) loads with the first ``/metrics`` endpoint, and
scipy (~49 MB, ~0.5 s) never: the placement LP is solved in the repo.
A process that trains, predicts, plans, places or drains shards pays
for neither.  Each check runs in a fresh interpreter, because this test
session has imported everything already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

PRELUDE = """
import sys

def loaded():
    return sorted(m for m in ("scipy", "http.server") if m in sys.modules)
"""


def _run(code: str) -> list[str]:
    """Run ``code`` after the prelude; return its printed lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH")))
    )
    result = subprocess.run(
        [sys.executable, "-c", PRELUDE + code],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_pipeline_and_serial_shard_drain_load_neither():
    lines = _run(
        """
from repro import FluctuationModel, Pipeline, PipelineConfig, Topology
from repro.pipeline import ServiceConfig
from repro.runtime.service import PipelineService, default_job_mix

regions = ("us-east-1", "us-west-1", "ap-southeast-1")
pipeline = Pipeline(
    Topology.build(regions, "t2.medium"),
    FluctuationModel(seed=9),
    PipelineConfig(n_training_datasets=4, n_estimators=2),
)
pipeline.train()
pipeline.plan(pipeline.predict(at_time=500.0))
config = ServiceConfig(
    regions=regions,
    n_training_datasets=4,
    n_estimators=2,
    scheduler_shards=2,
    shard_workers=1,
)
service = PipelineService.build(config)
stats = service.drain_parallel(
    default_job_mix(regions, count=3, seed=config.seed, scale_mb=200.0)
)
service.stop()
print(int(stats["completed"]))
print(loaded())
"""
    )
    assert lines == ["3", "[]"]


def test_placements_load_no_scipy_and_keep_highs_fractions():
    lines = _run(
        """
import numpy as np
from repro.gda.engine.cluster import GeoCluster
from repro.gda.engine.dag import StageSpec
from repro.gda.systems import IridiumPolicy, KimchiPolicy, TetriumPolicy
from repro.net.dynamics import StaticModel
from repro.net.matrix import BandwidthMatrix

triad = ("us-east-1", "us-west-1", "ap-southeast-1")
cluster = GeoCluster.build(triad, "t2.medium", fluctuation=StaticModel())
bw = BandwidthMatrix(
    triad, np.array([[0, 900, 120], [900, 0, 130], [120, 130, 0]], float)
)
stage = StageSpec("reduce", cpu_s_per_mb=0.1, output_ratio=1.0, shuffle=True)
data = dict(zip(triad, (200.0, 700.0, 1500.0)))
policies = (TetriumPolicy(), KimchiPolicy(cost_weight=30000.0), IridiumPolicy())
for policy in policies:
    placement = policy.place_stage(stage, data, bw, cluster)
    print(*(repr(placement[dc]) for dc in triad))
print(loaded())
"""
    )
    assert lines[-1] == "[]"
    # The fractions scipy's HiGHS gave for the same three placements.
    highs = [
        [0.22702702702702704, 0.245945945945946, 0.5270270270270271],
        [0.12, 0.28, 0.6],
        [0.30400000000000005, 0.32933333333333337, 0.3666666666666667],
    ]
    for line, expected in zip(lines[:-1], highs, strict=True):
        fractions = [float(value) for value in line.split()]
        assert fractions == pytest.approx(expected, rel=0.0, abs=1e-12)


def test_metrics_endpoint_loads_http_server_and_serves():
    lines = _run(
        """
from repro.runtime.observability.prometheus import (
    MetricsEndpoint,
    parse_prometheus_text,
)

print(loaded())
endpoint = MetricsEndpoint(
    lambda: "# HELP a_total A.\\n# TYPE a_total counter\\na_total 1\\n"
)
print(loaded())
import urllib.request

try:
    with urllib.request.urlopen(endpoint.url) as response:
        body = response.read().decode()
finally:
    endpoint.close()
print(parse_prometheus_text(body)["a_total"]["samples"])
"""
    )
    assert lines == ["[]", "['http.server']", "[('a_total', {}, 1.0)]"]
