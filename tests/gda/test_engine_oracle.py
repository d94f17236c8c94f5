"""``GdaEngine.run`` against the blocking engine it replaced.

``GdaEngine.run`` drives the event-driven ``JobRun``; the engine that
pumped the simulator stage by stage lives on unchanged in
``oracle_engine.py``.  Every ``JobResult`` field (cost breakdown, every
``StageMetrics`` and its placement included) and the simulation clock
after the run must be bit-equal to the oracle's, over jobs × placement
policies × decision matrices × deployments, for a fresh run and for a
second ``reset=False`` run on the same cluster.

``sim.events_processed`` is not compared: ``JobRun`` schedules an event
for each compute phase end and a zero-delay hop for each empty transfer
batch, where the oracle advanced the clock with ``sim.run(until=…)``.
Those events move no simulated time and no transfer.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict

import pytest
from oracle_engine import GdaEngine as OracleEngine

from repro.gda.engine.cluster import GeoCluster
from repro.gda.engine.dag import JobSpec, StageSpec
from repro.gda.engine.engine import GdaEngine
from repro.gda.systems.iridium import IridiumPolicy
from repro.gda.systems.kimchi import KimchiPolicy
from repro.gda.systems.tetrium import TetriumPolicy
from repro.gda.systems.vanilla import LocalityPolicy
from repro.gda.workloads.terasort import terasort_job
from repro.gda.workloads.tpcds import tpcds_job
from repro.net.dynamics import FluctuationModel
from repro.net.topology import Topology
from repro.pipeline import Pipeline, PipelineConfig

REGIONS = ("us-east-1", "us-west-1", "eu-west-1", "ap-southeast-1")
AT_TIME = 1000.0
SEED = 31

#: 40 % of the input on the far DC, so Iridium migrates.
SKEWED = {
    "us-east-1": 240.0,
    "us-west-1": 240.0,
    "eu-west-1": 240.0,
    "ap-southeast-1": 480.0,
}

JOBS = {
    "compute-only": JobSpec(
        "compute-only",
        [StageSpec("map", 0.05, 0.5), StageSpec("agg", 0.02, 1.0)],
        dict(SKEWED),
    ),
    "zero-cpu": JobSpec(
        "zero-cpu",
        [StageSpec("map", 0.0, 1.0), StageSpec("red", 0.0, 0.5, shuffle=True)],
        dict(SKEWED),
    ),
    "single-dc": terasort_job({"eu-west-1": 600.0}, name="single-dc"),
    "terasort": terasort_job(dict(SKEWED)),
    "q95": tpcds_job(95, dict(SKEWED)),
}

POLICIES = {
    "locality": LocalityPolicy,
    "tetrium": TetriumPolicy,
    "kimchi": KimchiPolicy,
    "iridium": IridiumPolicy,
}

DEPLOYMENTS = (None, "wanify-tc", "single")


@pytest.fixture(scope="module")
def pipeline():
    pipe = Pipeline(
        Topology.build(REGIONS, "t2.medium"),
        FluctuationModel(seed=SEED),
        PipelineConfig(n_training_datasets=6, n_estimators=5),
    )
    pipe.train()
    return pipe


@pytest.fixture(scope="module")
def predicted(pipeline):
    return pipeline.predict(at_time=AT_TIME)


def _runs(engine_cls, pipeline, job, policy, decision_bw, variant):
    """A fresh run, then a second run on the same cluster without reset."""
    cluster = GeoCluster.build(
        REGIONS,
        "t2.medium",
        fluctuation=FluctuationModel(seed=SEED),
        time_offset=AT_TIME,
    )
    engine = engine_cls(cluster)
    observed = []
    for reset in (True, False):
        deployment = (
            None if variant is None
            else pipeline.deployment(variant, decision_bw, at_time=AT_TIME)
        )
        result = engine.run(
            job, policy(), decision_bw, deployment, reset=reset
        )
        observed.append((result, cluster.network.sim.now))
    return observed


def _bits(result, now) -> str:
    """Every field, floats by exact repr (``-0.0`` ≠ ``0.0``)."""
    return repr((asdict(result), now))


@pytest.mark.parametrize(
    "job_name,policy_name",
    list(itertools.product(JOBS, POLICIES)),
)
def test_engine_matches_blocking_oracle(
    pipeline, predicted, job_name, policy_name
):
    job, policy = JOBS[job_name], POLICIES[policy_name]
    for decision_bw, variant in itertools.product(
        (None, predicted), DEPLOYMENTS
    ):
        ours = _runs(GdaEngine, pipeline, job, policy, decision_bw, variant)
        theirs = _runs(
            OracleEngine, pipeline, job, policy, decision_bw, variant
        )
        for (a, a_now), (b, b_now) in zip(ours, theirs):
            assert _bits(a, a_now) == _bits(b, b_now), (
                job_name, policy_name, decision_bw is not None, variant
            )


@pytest.mark.parametrize("job_name", ["terasort", "q95"])
def test_matrix_covers_migration(pipeline, predicted, job_name):
    """Iridium moves input on the skewed jobs, so the migration phase
    is part of what the oracle comparison pins."""
    (first, _), _ = _runs(
        GdaEngine, pipeline, JOBS[job_name], IridiumPolicy, predicted, None
    )
    assert first.migration_mb > 0
    assert first.migration_s > 0
