"""Shared fixtures for the experiment modules.

Centralizes the things every experiment needs — the 8-region worker and
probe topologies, the network-weather model, and a memoized trained
Pipeline instance (training takes seconds; a dozen experiments shouldn't
repeat it) — plus small formatting helpers for the rendered tables.
"""

from __future__ import annotations

from functools import lru_cache

from repro.cloud.regions import PAPER_REGIONS
from repro.pipeline import Pipeline, PipelineConfig
from repro.net.dynamics import FluctuationModel
from repro.net.topology import Topology

#: Seed for all experiment network weather (reproducible end to end).
WEATHER_SEED = 42

#: Fast settings keep the full suite comfortably under a minute per
#: experiment; full settings match the paper's 100-estimator model.
FAST_CONFIG = PipelineConfig(n_training_datasets=40, n_estimators=30)
FULL_CONFIG = PipelineConfig(n_training_datasets=120, n_estimators=100)

#: Simulation-time instants (seconds into the simulated week) used as
#: "different times of the day" in the evaluation.
EVAL_TIME = 2.0 * 24 * 3600.0 + 7.5 * 3600.0
ALT_EVAL_TIME = 4.0 * 24 * 3600.0 + 16.25 * 3600.0


def fluctuation(seed: int = WEATHER_SEED) -> FluctuationModel:
    """The experiments' network-weather model."""
    return FluctuationModel(seed=seed)


def worker_topology(
    vms_per_dc: int | dict[str, int] = 1,
) -> Topology:
    """The 8-DC t2.medium worker cluster of §5.1."""
    return Topology.build(PAPER_REGIONS, "t2.medium", vms_per_dc)


def probe_topology(region_keys: tuple[str, ...] = PAPER_REGIONS) -> Topology:
    """Unlimited-burst t3.nano probes (the §2.2 motivation setup)."""
    return Topology.build(region_keys, "t3.nano")


@lru_cache(maxsize=8)
def trained_pipeline(
    fast: bool = True,
    vm_key: str = "t2.medium",
    seed: int = WEATHER_SEED,
) -> Pipeline:
    """A Pipeline instance trained on the worker topology (memoized)."""
    topology = Topology.build(PAPER_REGIONS, vm_key)
    config = FAST_CONFIG if fast else FULL_CONFIG
    pipeline = Pipeline(topology, fluctuation(seed), config)
    pipeline.train()
    return pipeline


def improvement_pct(baseline: float, value: float) -> float:
    """Percentage improvement of ``value`` over ``baseline`` (positive =
    better, i.e. smaller)."""
    if baseline <= 0:
        raise ValueError(f"non-positive baseline: {baseline}")
    return 100.0 * (baseline - value) / baseline


def ratio(new: float, old: float) -> float:
    """Simple ratio with a zero guard (used for min-BW speedups)."""
    if old <= 0:
        return float("inf") if new > 0 else 1.0
    return new / old
