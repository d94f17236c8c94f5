"""Shared test fixtures: small topologies and deterministic weather."""

import numpy as np
import pytest

from repro.cloud.regions import PAPER_REGIONS
from repro.net.dynamics import DAY_S, FluctuationModel, StaticModel, _link_hash
from repro.net.topology import Topology

#: A 3-DC corner of the paper's testbed: two nearby DCs + one distant.
TRIAD = ("us-east-1", "us-west-1", "ap-southeast-1")


@pytest.fixture
def triad() -> Topology:
    """3-DC probe topology (t3.nano, like the §2.2 motivation)."""
    return Topology.build(TRIAD, "t3.nano")


@pytest.fixture
def triad_workers() -> Topology:
    """3-DC worker topology (t2.medium)."""
    return Topology.build(TRIAD, "t2.medium")


@pytest.fixture
def full_topology() -> Topology:
    """All 8 paper regions on worker VMs."""
    return Topology.build(PAPER_REGIONS, "t2.medium")


@pytest.fixture
def weather() -> FluctuationModel:
    """Seeded fluctuation model."""
    return FluctuationModel(seed=123)


@pytest.fixture
def calm() -> StaticModel:
    """No fluctuation."""
    return StaticModel()


def _uncached_factor(model: FluctuationModel, i: int, j: int, t: float) -> float:
    """``FluctuationModel.factor`` without memoization: a fresh generator
    per draw and numpy scalar arithmetic throughout (the parity oracle)."""
    if i == j:
        return 1.0
    bucket = int(np.floor(t / model.noise_period_s))
    frac = t / model.noise_period_s - bucket
    n0 = float(_link_hash(model.seed, i, j, bucket).normal(0.0, model.sigma))
    n1 = float(_link_hash(model.seed, i, j, bucket + 1).normal(0.0, model.sigma))
    noise = n0 * (1.0 - frac) + n1 * frac
    phase = float(_link_hash(model.seed, i, j, -1).uniform(0.0, 2.0 * np.pi))
    diurnal = model.diurnal_amplitude * np.sin(2.0 * np.pi * t / DAY_S + phase)
    return float(np.clip(1.0 + noise + diurnal, model.floor, model.ceiling))


@pytest.fixture
def uncached_factor():
    """The uncached weather oracle, ``(model, i, j, t) → factor``."""
    return _uncached_factor
