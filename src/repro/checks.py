"""Valid values of the knobs, each rule stated once.

A config field declares its rule (``config_field(check=...)``) and a
constructor taking the same value calls the same rule, so a value is
refused with one message whichever way it comes in.  The module imports
nothing from :mod:`repro`, so every layer can use it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AtLeast:
    """A number no smaller than ``low`` (NaN is not)."""

    what: str
    low: int

    def __call__(self, value: float) -> None:
        # Written so NaN fails: every comparison with NaN is false.
        if not value >= self.low:
            raise ValueError(f"{self.what} must be ≥ {self.low}: {value}")


@dataclass(frozen=True)
class Positive:
    """A number above zero (NaN is not)."""

    what: str

    def __call__(self, value: float) -> None:
        if not value > 0:
            raise ValueError(f"{self.what} must be positive: {value}")


@dataclass(frozen=True)
class Between:
    """A number from ``low`` to ``high``, both included (NaN is not)."""

    what: str
    low: int
    high: int

    def __call__(self, value: float) -> None:
        if not self.low <= value <= self.high:
            raise ValueError(f"{self.what} must be in [{self.low}, {self.high}]: {value}")


@dataclass(frozen=True)
class OneOf:
    """One of a fixed tuple of names."""

    what: str
    choices: tuple[str, ...]

    def __call__(self, value: str) -> None:
        if value not in self.choices:
            raise ValueError(f"unknown {self.what} {value!r}; known: {', '.join(self.choices)}")


#: Transfer-advancement kernels of the WAN simulator.
KERNELS = ("scalar", "vectorized")

check_connections = AtLeast("max_connections", 1)
check_min_difference = AtLeast("min_difference", 0)
check_datasets = AtLeast("n_datasets", 1)
check_estimators = AtLeast("n_estimators", 1)
check_concurrency = AtLeast("max_concurrent", 1)
check_shards = AtLeast("shard count", 1)
check_workers = AtLeast("shard workers", 0)
check_batch = AtLeast("batch", 1)
check_deadline = Positive("deadline_s")
check_interval = Positive("interval")
#: A drift threshold at or below 0 fires on every assessable link (an
#: error is never below 0), so every check would re-plan.
check_threshold = Positive("threshold")
check_kernel = OneOf("kernel", KERNELS)
#: 0 asks the OS for an ephemeral port.
check_port = Between("port", 0, 65535)
check_throttle = Positive("throttle")


def check_autoscale(ceiling: int, floor: int) -> None:
    """The autoscaler moves concurrency between ``floor`` and ``ceiling``."""
    if ceiling < floor:
        raise ValueError(
            f"autoscale_max must be ≥ the concurrency floor ({floor}) when autoscaling: {ceiling}"
        )
