"""Seeded bandwidth-fluctuation processes.

The paper leans on WAN traffic measurements [38] showing per-link
bandwidth fluctuates but is predictable on the scale of minutes, and
reports an overall standard deviation of ~184 Mbps across its collected
runtime BWs (§5.1).  We model each directed link's capacity as

    cap(t) = base × (1 + diurnal(t) + noise(t))

* ``diurnal`` — a phase-shifted sinusoid per link (daily cycle),
* ``noise`` — a piecewise-smooth mean-reverting term: per-link Gaussian
  values drawn on a coarse time grid (deterministically from the seed,
  link, and grid index), linearly interpolated between grid points.

The grid construction makes ``factor(i, j, t)`` a pure function of
``(seed, i, j, t)``: no sequential state, so measurement replays and
independent simulator instances see the same network weather.

Every per-link draw keyed by link and coarse time (the noise at a grid
point, the diurnal phase, the scenario shapes' link selections and
phases in :mod:`repro.runtime.scenarios`) is memoized by
:func:`_link_normal` / :func:`_link_uniform`, so a simulator that
reprices the same links thousands of times per grid cell seeds one
generator per key, not one per call.  The memo is why ``factor`` must
stay a pure function of ``(seed, i, j, t)``: a draw that read any other
state would be served stale from the cache.  Each memo holds at most
:data:`LINK_DRAW_CACHE_SIZE` entries; the bound is fixed, not
configurable, and evicting an entry only costs its recomputation.

On top of the memos, each :class:`FluctuationModel` keeps one entry per
link, ``(i, j) → (bucket, n0, n1, phase)``: the noise draws at the two
grid points around the bucket the link was last priced in, and its
diurnal phase.  A simulator reprices a link many times per noise
bucket, and each reprice is then one dict lookup instead of three memo
calls; a ``t`` in another bucket refills the entry from the memos.
This keeps ``factor`` a pure function of ``(seed, i, j, t)``: the
entry is used only when its bucket is ``t``'s, it holds exactly what
the memos return for that bucket, and the model's fields are frozen.
The entry is per instance and takes no part in equality, hashing or
``repr``.

The terms that depend on ``t`` alone — the noise bucket, its fraction,
``1 − fraction`` and ``2π·t/DAY_S`` — are kept the same way, as one
tuple that carries its ``t``.  A solve prices every active link at one
instant, so every reprice after the instant's first reuses them; a
``t`` that differs from the tuple's recomputes them with the same
expressions in the same order, so the factor is the same double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

#: Default coarse grid for the noise term (seconds).  WAN traffic is
#: "predictable on the scale of minutes" ([38], cited in §5.8.2), so
#: link weather holds for ~5 minutes — long enough that a snapshot taken
#: at query start stays informative through the query, short enough
#: that a static matrix measured hours earlier is stale.
DEFAULT_NOISE_PERIOD_S = 300.0

#: Day length for the diurnal term.
DAY_S = 24 * 3600.0


#: Link keys wrap modulo 2**64, as unsigned 64-bit arithmetic does.
_KEY_MASK = (1 << 64) - 1


def _link_key(seed: int, i: int, j: int, bucket: int) -> int:
    """The generator seed for (seed, link, time bucket), in Python ints
    (numpy integers are converted, so they cannot overflow)."""
    link = int(i) * 131 + int(j)
    return (
        int(seed) * 1_000_003
        + link * 2_147_483_647
        + (int(bucket) & 0xFFFFFFFF)
    ) & _KEY_MASK


def _link_hash(seed: int, i: int, j: int, bucket: int) -> np.random.Generator:
    """A generator deterministically keyed by (seed, link, time bucket):
    ``np.random.default_rng(key)``, built without its argument dispatch."""
    return np.random.Generator(np.random.PCG64(_link_key(seed, i, j, bucket)))


#: Entries kept by each per-link draw memo, least recently used evicted
#: (~8 MiB when full).  A drain touches a few thousand keys.
LINK_DRAW_CACHE_SIZE = 1 << 15


@lru_cache(maxsize=LINK_DRAW_CACHE_SIZE)
def _link_normal(seed: int, i: int, j: int, bucket: int, sigma: float) -> float:
    """``_link_hash(seed, i, j, bucket).normal(0.0, sigma)``, memoized."""
    return float(_link_hash(seed, i, j, bucket).normal(0.0, sigma))


@lru_cache(maxsize=LINK_DRAW_CACHE_SIZE)
def _link_uniform(
    seed: int, i: int, j: int, bucket: int, low: float, high: float
) -> float:
    """``_link_hash(seed, i, j, bucket).uniform(low, high)``, memoized."""
    return float(_link_hash(seed, i, j, bucket).uniform(low, high))


@dataclass(frozen=True)
class FluctuationModel:
    """Multiplicative time-varying factor per directed link.

    ``sigma`` is the relative standard deviation of the noise term and
    ``diurnal_amplitude`` that of the daily cycle; both default to
    values that put the absolute SD of a mid-range (~1 Gbps) link near
    the paper's ~184 Mbps.
    """

    seed: int = 7
    sigma: float = 0.13
    diurnal_amplitude: float = 0.08
    noise_period_s: float = DEFAULT_NOISE_PERIOD_S
    floor: float = 0.35
    ceiling: float = 1.65
    #: ``(t, bucket, frac, 1 − frac, 2π·t/DAY_S)``: the terms of the
    #: instant last priced, which no link changes.
    _instant: tuple = field(
        default=(math.nan,), init=False, repr=False, compare=False
    )
    #: ``(i, j)`` → ``(bucket, n0, n1, phase)``: the link's draws for
    #: the noise bucket it was last priced in.
    _links: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _noise_at_bucket(self, i: int, j: int, bucket: int) -> float:
        return _link_normal(self.seed, i, j, bucket, self.sigma)

    def _phase(self, i: int, j: int) -> float:
        return _link_uniform(self.seed, i, j, -1, 0.0, 2.0 * math.pi)

    def factor(self, i: int, j: int, t: float) -> float:
        """Multiplicative capacity factor for link ``i → j`` at time ``t``.

        Deterministic in ``(seed, i, j, t)``; mean ≈ 1.

        >>> m = FluctuationModel(seed=1)
        >>> m.factor(0, 1, 10.0) == m.factor(0, 1, 10.0)
        True
        """
        if i == j:
            return 1.0
        instant = self._instant
        if instant[0] != t:
            bucket = math.floor(t / self.noise_period_s)
            frac = t / self.noise_period_s - bucket
            instant = (t, bucket, frac, 1.0 - frac, 2.0 * math.pi * t / DAY_S)
            object.__setattr__(self, "_instant", instant)
        _, bucket, frac, rest, angle = instant
        entry = self._links.get((i, j))
        if entry is None or entry[0] != bucket:
            entry = self._links[i, j] = (
                bucket,
                self._noise_at_bucket(i, j, bucket),
                self._noise_at_bucket(i, j, bucket + 1),
                self._phase(i, j),
            )
        _, n0, n1, phase = entry
        noise = n0 * rest + n1 * frac
        diurnal = self.diurnal_amplitude * math.sin(angle + phase)
        # Must equal ``float(min(max(value, floor), ceiling))`` bit for
        # bit: a NaN stays NaN, and a numpy ``t`` or field gives a float.
        value = 1.0 + noise + diurnal
        if self.floor > value:
            value = self.floor
        if self.ceiling < value:
            value = self.ceiling
        return value if value.__class__ is float else float(value)

    def snapshot_jitter(self, i: int, j: int, t: float, window_s: float) -> float:
        """Extra multiplicative jitter for very short probes.

        A 1-second snapshot sees transient queueing the 20-second stable
        average does not; jitter shrinks with the window so snapshots
        stay positively correlated with stable BW (§2.2's Pearson
        observation).
        """
        if window_s >= 20.0:
            return 1.0
        scale = self.sigma * 0.6 * (1.0 - window_s / 20.0)
        # Keyed by the millisecond, so a key seldom repeats: a memo
        # would only hold one entry per probe.
        rng = _link_hash(self.seed ^ 0x5EED, i, j, int(t * 1000) % (1 << 31))
        jitter = 1.0 + rng.normal(0.0, scale)
        if jitter < 0.5:
            return 0.5
        if jitter > 1.5:
            return 1.5
        return jitter


@dataclass(frozen=True)
class StaticModel:
    """A no-fluctuation stand-in with the same interface (for tests and
    for isolating optimizer behaviour from network weather)."""

    def factor(self, i: int, j: int, t: float) -> float:
        """Always 1."""
        return 1.0

    def snapshot_jitter(self, i: int, j: int, t: float, window_s: float) -> float:
        """Always 1."""
        return 1.0
