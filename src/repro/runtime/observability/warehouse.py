"""The telemetry warehouse: an append-only metrics log with rollups.

The :class:`~repro.runtime.telemetry.TelemetryStore` is a sliding
window — it answers "what is this link doing *now*" and forgets.  NOC
operation needs the opposite: durable history an operator (or the
auto-tuner) can aggregate over.  :class:`MetricsLog` is that history:
every monitor tick the store ingests is also appended here, raw and
unbounded, and :meth:`MetricsLog.rollup` turns the log into the
time-grain aggregates real WAN dashboards show — per-link (or
per-region) min/mean/p50/p95/max, *time above threshold* at 70/80/90 %
of link capacity in both **cumulative** (total seconds) and
**continuous** (longest unbroken run) flavors, flap counts, and
availability %.

Threshold semantics follow hourly WAN-circuit reporting practice: a
link pinned above 80 % of capacity for 40 cumulative minutes is busy;
one above 80 % for 40 *continuous* minutes is congested — the two
columns distinguish bursty from sustained saturation.  A **flap** is
an up→down transition (an active link going idle); **availability** is
the share of samples that saw the link carrying traffic at all.

Rollups are computed lazily and memoized on the log length, so the
ingest path stays a bare list append — cheap enough to leave on for
every run (the runtime benchmark pins the overhead below 5 %).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional

import numpy as np

from repro.net.stats import percentile

#: Rollup grain name → bucket width in seconds.
GRAINS: dict[str, float] = {"1m": 60.0, "10m": 600.0, "1h": 3600.0}

#: Capacity thresholds (percent) the time-above columns track.
THRESHOLD_PCTS: tuple[int, ...] = (70, 80, 90)

#: Supported rollup aggregation levels.
ROLLUP_LEVELS: tuple[str, ...] = ("link", "region")


@dataclass(frozen=True)
class RollupRow:
    """One (grain, bucket, group) aggregate of the metrics log.

    ``group`` is ``"src→dst"`` for link-level rollups and the source
    region key for region-level ones.  ``above_s`` / ``continuous_s``
    map a threshold percent (70/80/90) to seconds spent at or above
    that share of capacity — total and longest-unbroken-run
    respectively.  ``capacity_mbps`` is 0 when no capacity oracle was
    attached (threshold columns are then all zero too).
    """

    grain: str
    bucket_start: float
    group: str
    samples: int
    min_mbps: float
    mean_mbps: float
    p50_mbps: float
    p95_mbps: float
    max_mbps: float
    above_s: Mapping[int, float]
    continuous_s: Mapping[int, float]
    flaps: int
    availability_pct: float
    capacity_mbps: float

    def to_json(self) -> dict[str, Any]:
        """Flat JSON-ready representation (threshold maps unpacked)."""
        out: dict[str, Any] = {
            "grain": self.grain,
            "bucket_start": self.bucket_start,
            "group": self.group,
            "samples": self.samples,
            "min_mbps": self.min_mbps,
            "mean_mbps": self.mean_mbps,
            "p50_mbps": self.p50_mbps,
            "p95_mbps": self.p95_mbps,
            "max_mbps": self.max_mbps,
            "flaps": self.flaps,
            "availability_pct": self.availability_pct,
            "capacity_mbps": self.capacity_mbps,
        }
        for pct in sorted(self.above_s):
            out[f"above_{pct}_s"] = self.above_s[pct]
            out[f"above_{pct}_continuous_s"] = self.continuous_s[pct]
        return out

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "RollupRow":
        """Inverse of :meth:`to_json` (for recorded-run files)."""
        above = {
            pct: float(data[f"above_{pct}_s"])
            for pct in THRESHOLD_PCTS
            if f"above_{pct}_s" in data
        }
        continuous = {
            pct: float(data[f"above_{pct}_continuous_s"])
            for pct in THRESHOLD_PCTS
            if f"above_{pct}_continuous_s" in data
        }
        return cls(
            grain=str(data["grain"]),
            bucket_start=float(data["bucket_start"]),
            group=str(data["group"]),
            samples=int(data["samples"]),
            min_mbps=float(data["min_mbps"]),
            mean_mbps=float(data["mean_mbps"]),
            p50_mbps=float(data["p50_mbps"]),
            p95_mbps=float(data["p95_mbps"]),
            max_mbps=float(data["max_mbps"]),
            above_s=above,
            continuous_s=continuous,
            flaps=int(data["flaps"]),
            availability_pct=float(data["availability_pct"]),
            capacity_mbps=float(data["capacity_mbps"]),
        )


def link_key(src: str, dst: str) -> str:
    """The canonical ``src→dst`` spelling of a directed link."""
    return f"{src}→{dst}"


def bucket_start(time: float, width: float) -> float:
    """Start of the ``width``-second rollup bucket holding ``time``.

    The one bucketing rule: rollups group by it and
    :meth:`MetricsLog.rollup_rows` counts by it.  Equals
    ``np.floor(time / width) * width`` for every finite sample time.
    """
    return math.floor(time / width) * width


class _LinkBucketStats:
    """Mutable accumulator for one (bucket, link) group."""

    __slots__ = (
        "rates",
        "above",
        "continuous",
        "run",
        "flaps",
        "active",
        "capacity",
    )

    def __init__(self, capacity: float) -> None:
        self.rates: list[float] = []
        self.above: dict[int, float] = {pct: 0.0 for pct in THRESHOLD_PCTS}
        self.continuous: dict[int, float] = {
            pct: 0.0 for pct in THRESHOLD_PCTS
        }
        self.run: dict[int, float] = {pct: 0.0 for pct in THRESHOLD_PCTS}
        self.flaps = 0
        self.active = 0
        self.capacity = capacity


class MetricsLog:
    """Append-only warehouse of per-link bandwidth samples + rollups.

    ``capacity_of(src, dst)`` supplies each link's nominal capacity in
    Mbps for the threshold columns; without it the thresholds read 0
    (min/mean/percentile columns still work).  :meth:`record` matches
    the :data:`~repro.net.monitor.SampleSink` signature, so the log can
    be attached straight to a
    :class:`~repro.runtime.telemetry.TelemetryStore` via
    :meth:`~repro.runtime.telemetry.TelemetryStore.attach`.
    """

    def __init__(
        self,
        capacity_of: Optional[Callable[[str, str], float]] = None,
    ) -> None:
        self.capacity_of = capacity_of
        #: The append-only log: ``(time, src, dst, rate_mbps)`` rows.
        self.entries: list[tuple[float, str, str, float]] = []
        self._capacity_cache: dict[tuple[str, str], float] = {}
        #: (grain, by) → (log length at compute time, rows).
        self._rollup_cache: dict[
            tuple[str, str], tuple[int, list[RollupRow]]
        ] = {}

    # -- ingestion ------------------------------------------------------

    def record(self, dc: str, time: float, rates_mbps: dict[str, float]) -> None:
        """Ingest one monitor tick (the ``SampleSink`` signature)."""
        append = self.entries.append
        for dst, rate in rates_mbps.items():
            append((time, dc, dst, rate))

    def observe(self, time: float, src: str, dst: str, rate_mbps: float) -> None:
        """Append a single link sample (test/synthetic feeder)."""
        self.entries.append((time, src, dst, rate_mbps))

    # -- capacity -------------------------------------------------------

    def capacity_mbps(self, src: str, dst: str) -> float:
        """The link's nominal capacity (0 without an oracle)."""
        key = (src, dst)
        found = self._capacity_cache.get(key)
        if found is None:
            found = (
                float(self.capacity_of(src, dst))
                if self.capacity_of is not None
                else 0.0
            )
            self._capacity_cache[key] = found
        return found

    # -- rollups --------------------------------------------------------

    @property
    def size(self) -> int:
        """Samples ingested so far."""
        return len(self.entries)

    def links(self) -> list[tuple[str, str]]:
        """Every directed link the log has seen, sorted."""
        return sorted({(src, dst) for _, src, dst, _ in self.entries})

    def rollup(self, grain: str = "1m", by: str = "link") -> list[RollupRow]:
        """Aggregate the log at one time grain.

        ``by="link"`` groups per directed link; ``by="region"`` pools
        every link sharing a source region (percentiles over the pooled
        samples, flaps and cumulative time-above summed across member
        links, continuous time-above the max over members, capacity the
        sum).  Rows come back sorted by (bucket, group).  Results are
        memoized until the log grows.
        """
        if grain not in GRAINS:
            raise ValueError(
                f"unknown grain {grain!r}; known: {', '.join(GRAINS)}"
            )
        if by not in ROLLUP_LEVELS:
            raise ValueError(
                f"unknown rollup level {by!r}; known: "
                f"{', '.join(ROLLUP_LEVELS)}"
            )
        cached = self._rollup_cache.get((grain, by))
        if cached is not None and cached[0] == len(self.entries):
            return cached[1]
        rows = self._compute(grain, by)
        self._rollup_cache[(grain, by)] = (len(self.entries), rows)
        return rows

    def rollup_rows(self) -> int:
        """Total link-level rollup rows across every grain.

        A link-level rollup has one row per distinct ``(bucket, src,
        dst)`` key, so this counts the keys of every grain in one pass
        over the log instead of building the rows.
        """
        widths = tuple(GRAINS.values())
        keys = {
            (width, bucket_start(time, width), src, dst)
            for time, src, dst, _ in self.entries
            for width in widths
        }
        return len(keys)

    def _compute(self, grain: str, by: str) -> list[RollupRow]:
        width = GRAINS[grain]
        # Pass 1: per-(bucket, link) accumulation.  Samples arrive in
        # time order per link (monitors tick forward), so consecutive
        # entries of one link bound each sample's represented interval.
        stats: dict[tuple[float, str, str], _LinkBucketStats] = {}
        last_seen: dict[tuple[str, str], tuple[float, float]] = {}
        for time, src, dst, rate in self.entries:
            bucket = bucket_start(time, width)
            key = (bucket, src, dst)
            group = stats.get(key)
            if group is None:
                group = stats[key] = _LinkBucketStats(
                    self.capacity_mbps(src, dst)
                )
            group.rates.append(rate)
            if rate > 0.0:
                group.active += 1
            previous = last_seen.get((src, dst))
            last_seen[(src, dst)] = (time, rate)
            if previous is None:
                continue
            prev_time, prev_rate = previous
            # The interval this sample represents, clipped to its
            # bucket — a sample straddling a boundary only charges the
            # portion inside its own bucket.
            dt = min(max(0.0, time - prev_time), time - bucket)
            if prev_rate > 0.0 and rate <= 0.0:
                group.flaps += 1
            capacity = group.capacity
            if capacity <= 0.0 or dt <= 0.0:
                continue
            for pct in THRESHOLD_PCTS:
                if rate >= capacity * (pct / 100.0):
                    group.above[pct] += dt
                    group.run[pct] += dt
                    group.continuous[pct] = max(
                        group.continuous[pct], group.run[pct]
                    )
                else:
                    group.run[pct] = 0.0
        if by == "link":
            return [
                self._finish(
                    grain, bucket, link_key(src, dst), group
                )
                for (bucket, src, dst), group in sorted(stats.items())
            ]
        # Region level: merge link accumulators sharing a source.
        merged: dict[tuple[float, str], _LinkBucketStats] = {}
        capacity_seen: dict[tuple[float, str], set[str]] = {}
        for (bucket, src, dst), group in sorted(stats.items()):
            key = (bucket, src)
            pool = merged.get(key)
            if pool is None:
                pool = merged[key] = _LinkBucketStats(0.0)
                capacity_seen[key] = set()
            pool.rates.extend(group.rates)
            pool.active += group.active
            pool.flaps += group.flaps
            if dst not in capacity_seen[key]:
                capacity_seen[key].add(dst)
                pool.capacity += group.capacity
            for pct in THRESHOLD_PCTS:
                pool.above[pct] += group.above[pct]
                pool.continuous[pct] = max(
                    pool.continuous[pct], group.continuous[pct]
                )
        return [
            self._finish(grain, bucket, src, group)
            for (bucket, src), group in sorted(merged.items())
        ]

    @staticmethod
    def _finish(
        grain: str, bucket: float, group: str, acc: _LinkBucketStats
    ) -> RollupRow:
        rates = np.asarray(acc.rates)
        p50, p95 = percentile(acc.rates, (50, 95))
        return RollupRow(
            grain=grain,
            bucket_start=bucket,
            group=group,
            samples=len(acc.rates),
            min_mbps=float(rates.min()),
            mean_mbps=float(rates.mean()),
            p50_mbps=p50,
            p95_mbps=p95,
            max_mbps=float(rates.max()),
            above_s=dict(acc.above),
            continuous_s=dict(acc.continuous),
            flaps=acc.flaps,
            availability_pct=100.0 * acc.active / len(acc.rates),
            capacity_mbps=acc.capacity,
        )


def merge_link_rollups(rows: Iterable[RollupRow]) -> dict[str, dict[str, float]]:
    """Collapse link rollup rows across buckets into per-link totals.

    The KPI layer's congestion view: for each link, the peak and p95
    rates over the whole run, cumulative seconds above each threshold,
    the longest continuous stretch, total flaps, and sample-weighted
    availability.
    """
    out: dict[str, dict[str, float]] = {}
    for row in rows:
        link = out.setdefault(
            row.group,
            {
                "samples": 0.0,
                "p95_mbps": 0.0,
                "max_mbps": 0.0,
                "flaps": 0.0,
                "capacity_mbps": row.capacity_mbps,
                "availability_weighted": 0.0,
                **{f"above_{pct}_s": 0.0 for pct in THRESHOLD_PCTS},
                **{
                    f"above_{pct}_continuous_s": 0.0
                    for pct in THRESHOLD_PCTS
                },
            },
        )
        link["samples"] += row.samples
        link["p95_mbps"] = max(link["p95_mbps"], row.p95_mbps)
        link["max_mbps"] = max(link["max_mbps"], row.max_mbps)
        link["flaps"] += row.flaps
        link["availability_weighted"] += row.availability_pct * row.samples
        for pct in THRESHOLD_PCTS:
            link[f"above_{pct}_s"] += row.above_s.get(pct, 0.0)
            link[f"above_{pct}_continuous_s"] = max(
                link[f"above_{pct}_continuous_s"],
                row.continuous_s.get(pct, 0.0),
            )
    for link in out.values():
        samples = link.pop("samples")
        weighted = link.pop("availability_weighted")
        link["availability_pct"] = weighted / samples if samples else 0.0
        link["samples"] = samples
    return out
