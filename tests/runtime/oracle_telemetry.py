"""The sample store and metrics log as they were before the per-link
lists, kept as the oracle for ``repro.runtime.telemetry`` and
``repro.runtime.observability.warehouse``.

:class:`LinkSeries` kept a deque of ``(time, rate)`` tuples and cut its
trailing window by filtering every retained sample;
:class:`TelemetryStore` forwarded each monitor tick to attached sinks;
:class:`MetricsLog` appended a ``(time, src, dst, rate)`` row per link
sample to an unbounded list and aggregated that list.  All three are
copied unchanged (the row, bucket and percentile helpers they call are
imported, since the current code keeps them as they were);
``test_telemetry_oracle.py`` requires the current store and log to
match them exactly.  Do not edit them to follow ``repro.runtime``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

import numpy as np

from repro.net.matrix import BandwidthMatrix
from repro.net.stats import percentile
from repro.runtime.observability.warehouse import (
    GRAINS,
    ROLLUP_LEVELS,
    THRESHOLD_PCTS,
    RollupRow,
    _LinkBucketStats,
    bucket_start,
    link_key,
)
from repro.runtime.telemetry import (
    DEFAULT_EWMA_ALPHA,
    DEFAULT_MAXLEN,
    DEFAULT_WINDOW_S,
    LinkEstimate,
)


class LinkSeries:
    """Bounded time series of (time, rate) samples for one link."""

    def __init__(
        self,
        maxlen: int = DEFAULT_MAXLEN,
        ewma_alpha: float = DEFAULT_EWMA_ALPHA,
    ) -> None:
        if maxlen < 1:
            raise ValueError(f"maxlen must be ≥ 1: {maxlen}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1]: {ewma_alpha}")
        self.samples: deque[tuple[float, float]] = deque(maxlen=maxlen)
        self.ewma_alpha = ewma_alpha
        self._ewma: float | None = None

    def add(self, time: float, rate_mbps: float) -> None:
        """Record one sample; updates the EWMA."""
        self.samples.append((time, rate_mbps))
        if self._ewma is None:
            self._ewma = rate_mbps
        else:
            a = self.ewma_alpha
            self._ewma = a * rate_mbps + (1.0 - a) * self._ewma

    @property
    def ewma(self) -> float:
        """Smoothed rate (0 before the first sample)."""
        return self._ewma if self._ewma is not None else 0.0

    @property
    def last_time(self) -> float:
        """Time of the newest sample (``nan`` when empty)."""
        return self.samples[-1][0] if self.samples else float("nan")

    def window(self, window_s: float | None = None) -> list[float]:
        """Rates inside the trailing window (all retained if ``None``)."""
        if not self.samples:
            return []
        if window_s is None:
            return [rate for _, rate in self.samples]
        cutoff = self.samples[-1][0] - window_s
        return [rate for t, rate in self.samples if t >= cutoff]

    def percentile(
        self,
        p: float,
        window_s: float | None = None,
        active_only: bool = True,
    ) -> float:
        """Sliding-window percentile of recent rates.

        With ``active_only`` (the default), idle samples are dropped
        first — the estimator answers "what does this link carry when
        it carries something".  Returns 0 for an empty window; a single
        sample is its own percentile for every ``p``.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100]: {p}")
        rates = self.window(window_s)
        if active_only:
            rates = [r for r in rates if r > 0.0]
        if not rates:
            return 0.0
        return percentile(rates, p)

    def estimate(self, window_s: float | None = None) -> LinkEstimate:
        """The full estimator bundle for this link."""
        rates = self.window(window_s)
        active = [r for r in rates if r > 0.0]
        p50, p95 = percentile(active, (50, 95)) if active else (0.0, 0.0)
        return LinkEstimate(
            p50=p50,
            p95=p95,
            ewma=self.ewma,
            samples=len(active),
            last_time=self.last_time,
        )


class TelemetryStore:
    """Cluster-wide store of per-link bandwidth telemetry.

    ``record`` has the signature monitors publish with
    (``on_sample(dc, time, rates)``), so a store instance can be handed
    directly to :class:`~repro.net.monitor.WanMonitor`.
    """

    def __init__(
        self,
        window_s: float = DEFAULT_WINDOW_S,
        maxlen: int = DEFAULT_MAXLEN,
        ewma_alpha: float = DEFAULT_EWMA_ALPHA,
    ) -> None:
        self.window_s = window_s
        self.maxlen = maxlen
        self.ewma_alpha = ewma_alpha
        self._series: dict[tuple[str, str], LinkSeries] = {}
        self.total_samples = 0
        self._sinks: list[Callable[[str, float, dict[str, float]], None]] = []

    # -- ingestion ------------------------------------------------------

    def attach(
        self, sink: Callable[[str, float, dict[str, float]], None]
    ) -> None:
        """Forward every future :meth:`record` call to ``sink`` too.

        ``sink`` has the same ``(dc, time, rates)`` signature monitors
        publish with — this is how the observability warehouse's
        :class:`~repro.runtime.observability.warehouse.MetricsLog`
        receives a copy of every sample without the monitors knowing
        it exists.
        """
        self._sinks.append(sink)

    def record(self, dc: str, time: float, rates_mbps: dict[str, float]) -> None:
        """Ingest one monitor tick: ``dc``'s outgoing rates at ``time``."""
        for dst, rate in rates_mbps.items():
            self.series(dc, dst).add(time, rate)
        self.total_samples += 1
        for sink in self._sinks:
            sink(dc, time, rates_mbps)

    # -- access ---------------------------------------------------------

    def series(self, src: str, dst: str) -> LinkSeries:
        """The (auto-created) series for one directed link."""
        key = (src, dst)
        found = self._series.get(key)
        if found is None:
            found = self._series[key] = LinkSeries(
                self.maxlen, self.ewma_alpha
            )
        return found

    def links(self) -> list[tuple[str, str]]:
        """All links that have ever been sampled, sorted."""
        return sorted(self._series)

    def estimate(
        self, src: str, dst: str, window_s: float | None = None
    ) -> LinkEstimate:
        """Estimator bundle for one link (store window unless given).

        A read-only peek: asking about a never-sampled link returns
        the :meth:`LinkEstimate.empty` sentinel *without* creating a
        series (previously this polluted :meth:`links` with phantom
        entries every probe of an unknown pair).
        """
        found = self._series.get((src, dst))
        if found is None:
            return LinkEstimate.empty()
        return found.estimate(self.window_s if window_s is None else window_s)

    def capacity_mbps(
        self,
        src: str,
        dst: str,
        percentile: float = 95.0,
        window_s: float | None = None,
        active_only: bool = True,
    ) -> float:
        """Sliding-window capacity estimate (p95 by default).

        Read-only like :meth:`estimate`: an unsampled link reads 0
        and leaves no phantom series behind.  ``window_s`` overrides
        the store's default trailing window; ``active_only=False``
        counts zero-rate (idle/outage) ticks toward the percentile —
        the honest view when a link may be down rather than idle.
        """
        found = self._series.get((src, dst))
        if found is None:
            return 0.0
        return found.percentile(
            percentile,
            self.window_s if window_s is None else window_s,
            active_only=active_only,
        )

    def estimate_matrix(
        self,
        keys: tuple[str, ...],
        percentile: float = 50.0,
        window_s: float | None = None,
        active_only: bool = True,
    ) -> BandwidthMatrix:
        """Percentile estimates for every ordered pair as a matrix.

        Unsampled or idle pairs come out 0 — callers blend this with a
        predicted matrix rather than consuming it raw.  ``window_s``
        and ``active_only`` pass through to :meth:`capacity_mbps`.
        """
        out = BandwidthMatrix.zeros(keys)
        for src, dst in out.pairs():
            if (src, dst) in self._series:
                out.set(
                    src,
                    dst,
                    self.capacity_mbps(
                        src,
                        dst,
                        percentile,
                        window_s=window_s,
                        active_only=active_only,
                    ),
                )
        return out


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
