"""Shared bandwidth telemetry: per-link series + capacity estimators.

Every DC's :class:`~repro.net.monitor.WanMonitor` publishes its samples
here, making the store the cluster-wide source of truth about observed
WAN rates (a monitor itself keeps only its latest tick) and the only
place a sample is stored: the observability warehouse's rollups read
the same per-link lists.  On top of the raw
series the store offers the estimators practical WAN tooling uses for
circuit-capacity tracking: sliding-window percentiles (p50 for "typical
achieved rate", p95 for "capacity when the link was pushed") and an
EWMA for a smoothed instantaneous view.

Samples where a link was idle (zero rate) are kept in the series — the
experiment harness reads utilization off them — but are excluded from
capacity percentiles by default: an idle link says nothing about what
it could carry.

The zero samples are *not* dropped, though.  During a full link outage
the monitors keep publishing zero rates, and those ticks are the only
evidence the outage exists: every estimator here accepts
``active_only=False`` to count them toward the percentile window, which
is the view outage-aware consumers (the
:class:`~repro.runtime.recalibrator.CapacityRecalibrator`) read.  With
zeros counted, a window dominated by outage ticks drags the percentile
toward zero instead of replaying the stale pre-outage capacity forever.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from repro.net.stats import percentile

#: Default sliding window for percentile estimators (seconds).  Matches
#: the fluctuation grid (~5 min): capacity estimates should span one
#: "weather bucket", not average across several.
DEFAULT_WINDOW_S = 300.0

#: Default per-link sample bound.
DEFAULT_MAXLEN = 512

#: Default EWMA smoothing factor.
DEFAULT_EWMA_ALPHA = 0.25


@dataclass(frozen=True)
class LinkEstimate:
    """Summary of one directed link's recent telemetry.

    ``p50``/``p95`` are sliding-window percentiles over *active*
    samples; ``ewma`` smooths all samples (idle included); ``samples``
    counts active samples inside the window; ``last_time`` is the most
    recent sample instant (idle or not), ``nan`` if the link was never
    sampled.
    """

    p50: float
    p95: float
    ewma: float
    samples: int
    last_time: float

    @classmethod
    def empty(cls) -> "LinkEstimate":
        """The sentinel estimate for a never-sampled link.

        All-zero statistics with ``last_time`` ``nan`` — callers that
        need to distinguish "no data" from "measured zero" check
        :attr:`is_empty` instead of comparing magnitudes.
        """
        return cls(
            p50=0.0, p95=0.0, ewma=0.0, samples=0, last_time=float("nan")
        )

    @property
    def is_empty(self) -> bool:
        """No *active* samples backed this estimate.

        True both for a never-sampled link (``last_time`` is ``nan``)
        and for one whose window held only idle samples — in either
        case the percentiles say nothing about capacity.
        """
        return self.samples == 0


class LinkSeries:
    """One link's samples in two parallel lists, in time order (the
    window is cut by bisecting :attr:`times`, so an earlier sample is
    refused).  Estimators read at most the last ``maxlen`` samples;
    without ``keep_all`` the lists are trimmed to that, amortized."""

    def __init__(
        self,
        maxlen: int = DEFAULT_MAXLEN,
        ewma_alpha: float = DEFAULT_EWMA_ALPHA,
        *,
        keep_all: bool = False,
        name: str = "link",
    ) -> None:
        if maxlen < 1:
            raise ValueError(f"maxlen must be ≥ 1: {maxlen}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1]: {ewma_alpha}")
        self.times: list[float] = []
        self.rates: list[float] = []
        self.maxlen = maxlen
        self.ewma_alpha = ewma_alpha
        self.name = name
        self._trim_at = math.inf if keep_all else 2 * maxlen
        self._ewma: float | None = None

    def add(self, time: float, rate_mbps: float) -> None:
        """Record one sample; updates the EWMA."""
        times = self.times
        if times and time < times[-1]:
            raise ValueError(f"{self.name}: sample at t={time!r} precedes t={times[-1]!r}")
        times.append(time)
        self.rates.append(rate_mbps)
        if self._ewma is None:
            self._ewma = rate_mbps
        else:
            a = self.ewma_alpha
            self._ewma = a * rate_mbps + (1.0 - a) * self._ewma
        if len(times) > self._trim_at:
            del times[: -self.maxlen]
            del self.rates[: -self.maxlen]

    @property
    def ewma(self) -> float:
        """Smoothed rate (0 before the first sample)."""
        return self._ewma if self._ewma is not None else 0.0

    @property
    def last_time(self) -> float:
        """Time of the newest sample (``nan`` when empty)."""
        return self.times[-1] if self.times else float("nan")

    def window(self, window_s: float | None = None) -> list[float]:
        """Rates inside the trailing window (the last ``maxlen`` if ``None``)."""
        times = self.times
        lo = max(0, len(times) - self.maxlen)
        if window_s is not None and times:
            lo = bisect_left(times, times[-1] - window_s, lo)
        return self.rates[lo:]

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

    ``keep_all`` (fixed at construction) keeps every sample for a
    :class:`~repro.runtime.observability.warehouse.MetricsLog` to read;
    otherwise memory stays bounded.  Estimates are the same either way.
    """

    def __init__(
        self,
        window_s: float = DEFAULT_WINDOW_S,
        maxlen: int = DEFAULT_MAXLEN,
        ewma_alpha: float = DEFAULT_EWMA_ALPHA,
        *,
        keep_all: bool = False,
    ) -> None:
        self.window_s = window_s
        self.maxlen = maxlen
        self.ewma_alpha = ewma_alpha
        self.keep_all = keep_all
        self._series: dict[tuple[str, str], LinkSeries] = {}
        self.total_samples = 0

    # -- ingestion ------------------------------------------------------

    def record(self, dc: str, time: float, rates_mbps: dict[str, float]) -> None:
        """Ingest one monitor tick: ``dc``'s outgoing rates at ``time``."""
        # Each link is looked up once; :meth:`series` only creates.
        known = self._series
        for dst, rate in rates_mbps.items():
            found = known.get((dc, dst))
            if found is None:
                found = self.series(dc, dst)
            found.add(time, rate)
        self.total_samples += 1

    # -- access ---------------------------------------------------------

    def series(self, src: str, dst: str) -> LinkSeries:
        """The (auto-created) series for one directed link."""
        key = (src, dst)
        found = self._series.get(key)
        if found is None:
            found = self._series[key] = LinkSeries(
                self.maxlen,
                self.ewma_alpha,
                keep_all=self.keep_all,
                name=f"{src}→{dst}",
            )
        return found

    def links(self) -> list[tuple[str, str]]:
        """All links that have ever been sampled, sorted."""
        return sorted(self._series)

    def sampled(self) -> list[tuple[tuple[str, str], LinkSeries]]:
        """Every link holding samples with its series, sorted by link."""
        return sorted((key, series) for key, series in self._series.items() if series.times)

    def read_window(
        self, src: str, dst: str, window_s: float | None = None
    ) -> tuple[float, list[float]]:
        """One link's newest sample time and trailing-window rates (store
        window unless given); ``(nan, [])`` if never sampled."""
        found = self._series.get((src, dst))
        if found is None:
            return math.nan, []
        return found.last_time, found.window(self.window_s if window_s is None else window_s)

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
