"""ifTop-like per-VM runtime bandwidth monitor.

Each WANify local agent runs "lightweight node-level runtime monitoring
(e.g., ifTop)" (§3.2.2).  :class:`WanMonitor` samples a DC's outgoing
rates on a fixed interval and keeps a short history, from which agents
read the latest per-destination bandwidth and the experiment harness
computes standard deviations (Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.net.simulator import NetworkSimulator
from repro.net.stats import percentile
from repro.sim.kernel import Process

#: Signature monitors publish with: ``(dc, time, rates_mbps)``.  A
#: :class:`repro.runtime.telemetry.TelemetryStore` bound method
#: (``store.record``) satisfies it directly.
SampleSink = Callable[[str, float, dict[str, float]], None]


@dataclass
class MonitorSample:
    """One sampling instant: time plus rate per destination DC."""

    time: float
    rates_mbps: dict[str, float] = field(default_factory=dict)


class WanMonitor:
    """Samples outgoing rates of one DC on a fixed interval.

    The monitor also accumulates per-destination transferred volume
    between reads, which the local optimizer uses for its "< 1 MB —
    skip" rule (§3.2.2).
    """

    def __init__(
        self,
        network: NetworkSimulator,
        dc: str,
        interval_s: float = 5.0,
        history: int = 512,
        on_sample: Optional[SampleSink] = None,
    ) -> None:
        self.network = network
        self.dc = dc
        self.interval_s = interval_s
        self.history_limit = history
        self.samples: list[MonitorSample] = []
        #: Optional publication hook — the runtime service passes the
        #: shared telemetry store's ``record`` here, so every agent's
        #: monitor feeds one cluster-wide series.
        self.on_sample = on_sample
        self._volume_anchor: dict[str, float] = {}
        self._process = Process(
            network.sim, interval_s, self._sample, start_delay=interval_s
        )

    def _sample(self, now: float) -> None:
        rates = self.network.outgoing_rates(self.dc)
        self.samples.append(MonitorSample(now, rates))
        if len(self.samples) > self.history_limit:
            del self.samples[: len(self.samples) - self.history_limit]
        if self.on_sample is not None:
            self.on_sample(self.dc, now, dict(rates))

    def latest_rate(self, dst: str) -> float:
        """Most recently sampled rate toward ``dst`` (Mbps), 0 if none."""
        if not self.samples:
            return 0.0
        return self.samples[-1].rates_mbps.get(dst, 0.0)

    def latest(self) -> dict[str, float]:
        """Most recent full sample (empty dict before the first tick)."""
        return dict(self.samples[-1].rates_mbps) if self.samples else {}

    def rate_percentile(self, dst: str, p: float) -> float:
        """Percentile of this monitor's own sampled rates toward ``dst``.

        Only *active* samples count (a rate of 0 means the link was
        idle, which says nothing about its capacity); returns 0 when the
        link never carried traffic.  The cluster-wide view with sliding
        windows and EWMA lives in
        :class:`repro.runtime.telemetry.TelemetryStore` — this is the
        single-node shortcut.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100]: {p}")
        rates = [
            s.rates_mbps.get(dst, 0.0)
            for s in self.samples
            if s.rates_mbps.get(dst, 0.0) > 0.0
        ]
        if not rates:
            return 0.0
        return percentile(rates, p)

    def window_volume_mb(self, dst: str) -> float:
        """Megabytes sent to ``dst`` since the last read for that pair.

        Feeds the §3.2.2 rule that pairs moving < 1 MB skip AIMD mode
        toggles.
        """
        return self.window_volumes_mb((dst,))[dst]

    def window_volumes_mb(self, dsts: Iterable[str]) -> dict[str, float]:
        """:meth:`window_volume_mb` of each of ``dsts``, from one read
        of the simulator's pair statistics."""
        stats = self.network.pair_statistics()
        anchors = self._volume_anchor
        out = {}
        for dst in dsts:
            pair = stats.get((self.dc, dst))
            total_mb = (pair.mbits if pair is not None else 0.0) / 8.0
            out[dst] = max(0.0, total_mb - anchors.get(dst, 0.0))
            anchors[dst] = total_mb
        return out

    def stop(self) -> None:
        """Stop sampling."""
        self._process.stop()
