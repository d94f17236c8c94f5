"""ifTop-like per-VM runtime bandwidth monitor.

Each WANify local agent runs "lightweight node-level runtime monitoring
(e.g., ifTop)" (§3.2.2).  :class:`WanMonitor` samples a DC's outgoing
rates on a fixed interval and keeps only the latest tick, from which
agents read the current per-destination bandwidth.  Every tick is also
published through ``on_sample``; the runtime service's
:class:`~repro.runtime.telemetry.TelemetryStore` is the one place
samples are kept.  An agent's per-epoch window volumes read only the
monitored DC's pairs, after one progress of the simulator
(:meth:`~repro.net.simulator.NetworkSimulator.sent_mbits`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.net.simulator import NetworkSimulator
from repro.sim.kernel import Process

#: Signature monitors publish with: ``(dc, time, rates_mbps)``.  A
#: :class:`repro.runtime.telemetry.TelemetryStore` bound method
#: (``store.record``) satisfies it directly.
SampleSink = Callable[[str, float, dict[str, float]], None]


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
        on_sample: Optional[SampleSink] = None,
    ) -> None:
        self.network = network
        self.dc = dc
        self.interval_s = interval_s
        #: Optional publication hook — the runtime service passes the
        #: shared telemetry store's ``record`` here, so every agent's
        #: monitor feeds one cluster-wide series.
        self.on_sample = on_sample
        self._latest: dict[str, float] = {}
        self._volume_anchor: dict[str, float] = {}
        self._process = Process(
            network.sim, interval_s, self._sample, start_delay=interval_s
        )

    def _sample(self, now: float) -> None:
        self._latest = self.network.outgoing_rates(self.dc)
        if self.on_sample is not None:
            self.on_sample(self.dc, now, dict(self._latest))

    def latest(self) -> dict[str, float]:
        """Most recent full sample (empty dict before the first tick)."""
        return dict(self._latest)

    def window_volumes_mb(self, dsts: Iterable[str]) -> dict[str, float]:
        """Megabytes sent to each of ``dsts`` since the last read for
        that pair, from one read of just those pairs' statistics
        (:meth:`~repro.net.simulator.NetworkSimulator.sent_mbits`).

        Feeds the §3.2.2 rule that pairs moving < 1 MB skip AIMD mode
        toggles.
        """
        dsts = list(dsts)
        anchors = self._volume_anchor
        out = {}
        for dst, mbits in zip(dsts, self.network.sent_mbits(self.dc, dsts)):
            total_mb = mbits / 8.0
            # ``max(0.0, window)``: -0.0 and NaN read 0.0 too.
            window = total_mb - anchors.get(dst, 0.0)
            out[dst] = window if window > 0.0 else 0.0
            anchors[dst] = total_mb
        return out

    def stop(self) -> None:
        """Stop sampling."""
        self._process.stop()
