"""Traffic-control (tc) style per-pair rate limits.

WANify's local agents throttle BW-rich (nearby) DC pairs so distant
pairs' parallel connections can actually claim capacity (§3.2.2,
"Throttling BW").  This module is the simulator-side equivalent of the
Linux ``tc`` command the prototype uses: a mutable table of per-ordered-
pair rate caps that the simulator consults when computing flow ceilings.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.checks import check_throttle


class TrafficController:
    """Mutable per-(src, dst) rate caps in Mbps.

    An optional ``on_change`` callback lets the network simulator
    re-allocate rates as soon as a limit changes (as a real tc qdisc
    change would take effect immediately).
    """

    def __init__(self) -> None:
        #: ``(src, dst)`` → cap; the simulator's pricing reads it directly.
        self._limits: dict[tuple[str, str], float] = {}
        self._on_change: Optional[Callable[[], None]] = None

    def bind(self, on_change: Callable[[], None]) -> None:
        """Register the simulator's re-allocation hook."""
        self._on_change = on_change

    def _notify(self) -> None:
        if self._on_change is not None:
            self._on_change()

    def set_limit(self, src: str, dst: str, mbps: float) -> None:
        """Cap the aggregate rate from ``src`` to ``dst`` (a positive
        number; NaN is refused, as ``min(cap, nan)`` would ignore it)."""
        check_throttle(mbps)
        self._limits[(src, dst)] = mbps
        self._notify()

    def clear_limit(self, src: str, dst: str) -> None:
        """Remove the cap for one pair (no-op if absent)."""
        if self._limits.pop((src, dst), None) is not None:
            self._notify()

    def clear_all(self) -> None:
        """Remove every cap."""
        if self._limits:
            self._limits.clear()
            self._notify()

    def limit(self, src: str, dst: str) -> float:
        """Current cap for the pair, or +inf when unthrottled."""
        return self._limits.get((src, dst), float("inf"))

    def limits(self) -> dict[tuple[str, str], float]:
        """Snapshot of all configured caps."""
        return dict(self._limits)
