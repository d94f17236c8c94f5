"""Structured event tracing: a ring buffer of control-loop decisions.

Aggregates say *how much*; a timeline says *what happened*.  The
:class:`EventTrace` is a bounded ring of :class:`TraceEvent` records —
admissions, preemptions, re-plans, drift firings, governor cap moves,
autoscaler steps — each with its simulated timestamp and a small detail
mapping, so ``wanify report --trace`` can reconstruct the causal story
of any recorded run ("the flash crowd hit, drift fired at t=612, the
re-plan cost $0.003, the governor capped two pairs, job tpcds-4 still
missed by 40 s").

The ring is deliberately bounded (4096 events by default):
tracing must never become the memory leak it exists to diagnose.  The
``recorded`` counter and the per-kind ``totals`` keep counting past
evictions, so ``dropped = recorded - len(events())`` is always honest
and the hub's event counters on ``/metrics`` read ``totals``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional

#: The event kinds the built-in instrumentation emits.  User code may
#: record others; these are the ones the KPI layer knows how to read.
EVENT_KINDS: tuple[str, ...] = (
    "submit",
    "admit",
    "finish",
    "preempt",
    "drift",
    "replan",
    "cap-apply",
    "cap-release",
    "scale",
    "gauge",
)


@dataclass(frozen=True)
class TraceEvent:
    """One traced occurrence: when, what, to whom, with detail."""

    time: float
    kind: str
    subject: str = ""
    detail: Mapping[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """One timeline line: ``t=  612.0s drift      eu→ap err=0.52``."""
        extras = " ".join(
            f"{key}={self._fmt(value)}"
            for key, value in sorted(self.detail.items())
        )
        line = f"t={self.time:9.1f}s {self.kind:<11} {self.subject}"
        return f"{line} {extras}".rstrip()

    @staticmethod
    def _fmt(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.3g}"
        return str(value)

    def to_json(self) -> dict[str, Any]:
        """JSON-ready representation for recorded-run files."""
        return {
            "time": self.time,
            "kind": self.kind,
            "subject": self.subject,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "TraceEvent":
        """Inverse of :meth:`to_json`."""
        return cls(
            time=float(data["time"]),
            kind=str(data["kind"]),
            subject=str(data.get("subject", "")),
            detail=dict(data.get("detail", {})),
        )


class EventTrace:
    """Bounded ring buffer of :class:`TraceEvent` records."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be ≥ 1: {capacity}")
        self.capacity = capacity
        self._ring: deque[TraceEvent] = deque(maxlen=capacity)
        #: Events ever recorded (keeps counting after ring eviction).
        self.recorded = 0
        #: Events ever recorded per kind (also past ring eviction).
        self.totals: dict[str, int] = {}

    def record(
        self, time: float, kind: str, subject: str = "", **detail: Any
    ) -> TraceEvent:
        """Append one event; returns it (handy for tests)."""
        event = TraceEvent(time=time, kind=kind, subject=subject, detail=detail)
        self._ring.append(event)
        self.recorded += 1
        self.totals[kind] = self.totals.get(kind, 0) + 1
        return event

    @property
    def dropped(self) -> int:
        """Events evicted by the ring bound so far."""
        return self.recorded - len(self._ring)

    def events(self, kind: Optional[str] = None) -> list[TraceEvent]:
        """Retained events in record order, optionally one kind only."""
        if kind is None:
            return list(self._ring)
        return [event for event in self._ring if event.kind == kind]

    def timeline(self) -> list[str]:
        """Human-readable lines for every retained event, in order."""
        return [event.describe() for event in self._ring]


def render_timeline(events: Iterable[TraceEvent]) -> str:
    """A printable timeline block for a sequence of events."""
    lines = [event.describe() for event in events]
    if not lines:
        return "(no events traced)\n"
    return "\n".join(lines) + "\n"
