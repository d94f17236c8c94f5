"""Event queue, simulation clock, and periodic processes.

The simulator is a classic calendar-queue design: events are ``(time,
priority, sequence)``-ordered callbacks popped from a binary heap.  The
sequence number makes the ordering total and deterministic, which matters
because the whole reproduction is seeded — two runs with the same seed
must produce identical traces.

The hot loop is deliberately lean (this kernel executes every transfer
completion, monitor tick, and scheduler event in the repository, and
the scale benchmarks drain millions of events through it):

* heap entries are plain ``(time, priority, seq, event)`` tuples, so
  sift comparisons are raw tuple compares — the sequence number is
  unique, so the :class:`Event` object itself is never compared;
* cancelled events are skimmed off the heap top exactly once by a
  shared drain helper (:meth:`Simulator._skim`) used by ``peek`` /
  ``step`` / ``run`` — no path pays the old peek-then-step double scan;
* :meth:`Simulator.run` batch-dispatches every event sharing one
  timestamp in a single inner loop, re-entering the outer
  bookkeeping (the ``until`` bound) once per *instant* instead of
  once per *event* — same total order, since the heap top is always
  the global ``(time, priority, seq)`` minimum;
* :meth:`Simulator.schedule_many` bulk-inserts a batch of callbacks
  with one heapify instead of per-event pushes;
* :meth:`Simulator.defer` queues end-of-instant work: a deferred
  callback runs once, after every event of the current instant and
  before the clock moves, and is not counted as an event.  The WAN
  simulator defers its max-min re-solve this way, so a burst of
  same-instant transfer changes costs one solve.  Deferred work runs
  whenever ``run``, ``run(until=…)``, ``step`` or ``peek`` finds the
  queue head past the current instant, and ``run`` checks for it only
  then, so an instant without deferred work pays one extra attribute
  read.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Iterable, Optional


class Event:
    """A scheduled callback.

    Events fire in ``(time, priority, seq)`` order — the heap holds
    that key as a plain tuple, so the event object itself never enters
    a comparison.  ``cancelled`` events stay in the heap but are
    skipped when reached (lazy deletion).

    ``daemon`` events (periodic samplers, monitors, weather refreshes)
    do not keep an open-ended :meth:`Simulator.run` alive: once only
    daemon events remain, the run returns — the same semantics as daemon
    threads.
    """

    __slots__ = (
        "time", "priority", "seq", "callback", "cancelled", "daemon",
        "_on_cancel",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        daemon: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.daemon = daemon
        #: Fires on the first cancel of a still-pending event (the
        #: simulator's live-count bookkeeping).  Cleared when the event
        #: executes, so a late ``cancel()`` — e.g. a process stopping
        #: itself from inside its own tick — cannot double-count.
        self._on_cancel: Optional[Callable[[], None]] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return (
            f"Event(time={self.time!r}, priority={self.priority!r}, "
            f"seq={self.seq!r}, {state})"
        )

    def cancel(self) -> None:
        """Mark the event so the simulator skips it.

        Idempotent, and safe to call on an event that already fired:
        the live-count hook runs at most once, and never after
        execution (the kernel clears it when the callback is
        dispatched).
        """
        if not self.cancelled:
            self.cancelled = True
            if self._on_cancel is not None:
                self._on_cancel()
                self._on_cancel = None


#: A heap entry: ``(time, priority, seq, event)``.
_Entry = tuple[float, int, int, Event]


class Simulator:
    """Deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, lambda: fired.append("b"))
    >>> _ = sim.schedule(1.0, lambda: fired.append("a"))
    >>> sim.run()
    >>> fired
    ['a', 'b']
    >>> sim.now
    2.0
    """

    def __init__(self) -> None:
        self._queue: list[_Entry] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        #: Pending non-daemon, non-cancelled events; when this reaches
        #: zero an open-ended run() returns even if daemons remain.
        self._live = 0
        #: Total events executed (lazy-cancelled pops excluded) — the
        #: numerator of the ``sim_events_per_s`` benchmark row.
        self.events_processed = 0
        #: End-of-instant callbacks queued by :meth:`defer`.
        self._deferred: list[Callable[[], None]] = []

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
        daemon: bool = False,
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        ``priority`` breaks ties at equal times (lower fires first):
        a completion (priority 1) fires after the same-instant arrivals
        scheduled at the default 0.  Work that must see *every* change
        of an instant belongs in :meth:`defer` instead.  ``daemon``
        events do not keep an open-ended :meth:`run` alive.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        event = Event(
            self._now + delay, priority, next(self._seq), callback, daemon
        )
        if not daemon:
            self._live += 1
            event._on_cancel = self._drop_live
        heapq.heappush(
            self._queue, (event.time, event.priority, event.seq, event)
        )
        return event

    def schedule_many(
        self,
        entries: Iterable[tuple[float, Callable[[], None]]],
        priority: int = 0,
        daemon: bool = False,
    ) -> list[Event]:
        """Bulk-insert a batch of ``(delay, callback)`` pairs.

        Equivalent to calling :meth:`schedule` once per entry in order
        (sequence numbers are assigned in iteration order, so the total
        event order is identical), but the heap is rebuilt with one
        ``heapify`` — O(queue + batch) — instead of per-event sifts
        when the batch is large relative to the pending queue.  The
        scheduler's batched admission path and the shard executor
        submit their job mixes through this.
        """
        events: list[Event] = []
        for delay, callback in entries:
            if delay < 0:
                raise ValueError(f"negative delay: {delay}")
            event = Event(
                self._now + delay, priority, next(self._seq), callback, daemon
            )
            if not daemon:
                self._live += 1
                event._on_cancel = self._drop_live
            events.append(event)
        queue = self._queue
        if events and len(events) * 8 < len(queue):
            # Small batch onto a deep queue: sifting each entry in is
            # cheaper than re-heapifying everything.
            for event in events:
                heapq.heappush(
                    queue, (event.time, event.priority, event.seq, event)
                )
        elif events:
            queue.extend(
                (event.time, event.priority, event.seq, event)
                for event in events
            )
            heapq.heapify(queue)
        return events

    def _drop_live(self) -> None:
        self._live -= 1

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = 0,
        daemon: bool = False,
    ) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``.

        ``time`` must not lie in the simulation's past.
        """
        if time < self._now:
            raise ValueError(
                f"schedule_at: time {time} is in the past "
                f"(simulation clock is at {self._now})"
            )
        return self.schedule(time - self._now, callback, priority, daemon)

    def defer(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` once at the end of the current instant.

        It fires after every event at the current time — including
        events those events schedule at zero delay — and before the
        clock moves on; zero-delay events it schedules itself still
        dispatch in the same instant.  Deferred callbacks run in the
        order they were deferred and are not counted in
        :attr:`events_processed`.
        """
        self._deferred.append(callback)

    def _skim(self) -> Optional[_Entry]:
        """The live heap head, with cancelled entries dropped.

        The one drain loop shared by :meth:`peek`, :meth:`step`, and
        :meth:`run` — each cancelled entry is popped exactly once, and
        no caller re-scans what another already skimmed.
        """
        queue = self._queue
        while queue:
            head = queue[0]
            if head[3].cancelled:
                heapq.heappop(queue)
            else:
                return head
        return None

    def _next(self) -> Optional[_Entry]:
        """:meth:`_skim`, after ending the instant if the head is past it.

        When the live head lies past the current instant (or the queue
        is empty), the instant is over: deferred callbacks run, and the
        skim repeats over whatever they scheduled.
        """
        head = self._skim()
        while self._deferred and (head is None or head[0] > self._now):
            deferred = self._deferred
            self._deferred = []
            for callback in deferred:
                callback()
            head = self._skim()
        return head

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        head = self._next()
        return head[0] if head is not None else None

    def _dispatch(self, event: Event) -> None:
        """Account for and execute one popped, non-cancelled event."""
        if not event.daemon:
            self._live -= 1
        # The event is executing: a late cancel (a process stopping
        # itself mid-tick) must not decrement the live count again.
        event._on_cancel = None
        self._now = event.time
        self.events_processed += 1
        event.callback()

    def step(self) -> bool:
        """Pop and run the next event.  Returns ``False`` when drained."""
        head = self._next()
        if head is None:
            return False
        heapq.heappop(self._queue)
        self._dispatch(head[3])
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock passes ``until``.

        When ``until`` is given the clock is advanced to exactly
        ``until`` even if no event fires there, so periodic samplers
        observe a consistent end time.  Without ``until``, the run also
        returns once only daemon events remain — a forgotten monitor
        cannot wedge the simulation.

        Events sharing one timestamp are dispatched as a batch: the
        outer bookkeeping (bound check) runs once per simulated
        instant, and the inner loop pops straight off the heap — which
        always yields the global ``(time, priority, seq)`` minimum, so
        callbacks scheduling new same-instant events keep the exact
        single-step order.  The live-count check never ends an instant
        whose end-of-instant work (:meth:`defer`) is still pending —
        not even when only daemons share that instant — so deferred
        work that schedules the next real event keeps an open-ended
        run going.

        A non-finite ``until`` raises :class:`ValueError`: the bound
        check never fires for NaN or infinity, and daemon monitors
        would keep the run alive forever.
        """
        if until is not None and not math.isfinite(until):
            raise ValueError(f"until must be finite: {until}")
        queue = self._queue
        heappop = heapq.heappop
        skim = self._skim
        self._running = True
        try:
            head = self._next()
            while self._running and head is not None:
                if until is None and self._live <= 0 and not self._deferred:
                    break
                now = head[0]
                if until is not None and now > until:
                    break
                self._now = now
                # Batch-dispatch every event at this instant.
                while True:
                    heappop(queue)
                    self._dispatch(head[3])
                    head = skim()
                    if head is None or head[0] != now:
                        # The instant is over once its deferred work
                        # has run and scheduled nothing at ``now``.
                        if not self._deferred:
                            break
                        head = self._next()
                        if head is None or head[0] != now:
                            break
                    if not self._running or (
                        until is None and self._live <= 0 and not self._deferred
                    ):
                        break
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until

    def stop(self) -> None:
        """Stop an in-progress :meth:`run` after the current event.

        If that event was the instant's last, the instant's deferred
        work still runs before :meth:`run` returns.
        """
        self._running = False


def check_interval(interval: float) -> None:
    """Reject a :class:`Process` period that is not positive."""
    if interval <= 0:
        raise ValueError(f"interval must be positive: {interval}")


class Process:
    """A periodic activity: fires ``body(sim.now)`` every ``interval`` seconds.

    Used for agents that poll (WAN monitors, AIMD optimizers, fluctuation
    updates).  The process re-arms itself after each tick until
    :meth:`stop` is called.  Pollers are ``daemon`` by default: they
    observe the simulation but should not keep it alive once the real
    work (transfers) has drained.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        body: Callable[[float], None],
        start_delay: float = 0.0,
        priority: int = 0,
        daemon: bool = True,
    ) -> None:
        check_interval(interval)
        self._sim = sim
        self._interval = interval
        self._body = body
        self._priority = priority
        self._daemon = daemon
        self._stopped = False
        self._event = sim.schedule(start_delay, self._tick, priority, daemon)

    def _tick(self) -> None:
        if self._stopped:
            return
        self._body(self._sim.now)
        if not self._stopped:
            self._event = self._sim.schedule(
                self._interval, self._tick, self._priority, self._daemon
            )

    def stop(self) -> None:
        """Stop the periodic activity; pending tick is cancelled.

        Safe to call from inside the process's own ``body``: the tick
        being executed has already left the queue, so cancelling it is
        a no-op for the kernel's live-event accounting, and the
        ``_stopped`` flag suppresses the re-arm.
        """
        self._stopped = True
        self._event.cancel()
