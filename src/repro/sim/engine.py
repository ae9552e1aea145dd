"""Event loop: a heap of timed callbacks with deterministic ordering.

Events firing at the same microsecond run in scheduling order (a
monotonically increasing sequence number breaks ties), so a simulation with
a fixed seed is fully reproducible.

Cancellation is lazy (an entry is flagged, not removed), but the loop keeps
itself honest about it: a live-event counter makes :meth:`EventLoop.pending`
O(1), and when more than half of the heap is cancelled entries the heap is
compacted in one pass.  Long NOHZ-heavy runs -- which cancel timer after
timer -- therefore stop degrading as garbage accumulates.  Compaction only
reorganizes the heap around the same ``(when, seq)`` total order, so the
firing sequence is byte-identical with compaction on or off.  The
simulator turns it on with the fast path (``SchedFeatures.fastpath``).

Events are drained one at a time.  A callback that cancels a later event
of its own timestamp stops it from firing, and zero-delay work scheduled
by a callback runs after every event already queued for that timestamp.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

from repro.obs.tracepoints import TRACEPOINTS

#: Fired once per executed callback with its ``label``, so obs traces can
#: attribute heap activity (tick vs phase-end vs wake).  Kernel-style
#: static tracepoint: one ``enabled`` branch when nobody listens.
_TP_CALLBACK = TRACEPOINTS.tracepoint("engine.callback")

#: Heaps smaller than this are never compacted: rebuilding them costs more
#: than the dead entries do.
_COMPACT_MIN_HEAP = 64


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine (e.g. scheduling in the past)."""


class _Event:
    """A scheduled callback; cancellation just flags the entry (lazy delete).

    Events never define ordering themselves: the heap stores ``(when,
    seq, event)`` triples, so heapq compares plain ints in C (the unique
    ``seq`` guarantees the event object is never reached by a compare).
    """

    __slots__ = ("when", "seq", "callback", "cancelled", "fired", "label")

    def __init__(self, when: int, seq: int, callback: Callable[[], None], label: str):
        self.when = when
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.fired = False
        self.label = label


class EventHandle:
    """Opaque handle returned by :meth:`EventLoop.schedule`; supports cancel."""

    __slots__ = ("_event", "_loop")

    def __init__(self, event: _Event, loop: "EventLoop"):
        self._event = event
        self._loop = loop

    def cancel(self) -> None:
        """Prevent the event from firing; safe to call more than once.

        The loop's live counter is adjusted exactly once, no matter how
        many times cancel is called, and never for an already-fired event.
        """
        event = self._event
        if event.cancelled or event.fired:
            return
        event.cancelled = True
        self._loop._note_cancel(event)

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def when(self) -> int:
        """Absolute firing time in microseconds."""
        return self._event.when


class EventLoop:
    """A discrete-event loop over integer-microsecond virtual time."""

    def __init__(self, start_time: int = 0, compact: bool = True):
        self._now = start_time
        self._heap: list = []
        self._seq = itertools.count()
        self._events_fired = 0
        self._running = False
        #: Live (scheduled, not cancelled, not fired) events.
        self._live = 0
        #: Cancelled entries still sitting in the heap (lazy deletes).
        self._lazy_cancels = 0
        #: Compact the heap when lazy cancels outnumber live entries.
        self._compact_enabled = compact
        #: Number of compaction passes performed (bench accounting).
        self.compactions = 0

    @property
    def now(self) -> int:
        """Current virtual time (microseconds)."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of callbacks executed so far (for overhead accounting)."""
        return self._events_fired

    def schedule(
        self,
        delay: int,
        callback: Callable[[], None],
        label: str = "",
    ) -> EventHandle:
        """Run ``callback`` ``delay`` microseconds from now.

        ``delay`` must be non-negative; zero-delay events run after all
        events already queued for the current microsecond.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}us in the past")
        return self.schedule_at(self._now + delay, callback, label)

    def schedule_at(
        self,
        when: int,
        callback: Callable[[], None],
        label: str = "",
    ) -> EventHandle:
        """Run ``callback`` at absolute time ``when`` (microseconds)."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when}us, now is {self._now}us"
            )
        seq = next(self._seq)
        event = _Event(when, seq, callback, label)
        heapq.heappush(self._heap, (when, seq, event))
        self._live += 1
        return EventHandle(event, self)

    def _note_cancel(self, event: _Event) -> None:
        """Account one cancellation; compact when garbage dominates.

        Compaction triggers when lazy cancels outnumber live heap entries
        *and* the heap has at least ``_COMPACT_MIN_HEAP`` (64) entries --
        rebuilding a smaller heap costs more than its dead entries do.
        Steady-state simulations keep small heaps (one phase-end per busy
        CPU plus sleeper timers) and pop cancelled entries within
        microseconds, so the benchmarks legitimately report
        ``heap_compactions == 0``; see test_engine.py for a workload
        shaped to force one.
        """
        self._live -= 1
        self._lazy_cancels += 1
        if (
            self._compact_enabled
            and len(self._heap) >= _COMPACT_MIN_HEAP
            and self._lazy_cancels * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify the survivors.

        The heap invariant is rebuilt over the same ``(when, seq)`` keys,
        so subsequent pops produce exactly the order lazy deletion would
        have -- compaction is invisible to the simulation.
        """
        self._heap = [t for t in self._heap if not t[2].cancelled]
        heapq.heapify(self._heap)
        self._lazy_cancels = 0
        self.compactions += 1

    def run_until(self, deadline: int) -> None:
        """Fire events in order until ``deadline`` (inclusive) or exhaustion.

        Time is left at ``deadline`` even if the heap empties earlier, so
        back-to-back ``run_until`` calls see monotonic time.
        """
        if deadline < self._now:
            raise SimulationError(
                f"deadline {deadline}us is before now {self._now}us"
            )
        if self._running:
            raise SimulationError("event loop is not reentrant")
        self._running = True
        try:
            heap = self._heap
            while heap and heap[0][0] <= deadline:
                event = heapq.heappop(heap)[2]
                if event.cancelled:
                    self._lazy_cancels -= 1
                    continue
                event.fired = True
                self._live -= 1
                self._now = event.when
                self._events_fired += 1
                if _TP_CALLBACK.enabled:
                    _TP_CALLBACK.emit(self._now, label=event.label)
                event.callback()
            self._now = deadline
        finally:
            self._running = False

    def run_while(
        self,
        condition: Callable[[], bool],
        deadline: int,
        check_interval: Optional[int] = None,
    ) -> bool:
        """Run until ``condition()`` turns false or ``deadline`` passes.

        The condition is evaluated after every fired event (or, when
        ``check_interval`` is given, on that period).  Returns ``True`` when
        the condition became false in time, ``False`` on deadline.
        """
        if check_interval is not None and check_interval <= 0:
            raise SimulationError("check_interval must be positive")
        if not condition():
            return True
        if self._running:
            raise SimulationError("event loop is not reentrant")
        self._running = True
        try:
            next_check = self._now
            while self._heap and self._heap[0][0] <= deadline:
                event = heapq.heappop(self._heap)[2]
                if event.cancelled:
                    self._lazy_cancels -= 1
                    continue
                event.fired = True
                self._live -= 1
                self._now = event.when
                self._events_fired += 1
                if _TP_CALLBACK.enabled:
                    _TP_CALLBACK.emit(self._now, label=event.label)
                event.callback()
                if check_interval is None or self._now >= next_check:
                    if not condition():
                        return True
                    if check_interval is not None:
                        next_check = self._now + check_interval
            self._now = deadline
            return not condition()
        finally:
            self._running = False

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live

    def heap_size(self) -> int:
        """Heap entries including lazy-cancelled garbage (introspection)."""
        return len(self._heap)

    def __repr__(self) -> str:
        return (
            f"EventLoop(now={self._now}us, pending={self.pending()}, "
            f"fired={self._events_fired})"
        )
