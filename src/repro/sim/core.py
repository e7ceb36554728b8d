"""Event queue and simulator.

The engine is a classic calendar queue over :mod:`heapq`.  Design points
that matter for the layers above:

* **Stable ordering.**  Heap entries sort by ``(time, priority, seq)``.
  ``priority`` lets the kernel order same-instant happenings correctly —
  e.g. a timer tick (which is a preemption point) must be processed before
  an application compute-completion scheduled for the same instant, and
  hardware events before software wakeups.  ``seq`` is a monotone counter
  guaranteeing FIFO among full ties, which makes runs reproducible.

* **C-level comparisons.**  The heap stores plain ``(time, priority, seq,
  Event)`` tuples.  ``seq`` is unique, so a comparison always resolves
  within the first three scalar fields and never reaches the
  :class:`Event` object — every sift runs entirely in the C tuple
  comparator instead of calling ``Event.__lt__`` (which used to account
  for millions of Python-level calls per run).  :class:`Event` remains
  the public, cancellable handle.

* **Lazy cancellation with compaction.**  Cancelling an event marks its
  handle dead; the heap entry is skipped on pop.  The kernel cancels and
  re-schedules compute completions on every preemption, so cancellation
  is O(1).  When dead entries outnumber live ones (and the heap is big
  enough to care) the heap is compacted in one O(n) ``heapify`` pass —
  ordering is total, so compaction can never change firing order.

* **No global state.**  A :class:`Simulator` is an ordinary object; tests
  freely create thousands of them.
"""

from __future__ import annotations

import heapq
import itertools
from enum import IntEnum
from heapq import heappush
from typing import Any, Callable, Optional

__all__ = ["Event", "EventPriority", "Simulator", "SimulationError"]


#: Compaction threshold: only heaps at least this large are compacted
#: (tiny heaps churn through cancels without ever carrying real weight).
_COMPACT_MIN_ENTRIES = 64


class SimulationError(RuntimeError):
    """Raised for invalid engine use (scheduling in the past, etc.)."""


class EventPriority(IntEnum):
    """Relative ordering of events that fire at the same instant.

    Lower value fires first.  The tiers encode hardware-before-software:
    an interrupt asserted at time *t* is visible to a dispatcher decision
    made at time *t*.
    """

    INTERRUPT = 0     # timer ticks, IPIs, device interrupts
    MESSAGE = 1       # network message delivery
    KERNEL = 2        # dispatcher passes, wakeups, completion processing
    NORMAL = 3        # default application-level callbacks
    LATE = 4          # bookkeeping that must observe everything else


#: Plain-int default priority: ``schedule_at`` skips its ``int()`` call for
#: priorities that already are plain ints (hot callers hoist theirs too).
_PRIO_NORMAL = int(EventPriority.NORMAL)


class Event:
    """A scheduled callback; returned by :meth:`Simulator.schedule`.

    Treat instances as opaque handles: inspect :attr:`time` / :attr:`active`,
    call :meth:`cancel`.  The handle never participates in heap ordering
    (the heap compares ``(time, priority, seq)`` tuples), but ``__lt__``
    is kept so handle lists sort in firing order.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "_cancelled", "_sim")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self._cancelled = False
        #: Owning simulator (None for handles built outside a Simulator);
        #: lets cancel() maintain the owner's live-entry counter.
        self._sim = sim

    @property
    def active(self) -> bool:
        """True until the event has been cancelled (firing clears ``fn``)."""
        return not self._cancelled and self.fn is not None

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent; safe after firing."""
        if not self._cancelled and self.fn is not None:
            # Still live: tell the owning simulator one queued entry died
            # (fired events have fn cleared before the callback runs, so
            # they never reach this branch).
            sim = self._sim
            if sim is not None:
                sim._live -= 1
                dead = len(sim._heap) - sim._live
                if dead >= _COMPACT_MIN_ENTRIES and dead > sim._live:
                    sim._compact()
        self._cancelled = True
        # Break reference cycles early; a cancelled event may sit in the
        # heap for a long simulated time before being popped and skipped.
        self.fn = None
        self.args = ()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (other.time, other.priority, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "active"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.3f} prio={self.priority} {name} {state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(10.0, callback, arg1, arg2)
        sim.run_until(1_000_000.0)

    Callbacks receive their ``args`` and may schedule further events.  The
    clock only moves forward; scheduling strictly in the past raises
    :class:`SimulationError` (scheduling *at* the current instant is legal
    and common — e.g. an immediate dispatcher pass).  A NaN time or delay
    raises too: NaN compares false with everything, so it would corrupt
    the heap order.  The guards are written ``not x >= bound`` so that one
    comparison rejects both the past and NaN.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Entries are ``(time, priority, seq, Event)``; ``seq`` is unique
        #: so tuple comparison never falls through to the Event.
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        #: Live (non-cancelled) entries currently queued; maintained by
        #: schedule/pop/cancel so :attr:`pending` is O(1).
        self._live = 0
        #: Set by :meth:`stop`; read by :meth:`run_until`, which clears it
        #: on entry.
        self._stop_requested = False
        #: Optional sanitizer hook invoked (with no arguments) after every
        #: processed event.  Installed by
        #: :class:`repro.checkpoint.monitor.InvariantMonitor` in sanitizer
        #: mode; ``None`` (the default) costs one predicate per event and
        #: adds no events, so baseline runs stay bit-identical.
        self.on_event: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = _PRIO_NORMAL,
    ) -> Event:
        """Schedule *fn(*args)* to run *delay* µs from now."""
        if not delay >= 0:
            raise SimulationError(f"invalid delay {delay!r}")
        return self.schedule_at(self.now + delay, fn, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = _PRIO_NORMAL,
    ) -> Event:
        """Schedule *fn(*args)* at absolute time *time* (µs)."""
        if not time >= self.now:
            raise SimulationError(f"cannot schedule at {time!r}; now is {self.now!r}")
        if priority.__class__ is not int:
            priority = int(priority)
        seq = next(self._seq)
        ev = Event(time, priority, seq, fn, args, self)
        heappush(self._heap, (time, priority, seq, ev))
        self._live += 1
        return ev

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _compact(self) -> None:
        """Drop dead heap entries in one pass (firing order is unchanged:
        entry ordering is total, so a heapify of any subset agrees with
        the pop order of the original heap restricted to that subset).

        In-place (slice assignment) on purpose: the fused ``run_until``
        loop holds a local alias to the heap list, and compaction can
        trigger mid-callback via ``Event.cancel``.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[3]._cancelled]
        heapq.heapify(heap)

    def _pop_next(self) -> Optional[Event]:
        heap = self._heap
        while heap:
            ev = heapq.heappop(heap)[3]
            if not ev._cancelled:
                self._live -= 1
                return ev
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None if the queue is drained.

        Reads the *handle*'s time rather than the heap entry's copy: they
        only differ if someone corrupted the handle, and reporting the
        handle's view is what lets the invariant sanitizer notice.
        """
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            heapq.heappop(heap)
        return heap[0][3].time if heap else None

    def _fire(self, ev: Event) -> None:
        self.now = ev.time
        fn, args = ev.fn, ev.args
        # Mark fired before invoking so re-entrant cancels are no-ops.
        ev.fn = None
        ev.args = ()
        self._events_processed += 1
        fn(*args)
        if self.on_event is not None:
            self.on_event()

    def step(self) -> bool:
        """Process a single event.  Returns False when the queue is empty."""
        ev = self._pop_next()
        if ev is None:
            return False
        self._fire(ev)
        return True

    def stop(self) -> None:
        """Ask the running :meth:`run_until` to return after the current event.

        Meant to be called from inside a callback: ``run_until`` finishes
        the event being fired (including the ``on_event`` hook), then
        returns with ``now`` at that event's time instead of at its
        target.  The events fired are a prefix of what the full call would
        have fired, and a later ``run_until`` resumes exactly where this
        one stopped.  The request never outlives the run it was made in:
        ``run_until`` clears it on entry, so a stop requested between runs,
        or during :meth:`run_until_before` / :meth:`run` (which ignore
        it), cannot cut a later ``run_until`` short.
        """
        self._stop_requested = True

    def run_until(self, time: float, max_events: Optional[int] = None) -> int:
        """Run events with timestamps ``<= time``; leave ``now`` at *time*.

        If a callback calls :meth:`stop`, return right after that event
        instead, with ``now`` at the event's time.  Checking for the
        request costs one attribute test per event.

        Returns the number of events processed.  ``max_events`` is a safety
        valve for tests (raises :class:`SimulationError` when exceeded, which
        catches accidental event storms early instead of hanging CI).
        """
        if not time >= self.now:
            raise SimulationError(f"run_until({time!r}) is in the past or NaN (now={self.now!r})")
        self._stop_requested = False
        processed = 0
        # The pop/fire pair is inlined below: at profile scale the two
        # method calls per event are a measurable slice of the engine's
        # per-event budget.  step()/run() keep the readable methods; this
        # loop must fire the same events as peek_time() + step() would,
        # but walks the heap once per event: dead entries on the way are
        # discarded and a live head beyond *time* is left in place.
        heap = self._heap
        heappop = heapq.heappop
        while True:
            if max_events is not None and processed >= max_events:
                nxt = self.peek_time()
                if nxt is not None and nxt <= time:
                    raise SimulationError(f"exceeded max_events={max_events} before t={time}")
                break
            ev = None
            while heap:
                entry = heap[0]
                candidate = entry[3]
                if candidate._cancelled:
                    heappop(heap)
                    continue
                if entry[0] > time:
                    break
                heappop(heap)
                self._live -= 1
                ev = candidate
                break
            if ev is None:
                break
            # -- inline _fire(ev) --
            self.now = ev.time
            fn, args = ev.fn, ev.args
            # Mark fired before invoking so re-entrant cancels are no-ops.
            ev.fn = None
            ev.args = ()
            self._events_processed += 1
            fn(*args)
            if self.on_event is not None:
                self.on_event()
            processed += 1
            if self._stop_requested:
                return processed
        self.now = time
        return processed

    def run_until_before(self, bound: float, max_events: Optional[int] = None) -> int:
        """Run events with timestamps strictly ``< bound``; leave ``now`` at
        *bound*.

        The half-open-window counterpart of :meth:`run_until`, used by the
        conservative parallel-DES driver (:mod:`repro.sim.parallel`): a
        superstep may process everything before the safe horizon but must
        leave events *at* the horizon untouched, because a cross-shard
        message can still arrive exactly at the horizon instant with an
        earlier tie-break priority.  Returns the number of events processed.
        """
        if not bound >= self.now:
            raise SimulationError(
                f"run_until_before({bound!r}) is in the past or NaN (now={self.now!r})"
            )
        processed = 0
        heap = self._heap
        heappop = heapq.heappop
        while True:
            if max_events is not None and processed >= max_events:
                nxt = self.peek_time()
                if nxt is not None and nxt < bound:
                    raise SimulationError(f"exceeded max_events={max_events} before t={bound}")
                break
            ev = None
            while heap:
                entry = heap[0]
                candidate = entry[3]
                if candidate._cancelled:
                    heappop(heap)
                    continue
                if entry[0] >= bound:
                    break
                heappop(heap)
                self._live -= 1
                ev = candidate
                break
            if ev is None:
                break
            # -- inline _fire(ev) --
            self.now = ev.time
            fn, args = ev.fn, ev.args
            # Mark fired before invoking so re-entrant cancels are no-ops.
            ev.fn = None
            ev.args = ()
            self._events_processed += 1
            fn(*args)
            if self.on_event is not None:
                self.on_event()
            processed += 1
        self.now = bound
        return processed

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains.  Returns events processed."""
        processed = 0
        while True:
            if max_events is not None and processed >= max_events and self.peek_time() is not None:
                raise SimulationError(f"exceeded max_events={max_events}")
            ev = self._pop_next()
            if ev is None:
                break
            self._fire(ev)
            processed += 1
        return processed

    @property
    def events_processed(self) -> int:
        """Total events fired over the simulator's lifetime (for stats/tests)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of live events still queued (O(1): a maintained counter,
        not a heap scan — this sits inside checkpoint/invariant paths)."""
        return self._live

    def active_events(self) -> list[Event]:
        """Live queued events in firing order (checkpoint/introspection).

        Cancelled entries are filtered out and the result is sorted by
        ``(time, priority, seq)``, so two simulators that will fire the
        same callbacks in the same order return equal-shaped lists even if
        their internal heap layouts differ.
        """
        return [
            entry[3]
            for entry in sorted(e for e in self._heap if not e[3]._cancelled)
        ]
