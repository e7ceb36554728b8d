"""Key-ordered run queues with lazy removal.

Default dispatch order is AIX's: numerically lowest priority first, FIFO
among equals.  A :class:`~repro.kernel.policy.SchedPolicy` may instead
supply a *key* callable evaluated at enqueue time (virtual runtime for
``fair``, a constant for the FIFO policies — entries then order purely by
sequence number).  Entries are heap tuples ``(key, seq, entry)``, so sifts
compare in C and, ``seq`` being unique, never reach the third field; the
``entry`` cell holds the thread and is the thread's ``rq_entry``
back-pointer.  Removal (thread chosen elsewhere, priority change) clears
the cell and the heap skips cleared entries on pop — the same O(1)-cancel
idiom the event queue uses.  When stale entries outnumber live ones past
a floor, :meth:`remove` compacts the heap in place (mirroring the event
queue's dead>live>=64 rule) so churn-heavy workloads cannot accumulate
unbounded dead weight.

``seq`` comes from a class-global counter, so sequence order is total
*across* queues — :meth:`head_rank` exposes the head's ``(key, seq)``
rank for policies that run a cross-queue FIFO.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Callable, Iterator, Optional

from repro.kernel.thread import Thread

__all__ = ["RunQueue"]

#: Compaction floor: never compact tiny heaps (pruning handles those);
#: beyond it, compact as soon as dead entries outnumber live ones.
_COMPACT_MIN_ENTRIES = 64


class _Entry:
    """A queued thread's liveness cell: ``thread`` is None once removed."""

    __slots__ = ("thread",)

    def __init__(self, thread: Thread) -> None:
        self.thread = thread

    @property
    def live(self) -> bool:
        return self.thread is not None


class RunQueue:
    """One dispatch queue (per-CPU local, or node-global for daemons)."""

    _seq = itertools.count()

    def __init__(
        self, name: str = "", key: Optional[Callable[[Thread], float]] = None
    ) -> None:
        self.name = name
        #: Enqueue-time ordering key; None = thread.priority (AIX order,
        #: and the fast path — no callable indirection in push).
        self._key = key
        self._heap: list[tuple[float, int, _Entry]] = []
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, thread: Thread) -> None:
        """Enqueue *thread* at its current key, behind equals."""
        if thread.rq_entry is not None and thread.rq_entry.thread is not None:
            raise RuntimeError(f"{thread!r} is already queued")
        key = thread.priority if self._key is None else self._key(thread)
        entry = thread.rq_entry = _Entry(thread)
        heappush(self._heap, (key, next(self._seq), entry))
        self._live += 1

    def remove(self, thread: Thread) -> None:
        """Dequeue *thread* (lazy; compacts when dead weight dominates)."""
        entry = thread.rq_entry
        if entry is None or entry.thread is None:
            raise RuntimeError(f"{thread!r} is not queued")
        entry.thread = None
        thread.rq_entry = None
        self._live -= 1
        dead = len(self._heap) - self._live
        if dead >= _COMPACT_MIN_ENTRIES and dead > self._live:
            self._heap = [e for e in self._heap if e[2].thread is not None]
            heapify(self._heap)

    def _prune(self) -> None:
        heap = self._heap
        while heap and heap[0][2].thread is None:
            heappop(heap)

    def best_priority(self) -> Optional[float]:
        """Key of the head thread (priority under the default order), or None."""
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2].thread is not None:
                return head[0]
            heappop(heap)
        return None

    def head_rank(self) -> Optional[tuple]:
        """``(key, seq)`` rank of the head thread, or None when empty.

        Sequence numbers are globally monotonic across queues, so ranks
        compare meaningfully *between* queues — the cross-queue FIFO the
        quantum policy runs.
        """
        self._prune()
        return self._heap[0][:2] if self._heap else None

    def peek(self) -> Optional[Thread]:
        """Return (without removing) the head thread, or None."""
        self._prune()
        return self._heap[0][2].thread if self._heap else None

    def pop(self) -> Optional[Thread]:
        """Dequeue and return the best thread, or None when empty."""
        heap = self._heap
        while heap:
            entry = heappop(heap)[2]
            thread = entry.thread
            if thread is not None:
                entry.thread = None
                thread.rq_entry = None
                self._live -= 1
                return thread
        return None

    def best_stealable_priority(self) -> Optional[float]:
        """Best priority among threads that permit migration, or None."""
        best: Optional[float] = None
        for key, _, entry in self._heap:
            thread = entry.thread
            if thread is not None and thread.allow_steal:
                if best is None or key < best:
                    best = key
        return best

    def pop_stealable(self) -> Optional[Thread]:
        """Dequeue the best thread with ``allow_steal`` set, or None.

        Linear scan — stealing is rare (only when a CPU idles with an empty
        local queue), and queues are short.
        """
        best = None
        for item in self._heap:
            thread = item[2].thread
            if thread is not None and thread.allow_steal:
                if best is None or item < best:
                    best = item
        if best is None:
            return None
        entry = best[2]
        thread = entry.thread
        entry.thread = None
        thread.rq_entry = None
        self._live -= 1
        return thread

    def threads(self) -> Iterator[Thread]:
        """Iterate live queued threads (test/introspection helper)."""
        for _, _, entry in self._heap:
            if entry.thread is not None:
                yield entry.thread

    def snapshot_state(self, desc) -> dict:
        """Checkpoint view: queued threads in exact dispatch order.

        Entry sequence numbers come from a class-global counter, so their
        absolute values differ between rebuilds of the same run — only the
        *order* they induce is reproducible, and only the order is
        captured.
        """
        order = sorted(e for e in self._heap if e[2].thread is not None)
        return {
            "name": self.name,
            "order": [[key, desc.thread(entry.thread)] for key, _, entry in order],
        }
