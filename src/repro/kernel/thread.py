"""Threads and the syscall request protocol.

A thread's body is a Python generator.  It advances by yielding *request*
objects; the scheduler resumes it (``gen.send(result)``) when the request
completes.  Crucially, :class:`Compute` requests consume simulated CPU time
only while the thread actually holds a CPU — a descheduled thread makes no
progress, which is precisely the cascade mechanism the paper studies.

Requests
--------
``Compute(d)``
    Burn *d* µs of CPU.  The thread is runnable; if preempted mid-burn the
    remaining work is preserved and resumed later.
``Sleep(d)`` / ``SleepUntil(t)``
    Release the CPU and wake after *d* µs / at absolute time *t*.  Wakeups
    are **tick-quantised** for threads with ``tick_quantized=True`` (the
    default, matching kernel timeout wheels): the wake fires at the next
    timer-tick boundary of the thread's home CPU at or after the requested
    time.  This is what makes "big ticks" batch daemon wakeups.
``Block()``
    Release the CPU until some other party calls
    :meth:`~repro.kernel.scheduler.NodeScheduler.wake`.
``SpinWait(register)``
    User-space polling (IBM MPI's default ``MP_WAIT_MODE=poll``): the
    thread *keeps its CPU*, spinning until the event of interest occurs.
    ``register(thread)`` is called once; it either returns a non-``None``
    result immediately (the event already happened) or arranges for
    ``NodeScheduler.spin_deliver(thread, value)`` to be called later.
    A spinning thread is preemptible like any other runnable thread — this
    is how a daemon stalls an MPI task that is "waiting" for a message.
``YieldCpu()``
    Go to the back of the ready queue among equals.
``SetPriority(p)``
    Change own priority (zero-time; may trigger reverse preemption of
    self).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Generator, Optional

__all__ = [
    "ThreadState",
    "Compute",
    "Sleep",
    "SleepUntil",
    "Block",
    "SpinWait",
    "YieldCpu",
    "SetPriority",
    "Thread",
    "ThreadStats",
]

_tid_counter = itertools.count(1)


class ThreadState(Enum):
    """Lifecycle of a thread: NEW → READY/RUNNING ↔ BLOCKED/SLEEPING → FINISHED."""

    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    SLEEPING = "sleeping"
    FINISHED = "finished"


# ---------------------------------------------------------------------------
# Syscall request objects
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Compute:
    duration_us: float

    def __post_init__(self) -> None:
        if not self.duration_us >= 0:  # also rejects NaN
            raise ValueError("Compute duration must be >= 0")


@dataclass(frozen=True)
class Sleep:
    duration_us: float

    def __post_init__(self) -> None:
        if not self.duration_us >= 0:  # also rejects NaN
            raise ValueError("Sleep duration must be >= 0")


@dataclass(frozen=True)
class SleepUntil:
    time_us: float


@dataclass(frozen=True)
class Block:
    """Wait until woken externally via ``NodeScheduler.wake(thread, value)``."""


@dataclass(frozen=True)
class SpinWait:
    """Spin on the CPU until an external event delivers a value.

    ``register`` is invoked exactly once by the scheduler with the spinning
    thread; a non-``None`` return short-circuits the spin (event already
    occurred).  Otherwise the registrar must later call
    ``NodeScheduler.spin_deliver(thread, value)``.
    """

    register: Callable[["Thread"], Optional[Any]]


@dataclass(frozen=True)
class YieldCpu:
    pass


@dataclass(frozen=True)
class SetPriority:
    priority: int

    def __post_init__(self) -> None:
        if not 0 <= self.priority <= 127:
            raise ValueError("priority out of range [0, 127]")


@dataclass
class ThreadStats:
    """Lifetime accounting, used by the trace layer and by tests."""

    cpu_time_us: float = 0.0
    dispatches: int = 0
    preemptions: int = 0
    voluntary_switches: int = 0
    ready_wait_us: float = 0.0
    last_ready_at: float = 0.0


class Thread:
    """A schedulable entity: one kernel thread.

    Most fields are scheduler-private; external layers should only touch
    :attr:`name`, :attr:`category`, :attr:`priority` (read), :attr:`state`
    (read), and :attr:`stats`.

    Parameters
    ----------
    body:
        Generator yielding syscall requests.  ``None`` builds a finished
        placeholder (used by tests).
    priority:
        AIX-style: lower value = more favored.
    affinity_cpu:
        Home CPU index within the node.  Threads are queued there unless
        ``use_global_queue`` routes them to the node-global queue.
    use_global_queue:
        Request queueing to all CPUs of the node.  Only honoured when the
        kernel is configured with ``daemons_global_queue`` (paper §3.1.2);
        the scheduler decides.
    allow_steal:
        Whether an idle CPU may run this thread away from its home CPU.
        Parallel-job main threads are bound (``False``), matching
        production MP_BINDPROC usage; daemons are stealable.
    tick_quantized:
        Whether sleep wakeups snap to tick boundaries (kernel timeout
        semantics).  True for everything except test scaffolding.
    """

    __slots__ = (
        "tid",
        "name",
        "category",
        "priority",
        "base_priority",
        "state",
        "node_id",
        "affinity_cpu",
        "use_global_queue",
        "allow_steal",
        "tick_quantized",
        "hardware",
        "gen",
        "cpu",
        "work_remaining",
        "run_start",
        "run_work",
        "completion_ev",
        "wake_ev",
        "spinning",
        "spin_value",
        "resume_advance",
        "cs_due",
        "rq_entry",
        "policy_data",
        "stats",
        "on_finish",
        "on_priority_change",
    )

    def __init__(
        self,
        body: Optional[Generator],
        name: str,
        priority: int,
        node_id: int,
        affinity_cpu: int,
        category: str = "app",
        use_global_queue: bool = False,
        allow_steal: bool = True,
        tick_quantized: bool = True,
        hardware: bool = False,
    ) -> None:
        if not 0 <= priority <= 127:
            raise ValueError("priority out of range [0, 127]")
        self.tid = next(_tid_counter)
        self.name = name
        self.category = category
        self.priority = priority
        self.base_priority = priority
        self.state = ThreadState.NEW
        self.node_id = node_id
        self.affinity_cpu = affinity_cpu
        self.use_global_queue = use_global_queue
        self.allow_steal = allow_steal
        self.tick_quantized = tick_quantized
        #: Hardware-interrupt wakeup semantics (device interrupt handlers):
        #: becoming ready preempts the target CPU immediately.
        self.hardware = hardware
        self.gen = body

        self.cpu: Optional[int] = None
        #: Remaining CPU work (µs) of the current Compute request.
        self.work_remaining: float = 0.0
        self.run_start: float = 0.0
        #: Work that was scheduled for completion in the current dispatch.
        self.run_work: float = 0.0
        self.completion_ev = None
        self.wake_ev = None
        #: Active SpinWait request, if the thread is spin-waiting.
        self.spinning: Optional[SpinWait] = None
        #: Value delivered to a spinner while it was off-CPU.
        self.spin_value: Any = None
        #: Set when the generator must be advanced at the next dispatch
        #: (YieldCpu completion, or a spin satisfied while off-CPU).
        self.resume_advance: bool = False
        #: Context-switch cost to fold into the next completion.
        self.cs_due: float = 0.0
        self.rq_entry = None
        #: Scheduling-policy-private state (e.g. the fair policy's
        #: vruntime offset).  None until a policy that needs it writes it.
        self.policy_data = None
        self.stats = ThreadStats()
        #: Optional callback invoked when the body finishes.
        self.on_finish: Optional[Callable[["Thread"], None]] = None
        #: Optional callback invoked after every priority change (used to
        #: mirror a task's priority onto its auxiliary threads).
        self.on_priority_change: Optional[Callable[["Thread", int, int], None]] = None

    def snapshot_state(self, desc) -> dict:
        """Checkpoint view of this thread (see :mod:`repro.checkpoint`).

        *desc* resolves identities that are not stable across process
        rebuilds: thread keys come from per-node spawn order (``tid`` is a
        module-global counter) and pending events are described by their
        calendar coordinates, never by object identity.
        """
        return {
            "key": desc.thread(self),
            "name": self.name,
            "category": self.category,
            "state": self.state.value,
            "priority": self.priority,
            "base_priority": self.base_priority,
            "cpu": self.cpu,
            "affinity_cpu": self.affinity_cpu,
            "work_remaining": self.work_remaining,
            "run_start": self.run_start,
            "run_work": self.run_work,
            "cs_due": self.cs_due,
            "spinning": self.spinning is not None,
            "resume_advance": self.resume_advance,
            "policy_data": self.policy_data,
            "wake_ev": desc.event(self.wake_ev),
            "completion_ev": desc.event(self.completion_ev),
            "stats": {
                "cpu_time_us": self.stats.cpu_time_us,
                "dispatches": self.stats.dispatches,
                "preemptions": self.stats.preemptions,
                "voluntary_switches": self.stats.voluntary_switches,
                "ready_wait_us": self.stats.ready_wait_us,
                "last_ready_at": self.stats.last_ready_at,
            },
        }

    @property
    def finished(self) -> bool:
        return self.state is ThreadState.FINISHED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Thread {self.tid} {self.name!r} prio={self.priority} "
            f"{self.state.value} node={self.node_id} cpu={self.cpu}>"
        )
