"""The per-node dispatcher: priority scheduling with AIX preemption semantics.

One :class:`NodeScheduler` owns the CPUs of one SMP node.  The behaviours
the paper manipulates are all here:

**Delayed cross-CPU preemption (§3).**  When a readying operation should
preempt a *different*, busy CPU, stock AIX waits for that CPU to notice at
its next natural kernel entry — in the worst case the next 10 ms timer
tick.  With the "real time scheduling" option the readying side forces a
hardware interrupt (IPI) instead, observed to land in tenths of a
millisecond.  Two stock deficiencies the paper fixed are modelled as flags:
no IPI on *reverse* preemption (a running thread's priority being lowered
below a waiter's), and at most one preemption IPI in flight at a time.

**Same-CPU immediacy.**  A wakeup processed on the CPU that should run the
thread (our quantised daemon wakeups fire in that CPU's tick context) can
preempt immediately — "if the processor involved is the one on which the
readying operation occurred, the pre-emption can be immediate".

**Equal-priority rotation.**  Runnable equals share a CPU round-robin at
tick boundaries.  This is how an MPI task's auxiliary timer thread (equal
priority, same binding) steals time from a spinning main thread, and how
two MPI tasks forced onto one CPU (the ALE3D trace) serialise.

**Queue policy (§3.1.2).**  Daemons are queued per-CPU for locality by
default; the prototype queues them to a node-global queue served by all
CPUs, trading a per-daemon penalty for maximal overlap.  (The penalty is
applied by the daemon engine inflating service times; the scheduler just
provides the queue.)

**Work stealing.**  An idle CPU takes work whose ``allow_steal`` permits
migration — how a 15-tasks-per-node configuration lets the spare CPU
absorb daemon activity.  Bound job threads are never stolen.

**Policy/mechanism split.**  Everything above describes the *default*
(``aix``) policy.  This class keeps only mechanism — context switches,
completion events, IPIs, tick checks, accounting — and delegates every
decision (queue routing, placement, picking, stealing, rotation,
preempt checks) to a :class:`~repro.kernel.policy.SchedPolicy` selected
by ``KernelConfig.policy``.  The ``aix`` policy is the extracted
original behaviour under a bit-identical contract.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.config import KernelConfig, PRIO_IDLE
from repro.kernel.policy import make_policy
from repro.kernel.runqueue import RunQueue
from repro.kernel.thread import (
    Block,
    Compute,
    SetPriority,
    Sleep,
    SleepUntil,
    SpinWait,
    Thread,
    ThreadState,
    YieldCpu,
)
from repro.kernel.ticks import TickSchedule
from repro.sim.core import EventPriority, Simulator

__all__ = ["CpuState", "NodeScheduler"]

#: Hoisted enum members: the dispatcher schedules kernel-priority events on
#: every completion/wakeup and tests thread states on every request, and
#: each enum attribute walk costs about 0.1 µs.  Priorities are plain ints
#: so ``Simulator.schedule_at`` can skip its ``int()`` normalisation.
_PRIO_KERNEL = int(EventPriority.KERNEL)
_PRIO_INTERRUPT = int(EventPriority.INTERRUPT)
_RUNNING = ThreadState.RUNNING
_READY = ThreadState.READY
_SLEEPING = ThreadState.SLEEPING
_BLOCKED = ThreadState.BLOCKED


class CpuState:
    """Dispatcher-visible state of one CPU."""

    __slots__ = (
        "index",
        "thread",
        "run_began",
        "last_switch",
        "check_ev",
        "busy_us",
        "last_tid",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.thread: Optional[Thread] = None
        #: When the current occupant was placed (for trace intervals).
        self.run_began: float = 0.0
        self.last_switch: float = 0.0
        #: Pending tick-boundary preemption/rotation check event.
        self.check_ev = None
        #: Accumulated busy wall time (utilisation accounting).
        self.busy_us: float = 0.0
        #: tid of the most recent occupant (kept in the checkpoint snapshot).
        self.last_tid: Optional[int] = None

    @property
    def idle(self) -> bool:
        return self.thread is None


class NodeScheduler:
    """Priority dispatcher for the CPUs of one node.

    Parameters
    ----------
    sim:
        The shared simulator.
    node_id:
        Node index (for traces and thread identity).
    n_cpus:
        CPUs on this node.
    config:
        Kernel policy.
    ticks:
        This node's tick schedule (phase may be node-specific).
    trace:
        Optional object with ``record_interval(node_id, cpu, thread, t0,
        t1)``; called whenever a thread leaves a CPU.
    rng_streams:
        Optional :class:`~repro.rng.StreamFactory` for policies that draw
        randomness (``lottery`` uses ``kernel.lottery.<node>``).  The
        Cluster passes its own factory; deterministic policies never
        touch it, so passing None stays valid for them.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        n_cpus: int,
        config: KernelConfig,
        ticks: TickSchedule,
        trace: Optional[Any] = None,
        rng_streams: Optional[Any] = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.n_cpus = n_cpus
        self.config = config
        self.ticks = ticks
        self.trace = trace
        self.rng_streams = rng_streams
        self.policy = make_policy(config)
        key = self.policy.queue_key
        self.cpus = [CpuState(i) for i in range(n_cpus)]
        self.local_queues = [RunQueue(f"n{node_id}c{i}", key=key) for i in range(n_cpus)]
        self.global_queue = RunQueue(f"n{node_id}g", key=key)
        self.threads: list[Thread] = []
        self._ipis_inflight = 0
        #: IPIs suppressed by the stock one-in-flight rule (for tests/stats).
        self.ipis_suppressed = 0
        self.ipis_sent = 0
        #: Charged at every dispatch; KernelConfig is frozen.
        self._context_switch_us = config.context_switch_us
        self.policy.bind(self)
        # Bound-method aliases: the decision calls sit on the dispatch hot
        # path, and one attribute walk per call is the whole price of the
        # policy indirection (timed by perfbench's ``cosched`` workload).
        self._queue_for = self.policy.queue_for
        self._consider_placement = self.policy.place
        self._pick_best = self.policy.pick

    # ==================================================================
    # Public API
    # ==================================================================
    def spawn(
        self,
        body: Generator,
        name: str,
        priority: int,
        affinity_cpu: int,
        category: str = "app",
        use_global_queue: bool = False,
        allow_steal: bool = True,
        tick_quantized: bool = True,
        hardware: bool = False,
        start: bool = True,
    ) -> Thread:
        """Create a thread and advance it to its first request.

        ``start=False`` defers the first advance until :meth:`start` —
        needed when the body's first request touches registration state
        keyed by the thread itself.
        """
        if not 0 <= affinity_cpu < self.n_cpus:
            raise ValueError(f"affinity_cpu {affinity_cpu} out of range")
        thread = Thread(
            body,
            name=name,
            priority=priority,
            node_id=self.node_id,
            affinity_cpu=affinity_cpu,
            category=category,
            use_global_queue=use_global_queue,
            allow_steal=allow_steal,
            tick_quantized=tick_quantized,
            hardware=hardware,
        )
        self.threads.append(thread)
        if start:
            self._advance(thread, None)
        return thread

    def start(self, thread: Thread) -> None:
        """Begin executing a thread spawned with ``start=False``."""
        if thread.state is not ThreadState.NEW:
            raise RuntimeError(f"start() on {thread!r} in state {thread.state}")
        self._advance(thread, None)

    def wake(self, thread: Thread, value: Any = None) -> None:
        """Complete a Block/Sleep: advance the thread to its next request."""
        if thread.state not in (_BLOCKED, _SLEEPING):
            raise RuntimeError(f"wake() on {thread!r} in state {thread.state}")
        if thread.wake_ev is not None:
            thread.wake_ev.cancel()
            thread.wake_ev = None
        self._advance(thread, value)

    def spin_deliver(self, thread: Thread, value: Any) -> None:
        """Satisfy a SpinWait: the spun-on event occurred."""
        if thread.spinning is None:
            raise RuntimeError(f"spin_deliver() on non-spinning {thread!r}")
        thread.spinning = None
        if thread.state is _RUNNING:
            # Account the spin occupancy before the thread moves on.  The
            # segment starts at run_start (set when the spin began or the
            # thread was re-dispatched), NOT cpu.run_began: the occupancy
            # since dispatch may include completed Compute work that
            # _on_complete already credited.
            thread.stats.cpu_time_us += self.sim.now - thread.run_start
            self._advance(thread, value)
        elif thread.state is _READY:
            # Preempted mid-spin; resume the generator at next dispatch.
            thread.spin_value = value
            thread.resume_advance = True
        else:  # pragma: no cover - spinners are only RUNNING or READY
            raise RuntimeError(f"spinner {thread!r} in state {thread.state}")

    def set_priority(self, thread: Thread, priority: int, self_call: bool = False) -> None:
        """Change *thread*'s dispatch priority (the co-scheduler's tool).

        ``self_call`` marks a thread changing its own priority via syscall,
        where the kernel is entered anyway and preemption is immediate;
        external changes to a *running* thread on another CPU go through
        the reverse-preemption noticing machinery.
        """
        if not 0 <= priority <= 127:
            raise ValueError("priority out of range [0, 127]")
        old = thread.priority
        if priority == old:
            return
        thread.priority = priority
        if thread.on_priority_change is not None:
            thread.on_priority_change(thread, old, priority)

        if thread.state is _READY:
            q = self._queue_for(thread)
            q.remove(thread)
            q.push(thread)
            if priority < old:
                self._consider_placement(thread)
        elif thread.state is _RUNNING:
            if priority > old:
                # Reverse preemption: does a waiter now beat us?
                cpu_idx = thread.cpu
                if self.policy.waiter_beats(cpu_idx, thread):
                    if self_call:
                        # Syscall exit is a natural preemption point.
                        self._check_cpu(cpu_idx)
                    elif self.config.realtime_scheduling and self.config.fix_reverse_preemption:
                        self._send_ipi(cpu_idx)
                    else:
                        self._schedule_check(cpu_idx)
        # BLOCKED / SLEEPING / NEW / FINISHED: takes effect on next wakeup.

    def kill(self, thread: Thread) -> None:
        """Terminate *thread* immediately, whatever it is doing.

        Models an abnormal death (the fault injector's tool): the victim is
        yanked off its CPU / out of its queue, pending timers are cancelled,
        and — unlike :meth:`_finish` — ``on_finish`` is *not* invoked: nobody
        is notified, which is exactly why the co-scheduler watchdog exists.
        """
        if thread.state is ThreadState.FINISHED:
            return
        if thread.state is _RUNNING:
            self._off_cpu_and_dispatch(thread, voluntary=False)
        elif thread.state is _READY:
            self._queue_for(thread).remove(thread)
        if thread.wake_ev is not None:
            thread.wake_ev.cancel()
            thread.wake_ev = None
        if thread.completion_ev is not None:
            thread.completion_ev.cancel()
            thread.completion_ev = None
        thread.spinning = None
        thread.resume_advance = False
        thread.spin_value = None
        thread.state = ThreadState.FINISHED
        thread.gen = None

    def snapshot_state(self, desc) -> dict:
        """Checkpoint view of the dispatcher: CPUs, queues, all threads."""
        return {
            "node": self.node_id,
            "cpus": [
                {
                    "index": c.index,
                    "thread": desc.thread(c.thread),
                    "run_began": c.run_began,
                    "last_switch": c.last_switch,
                    "busy_us": c.busy_us,
                    "last": desc.tid(c.last_tid),
                    "check_pending": c.check_ev is not None and c.check_ev.active,
                }
                for c in self.cpus
            ],
            "local_queues": [q.snapshot_state(desc) for q in self.local_queues],
            "global_queue": self.global_queue.snapshot_state(desc),
            "threads": [t.snapshot_state(desc) for t in self.threads],
            "ipis": {
                "inflight": self._ipis_inflight,
                "sent": self.ipis_sent,
                "suppressed": self.ipis_suppressed,
            },
            "policy": self.policy.snapshot_state(desc),
        }

    def idle_cpus(self) -> int:
        """Number of CPUs with no occupant right now."""
        return sum(1 for c in self.cpus if c.idle)

    # ==================================================================
    # Generator driving
    # ==================================================================
    def _advance(self, thread: Thread, value: Any) -> None:
        """Drive the body generator until it issues a time-taking request.

        This is the hottest dispatcher function (once per syscall request),
        so the generator's ``send`` is bound once and requests dispatch on
        exact class identity — the request types are final dataclasses, so
        ``type(req) is Compute`` is both correct and skips the isinstance
        machinery for the Compute case that dominates real workloads.
        """
        sim = self.sim
        send = thread.gen.send
        while True:
            try:
                req = send(value)
            except StopIteration:
                self._finish(thread)
                return
            value = None
            cls = req.__class__

            if cls is Compute:
                if req.duration_us <= 0:
                    continue
                thread.work_remaining = req.duration_us
                if thread.state is _RUNNING:
                    self._schedule_completion(thread)
                else:
                    self._make_ready(thread)
                return

            if cls is Sleep or cls is SleepUntil:
                if cls is Sleep:
                    wake_t = sim.now + req.duration_us
                else:
                    wake_t = max(sim.now, req.time_us)
                if thread.tick_quantized:
                    wake_t = self.ticks.quantize_wake(thread.affinity_cpu, wake_t)
                if thread.state is _RUNNING:
                    self._off_cpu_and_dispatch(thread, voluntary=True)
                thread.state = _SLEEPING
                thread.wake_ev = sim.schedule_at(
                    wake_t, self._timer_wake, thread, priority=_PRIO_KERNEL
                )
                return

            if cls is Block:
                if thread.state is _RUNNING:
                    self._off_cpu_and_dispatch(thread, voluntary=True)
                thread.state = _BLOCKED
                return

            if cls is SpinWait:
                res = req.register(thread)
                if res is not None:
                    value = res  # event already occurred; no spin needed
                    continue
                thread.spinning = req
                if thread.state is _RUNNING:
                    # Occupy the CPU open-endedly; no completion event.
                    thread.run_start = self.sim.now
                    thread.run_work = 0.0
                else:
                    self._make_ready(thread)
                return

            if cls is SetPriority:
                self.set_priority(thread, req.priority, self_call=True)
                if thread.state is not _RUNNING:
                    # set_priority preempted us (reverse preemption at the
                    # syscall boundary); the generator resumes at dispatch.
                    thread.resume_advance = True
                    return
                continue

            if cls is YieldCpu:
                if thread.state is _RUNNING:
                    thread.resume_advance = True
                    self._off_cpu_and_dispatch(thread, voluntary=True)
                    self._make_ready(thread)
                    return
                continue

            raise TypeError(f"unknown syscall request {req!r} from {thread!r}")

    def _finish(self, thread: Thread) -> None:
        if thread.state is _RUNNING:
            self._off_cpu_and_dispatch(thread, voluntary=True)
        if thread.wake_ev is not None:
            thread.wake_ev.cancel()
            thread.wake_ev = None
        thread.state = ThreadState.FINISHED
        thread.gen = None
        if thread.on_finish is not None:
            thread.on_finish(thread)

    def _timer_wake(self, thread: Thread) -> None:
        thread.wake_ev = None
        if thread.state is _SLEEPING:
            self._advance(thread, None)

    # ==================================================================
    # Ready queues and placement
    # ==================================================================
    # _queue_for / _consider_placement / _pick_best are bound to the
    # active policy's queue_for / place / pick in __init__.

    def _make_ready(self, thread: Thread) -> None:
        thread.state = _READY
        thread.stats.last_ready_at = self.sim.now
        self._queue_for(thread).push(thread)
        self._consider_placement(thread)

    def _find_idle_cpu(self) -> Optional[int]:
        for cpu in self.cpus:
            if cpu.thread is None:
                return cpu.index
        return None

    # ==================================================================
    # Dispatch / placement
    # ==================================================================
    def _dispatch(self, cpu_idx: int) -> None:
        cpu = self.cpus[cpu_idx]
        if cpu.thread is not None:
            return
        thread = self._pick_best(cpu_idx)
        if thread is None:
            return
        self._place(cpu, thread)

    def _place(self, cpu: CpuState, thread: Thread) -> None:
        now = self.sim.now
        thread.state = _RUNNING
        thread.cpu = cpu.index
        cpu.thread = thread
        cpu.run_began = now
        cpu.last_switch = now
        thread.stats.dispatches += 1
        thread.stats.ready_wait_us += now - thread.stats.last_ready_at
        thread.cs_due = self._context_switch_us
        cpu.last_tid = thread.tid

        if thread.resume_advance:
            # Generator continuation (YieldCpu done, or spin satisfied while
            # off-CPU).  Deferred through the event queue so deep chains of
            # zero-time re-dispatches can't recurse.  The flag stays set
            # until the resume actually runs, so a same-timestamp preemption
            # and re-dispatch cannot lose (or double-drive) the
            # continuation; stale resume events no-op on the cleared flag.
            thread.run_start = now
            thread.run_work = 0.0
            self.sim.schedule(0.0, self._resume_on_cpu, thread, priority=_PRIO_KERNEL)
        elif thread.spinning is not None:
            thread.run_start = now
            thread.run_work = 0.0
        else:
            self._schedule_completion(thread)

    def _resume_on_cpu(self, thread: Thread) -> None:
        # Only fire while the thread still holds a CPU *and* the
        # continuation is still pending; otherwise the flag survives and the
        # next _place schedules a fresh resume.
        if thread.state is _RUNNING and thread.resume_advance:
            thread.resume_advance = False
            value, thread.spin_value = thread.spin_value, None
            self._advance(thread, value)

    def _schedule_completion(self, thread: Thread) -> None:
        sim = self.sim
        now = sim.now
        work = thread.work_remaining + thread.cs_due
        thread.cs_due = 0.0
        thread.run_start = now
        thread.run_work = work
        t_done = self.ticks.inflate(thread.cpu, now, work)
        thread.completion_ev = sim.schedule_at(
            t_done, self._on_complete, thread, priority=_PRIO_KERNEL
        )

    def _on_complete(self, thread: Thread) -> None:
        thread.completion_ev = None
        thread.stats.cpu_time_us += thread.run_work
        thread.work_remaining = 0.0
        thread.run_work = 0.0
        self._advance(thread, None)

    def _off_cpu_and_dispatch(self, thread: Thread, voluntary: bool) -> None:
        """Release *thread*'s CPU and refill it."""
        cpu_idx = self._off_cpu(thread, voluntary)
        self._dispatch(cpu_idx)

    def _off_cpu(self, thread: Thread, voluntary: bool) -> int:
        cpu_idx = thread.cpu
        cpu = self.cpus[cpu_idx]
        now = self.sim.now
        if self.trace is not None:
            self.trace.record_interval(self.node_id, cpu_idx, thread, cpu.run_began, now)
        cpu.busy_us += now - cpu.run_began
        if thread.completion_ev is not None:
            thread.completion_ev.cancel()
            thread.completion_ev = None
        if thread.spinning is not None:
            # Same run_start rationale as spin_deliver: don't re-charge
            # compute already credited by _on_complete.
            thread.stats.cpu_time_us += now - thread.run_start
        if voluntary:
            thread.stats.voluntary_switches += 1
        cpu.thread = None
        thread.cpu = None
        return cpu_idx

    # ==================================================================
    # Preemption machinery
    # ==================================================================
    def _request_preempt(self, cpu_idx: int) -> None:
        """A better-priority thread waits for a busy CPU: get it noticed."""
        if self.config.realtime_scheduling:
            if self.config.fix_multi_ipi or self._ipis_inflight == 0:
                self._send_ipi(cpu_idx)
                return
            self.ipis_suppressed += 1
        self._schedule_check(cpu_idx)

    def _send_ipi(self, cpu_idx: int) -> None:
        if self.config.fix_multi_ipi or self._ipis_inflight == 0:
            self._ipis_inflight += 1
            self.ipis_sent += 1
            self.sim.schedule(
                self.config.ipi_latency_us,
                self._ipi_arrive,
                cpu_idx,
                priority=_PRIO_INTERRUPT,
            )
        else:
            self.ipis_suppressed += 1
            self._schedule_check(cpu_idx)

    def _ipi_arrive(self, cpu_idx: int) -> None:
        self._ipis_inflight -= 1
        cpu = self.cpus[cpu_idx]
        # The interrupted context pays the handler cost.
        th = cpu.thread
        if th is not None and th.completion_ev is not None:
            th.completion_ev.cancel()
            th.run_work += self.config.ipi_cost_us
            t_done = self.ticks.inflate(cpu_idx, th.run_start, th.run_work)
            th.completion_ev = self.sim.schedule_at(
                max(t_done, self.sim.now), self._on_complete, th, priority=_PRIO_KERNEL
            )
        self._check_cpu(cpu_idx)

    def _schedule_check(self, cpu_idx: int) -> None:
        """Arrange for *cpu_idx* to notice pending work at its next tick.

        If we are already inside this CPU's tick processing (quantised
        wakeups fire exactly on boundaries), the check is immediate — the
        readying operation happened on the noticing CPU.
        """
        cpu = self.cpus[cpu_idx]
        if self.ticks.is_boundary(cpu_idx, self.sim.now):
            self._check_cpu(cpu_idx)
            return
        if cpu.check_ev is not None and cpu.check_ev.active:
            return
        cpu.check_ev = self.sim.schedule_at(
            self.ticks.next_boundary(cpu_idx, self.sim.now),
            self._tick_check,
            cpu_idx,
            priority=_PRIO_INTERRUPT,
        )

    def _tick_check(self, cpu_idx: int) -> None:
        self.cpus[cpu_idx].check_ev = None
        self._check_cpu(cpu_idx)

    def _rearm_check(self, cpu_idx: int) -> None:
        """Re-arm the pending-work check for *cpu_idx*'s next tick boundary
        (policies call this when the incumbent keeps its CPU for now)."""
        cpu = self.cpus[cpu_idx]
        if cpu.check_ev is None or not cpu.check_ev.active:
            cpu.check_ev = self.sim.schedule_at(
                self.ticks.next_boundary(cpu_idx, self.sim.now),
                self._tick_check,
                cpu_idx,
                priority=_PRIO_INTERRUPT,
            )

    def _check_cpu(self, cpu_idx: int) -> None:
        """Preemption point: refill an idle CPU, else let the policy judge
        the occupant against its waiters."""
        if self.cpus[cpu_idx].thread is None:
            self._dispatch(cpu_idx)
            return
        self.policy.on_tick(cpu_idx)

    def _preempt(self, cpu_idx: int) -> None:
        cpu = self.cpus[cpu_idx]
        thread = cpu.thread
        now = self.sim.now
        if thread.spinning is None:
            done = self.ticks.consumed_work(cpu_idx, thread.run_start, now, thread.run_work)
            thread.stats.cpu_time_us += done
            remaining = thread.run_work - done
        else:
            remaining = 0.0
        thread.stats.preemptions += 1
        self._off_cpu(thread, voluntary=False)
        thread.run_work = 0.0
        thread.work_remaining = remaining
        self._make_ready(thread)
        self._dispatch(cpu_idx)
