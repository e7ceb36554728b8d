"""Pluggable node-scheduler policies: the dispatch core behind a small API.

The paper's argument is that *scheduling semantics* — not hardware — decide
parallel-job scalability.  :class:`~repro.kernel.scheduler.NodeScheduler`
therefore keeps only mechanism (context switches, completion events, IPIs,
tick checks, accounting) and delegates every policy decision to a
:class:`SchedPolicy` object:

``queue_for(thread)``
    Which run queue a READY thread is pushed to.
``place(thread)``
    React to *thread* becoming ready or better: dispatch an idle CPU,
    request a preemption, or arm a tick-boundary check.
``pick(cpu_idx)``
    Choose (and dequeue) the next occupant for an idle CPU.
``steal_from(cpu_idx)``
    Migration fallback when ``pick`` finds the home queues empty.
``on_tick(cpu_idx)``
    The preemption point on an *occupied* CPU: compare the incumbent
    against the best waiter and preempt, rotate, or re-arm.
``waiter_beats(cpu_idx, thread)``
    Reverse preemption: after running *thread*'s priority was worsened,
    should some waiter now take its CPU?
``snapshot_state(desc)``
    Policy-private state for checkpoint fingerprints.  Restore needs no
    inverse hook: checkpointing is replay-based (rebuild from config and
    replay), which re-derives policy state and replays any named rng
    streams a policy draws from.

Policies are registered by name (``@register_policy``) and selected via
``KernelConfig.policy`` / ``policy_params``; unknown names or params fail
loudly at config construction.  The ``aix`` policy is the pre-refactor
dispatcher extracted verbatim and is covered by a bit-identical contract
(the ``engine`` entries of ``tests/golden_contract.json``).

Design constraints every policy must respect:

* Route threads through the scheduler's ``local_queues``/``global_queue``
  only — the invariant monitor and checkpoint descriptors walk exactly
  those structures.
* ``queue_for`` must be a pure function of the thread's static routing
  fields (``use_global_queue``, ``affinity_cpu``): ``RunQueue.remove``
  bookkeeps on whichever queue it is called on, so routing may not depend
  on mutable state.
* All randomness comes from named streams on ``sched.rng_streams`` (the
  cluster's :class:`~repro.rng.StreamFactory`), created lazily so policies
  that draw nothing leave other streams' draws untouched.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.kernel.thread import Thread, ThreadState

__all__ = [
    "SchedPolicy",
    "AixPolicy",
    "FairPolicy",
    "QuantumPolicy",
    "LotteryPolicy",
    "register_policy",
    "policy_names",
    "policy_param_names",
    "validate_policy",
    "make_policy",
]

_REGISTRY: dict[str, type] = {}

_READY = ThreadState.READY


def register_policy(cls: type) -> type:
    """Class decorator: add *cls* to the policy registry under ``cls.name``."""
    name = getattr(cls, "name", "")
    if not name:
        raise ValueError(f"policy class {cls.__name__} has no name")
    if name in _REGISTRY:
        raise ValueError(f"duplicate policy name {name!r}")
    _REGISTRY[name] = cls
    return cls


def policy_names() -> tuple[str, ...]:
    """Registered policy names, sorted."""
    return tuple(sorted(_REGISTRY))


def policy_param_names(name: str) -> tuple[str, ...]:
    """Declared parameter names of policy *name* (KeyError if unknown)."""
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown scheduling policy {name!r}; registered: {sorted(_REGISTRY)}"
        )
    return tuple(sorted(_REGISTRY[name].PARAMS))


def validate_policy(name: str, params=()) -> None:
    """Loud validation for ``KernelConfig``: unknown policy names or
    per-policy params raise ValueError listing what *is* registered
    (the ``FaultConfig.validate_targets`` failure discipline)."""
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown scheduling policy {name!r}; "
            f"registered policies: {sorted(_REGISTRY)}"
        )
    # Instantiating runs the constructor's own name/value checks.
    _REGISTRY[name](**dict(params))


def make_policy(config) -> "SchedPolicy":
    """Build the policy instance a :class:`KernelConfig` selects."""
    if config.policy not in _REGISTRY:
        raise ValueError(
            f"unknown scheduling policy {config.policy!r}; "
            f"registered policies: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[config.policy](**dict(config.policy_params))


class SchedPolicy:
    """Base class: shared routing/pick machinery with AIX's shape.

    Subclasses override the decision methods; the base provides the
    key-ordered pick (local queue beats global on ties, steal fallback)
    and the canonical queue routing every zoo member shares.

    ``queue_key`` is either ``None`` (queues order by ``thread.priority``
    — the AIX fast path, no callable indirection in ``RunQueue.push``) or
    a method mapping a thread to its heap key at enqueue time.
    """

    #: Registry name; subclasses must set it.
    name = ""
    #: Declared tunables and their defaults.  ``None`` defaults are
    #: resolved against the kernel config at :meth:`bind` time.
    PARAMS: dict = {}
    #: Enqueue-time heap key, or None for priority ordering.
    queue_key: Optional[Callable[[Thread], float]] = None

    def __init__(self, **params) -> None:
        unknown = sorted(set(params) - set(self.PARAMS))
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {unknown} for policy {self.name!r}; "
                f"valid: {sorted(self.PARAMS)}"
            )
        self.params = {**self.PARAMS, **params}
        self.sched = None

    def bind(self, sched) -> None:
        """Attach to a :class:`NodeScheduler` (queues already built).

        The queues and the frozen config's queue routing are cached here:
        routing and picking run on every dispatch.
        """
        self.sched = sched
        self._global_daemons = sched.config.daemons_global_queue
        self._local_queues = sched.local_queues
        self._global_queue = sched.global_queue

    # ------------------------------------------------------------------
    # Decision interface
    # ------------------------------------------------------------------
    def queue_for(self, thread: Thread):
        """The run queue *thread* is pushed to when READY."""
        if thread.use_global_queue and self._global_daemons:
            return self._global_queue
        return self._local_queues[thread.affinity_cpu]

    def place(self, thread: Thread) -> None:
        """React to *thread* becoming ready/better: dispatch or preempt."""
        raise NotImplementedError

    def pick(self, cpu_idx: int) -> Optional[Thread]:
        """Choose the next occupant for idle *cpu_idx* (dequeued), or None.

        Base behaviour: best heap key wins, local queue beats global on
        ties, and an empty home falls back to :meth:`steal_from`.
        """
        lq = self._local_queues[cpu_idx]
        gq = self._global_queue
        lp = lq.best_priority()
        gp = gq.best_priority()
        if lp is not None and (gp is None or lp <= gp):
            return lq.pop()
        if gp is not None:
            return gq.pop()
        return self.steal_from(cpu_idx)

    def steal_from(self, cpu_idx: int) -> Optional[Thread]:
        """Steal the best migratable thread from a sibling local queue."""
        sched = self.sched
        best_q, best_p = None, None
        for i, q in enumerate(sched.local_queues):
            if i == cpu_idx or not q:
                continue
            p = q.best_stealable_priority()
            if p is not None and (best_p is None or p < best_p):
                best_q, best_p = q, p
        if best_q is not None:
            return best_q.pop_stealable()
        return None

    def on_tick(self, cpu_idx: int) -> None:
        """Preemption point on an *occupied* CPU: preempt, rotate, or re-arm."""
        raise NotImplementedError

    def waiter_beats(self, cpu_idx: int, thread: Thread) -> bool:
        """After RUNNING *thread* was worsened: should a waiter take over?"""
        raise NotImplementedError

    def snapshot_state(self, desc) -> dict:
        """Checkpoint view of policy-private state."""
        return {"name": self.name, "params": sorted(self.params.items())}

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _fill_idle(self, thread: Thread) -> bool:
        """Dispatch idle CPUs until *thread* runs or none can take work.

        A single dispatch is not enough: the freed CPU may pick a
        different (earlier-queued or better-keyed) thread, leaving
        *thread* READY while other CPUs idle — work conservation requires
        retrying every idle CPU, each iteration either occupying one or
        proving nothing more is dispatchable.  (The ``aix`` policy
        deliberately does not do this: there a preempted worse-priority
        thread waits for its priority turn — pre-refactor behaviour, held
        bit-identical by the golden digests.)
        """
        sched = self.sched
        while thread.state is _READY:
            idle = sched._find_idle_cpu()
            if idle is None:
                return False
            sched._dispatch(idle)
            if sched.cpus[idle].thread is None:
                return False  # nothing dispatchable there: no progress
        return True

    def best_waiting_key(self, cpu_idx: int):
        """Best heap key waiting for *cpu_idx* (local or global), or None."""
        lp = self._local_queues[cpu_idx].best_priority()
        gp = self._global_queue.best_priority()
        if lp is None:
            return gp
        if gp is None:
            return lp
        return min(lp, gp)


@register_policy
class AixPolicy(SchedPolicy):
    """The paper's AIX dispatcher, extracted verbatim from NodeScheduler.

    **Bit-identical contract:** this class is the pre-refactor behaviour
    move-only.  The engine runs of ``tests/test_contract.py`` hold it to
    the seed schedule event-for-event (the ``engine`` entries of
    ``tests/golden_contract.json``); change it only together with a
    deliberate, hand-edited golden change.
    """

    name = "aix"

    def place(self, thread: Thread) -> None:
        """Dispatch or preempt for a newly READY thread.

        Dispatching a freed CPU may pick a *different* (better or
        earlier-queued equal) thread; when that happens this thread is
        still READY and must fall through to the preemption/rotation
        arming below, or it would wait unbounded (two co-scheduled jobs
        timesharing a CPU hit exactly this).
        """
        sched = self.sched
        if thread.use_global_queue and self._global_daemons:
            idle = sched._find_idle_cpu()
            if idle is not None:
                sched._dispatch(idle)
                if thread.state is not _READY:
                    return
            # Preempt the CPU running the worst-priority occupant.
            worst_cpu, worst_prio = None, -1
            for cpu in sched.cpus:
                if cpu.thread is not None and cpu.thread.priority > worst_prio:
                    worst_cpu, worst_prio = cpu.index, cpu.thread.priority
            if worst_cpu is None:
                return
            if thread.priority < worst_prio:
                sched._request_preempt(worst_cpu)
            elif thread.priority == worst_prio:
                sched._schedule_check(worst_cpu)
            return

        home = thread.affinity_cpu
        if sched.cpus[home].thread is None:
            sched._dispatch(home)
            if thread.state is not _READY:
                return
        if thread.allow_steal:
            idle = sched._find_idle_cpu()
            if idle is not None:
                sched._dispatch(idle)
                if thread.state is not _READY:
                    return
        running = sched.cpus[home].thread
        if running is None:
            return
        if thread.priority < running.priority:
            if thread.hardware:
                # Device interrupt: asserted directly at the target CPU,
                # no dispatcher noticing latency.  The CPU is occupied, so
                # its preemption point is this policy's tick check.
                self.on_tick(home)
            else:
                sched._request_preempt(home)
        elif thread.priority == running.priority:
            sched._schedule_check(home)

    def on_tick(self, cpu_idx: int) -> None:
        """Compare the occupant against the best waiter at a tick."""
        sched = self.sched
        cpu = sched.cpus[cpu_idx]
        best = self.best_waiting_key(cpu_idx)
        if best is None:
            return
        running = cpu.thread
        if best < running.priority:
            sched._preempt(cpu_idx)
        elif best == running.priority:
            # Round-robin among equals at the preemption point — but only
            # once the incumbent has consumed a timeslice (one base tick),
            # as AIX's per-tick priority ageing effectively does.  If not
            # yet, re-arm for the next boundary so the waiter still gets
            # its turn.
            if sched.sim.now - cpu.last_switch >= sched.config.tick_period_us - 1e-6:
                sched._preempt(cpu_idx)
            else:
                sched._rearm_check(cpu_idx)

    def waiter_beats(self, cpu_idx: int, thread: Thread) -> bool:
        """Strict priority: a waiter wins only if numerically better."""
        best = self.best_waiting_key(cpu_idx)
        return best is not None and best < thread.priority


class _RotatingPolicy(SchedPolicy):
    """Shared place/rotate machinery for the slice-based policies.

    Priority-blind placement: dispatch idles, otherwise arm a check so
    the incumbent's slice expiry is noticed at a tick boundary; rotation
    preempts whoever exhausted its slice while anyone waits.
    """

    PARAMS = {"slice_us": None}

    def __init__(self, **params) -> None:
        super().__init__(**params)
        s = self.params["slice_us"]
        if s is not None and float(s) <= 0:
            raise ValueError(f"policy {self.name!r}: slice_us must be positive")

    def bind(self, sched) -> None:
        super().bind(sched)
        s = self.params["slice_us"]
        self.slice_us = float(s) if s is not None else float(sched.config.tick_period_us)

    def _has_waiter(self, cpu_idx: int) -> bool:
        return self.best_waiting_key(cpu_idx) is not None

    def place(self, thread: Thread) -> None:
        sched = self.sched
        glob = thread.use_global_queue and self._global_daemons
        home = thread.affinity_cpu
        if not glob and sched.cpus[home].thread is None:
            sched._dispatch(home)
            if thread.state is not _READY:
                return
        if glob or thread.allow_steal:
            if self._fill_idle(thread):
                return
        # Every CPU busy: arm the rotation check where this thread can
        # run — its home CPU, or for global work wherever the incumbent
        # has held its CPU longest (deepest into / past its slice).
        target = self._longest_running_cpu() if glob else home
        if target is not None and sched.cpus[target].thread is not None:
            sched._schedule_check(target)

    def _longest_running_cpu(self) -> Optional[int]:
        sched = self.sched
        best, best_t = None, None
        for cpu in sched.cpus:
            if cpu.thread is not None and (best_t is None or cpu.last_switch < best_t):
                best, best_t = cpu.index, cpu.last_switch
        return best

    def on_tick(self, cpu_idx: int) -> None:
        sched = self.sched
        if not self._has_waiter(cpu_idx):
            return
        if sched.sim.now - sched.cpus[cpu_idx].last_switch >= self.slice_us - 1e-6:
            sched._preempt(cpu_idx)
        else:
            sched._rearm_check(cpu_idx)

    def waiter_beats(self, cpu_idx: int, thread: Thread) -> bool:
        # Priority-blind: a worsened incumbent only rotates out at slice
        # expiry, same as any other occupant.
        sched = self.sched
        return (
            self._has_waiter(cpu_idx)
            and sched.sim.now - sched.cpus[cpu_idx].last_switch >= self.slice_us - 1e-6
        )


@register_policy
class QuantumPolicy(_RotatingPolicy):
    """Fixed-quantum round-robin: FIFO queues, rotate every ``slice_us``.

    Priorities are ignored entirely; fairness is temporal.  The FIFO is
    cross-queue: heap keys are constant so entries order by their global
    sequence numbers, and :meth:`pick` compares (key, seq) ranks between
    the local and global queue — the oldest waiter anywhere wins.
    """

    name = "quantum"

    def queue_key(self, thread: Thread) -> float:
        """Constant key: the heap degenerates to arrival-order FIFO."""
        return 0.0

    def pick(self, cpu_idx: int) -> Optional[Thread]:
        """Oldest waiter across local+global queues (by global seq)."""
        sched = self.sched
        lq = sched.local_queues[cpu_idx]
        gq = sched.global_queue
        lr = lq.head_rank()
        gr = gq.head_rank()
        if lr is not None and (gr is None or lr <= gr):
            return lq.pop()
        if gr is not None:
            return gq.pop()
        return self.steal_from(cpu_idx)


@register_policy
class LotteryPolicy(_RotatingPolicy):
    """Ticket-proportional lottery scheduling (Waldspurger-style).

    Each pick draws a winner among the CPU's eligible waiters with
    probability proportional to tickets (``128 - priority``, so favored
    threads hold more).  Draws come from the named
    ``kernel.lottery.<node>`` stream of the cluster's StreamFactory —
    seed-deterministic, replayable, and isolated from every other
    consumer's draws.  Rotation between draws is slice-based.

    The per-*node* stream name is load-bearing for parallel DES
    (:mod:`repro.sim.parallel`): StreamFactory derives the stream from the
    name alone, so node *n*'s lottery draws are identical no matter which
    shard owns the node or how many sibling streams exist — the
    shard-stable naming contract ``tests/test_parallel_des.py`` pins.  A
    single global ``kernel.lottery`` stream would instead interleave draws
    in event order across nodes and break shard equivalence.
    """

    name = "lottery"

    def queue_key(self, thread: Thread) -> float:
        """Constant key: ordering is irrelevant, winners are drawn."""
        return 0.0

    def bind(self, sched) -> None:
        """Attach and open this node's ``kernel.lottery.<node>`` stream."""
        super().bind(sched)
        if sched.rng_streams is None:
            raise ValueError(
                "lottery policy needs named rng streams: construct "
                "NodeScheduler/Node with rng_streams=<StreamFactory> "
                "(Cluster wires this automatically)"
            )
        self._rng = sched.rng_streams.stream(f"kernel.lottery.n{sched.node_id}")

    @staticmethod
    def _tickets(thread: Thread) -> int:
        return 128 - thread.priority

    def pick(self, cpu_idx: int) -> Optional[Thread]:
        """Hold the lottery among *cpu_idx*'s eligible waiters."""
        sched = self.sched
        cands = list(sched.local_queues[cpu_idx].threads())
        cands.extend(sched.global_queue.threads())
        if not cands:
            return self.steal_from(cpu_idx)
        if len(cands) == 1:
            # No contention, no draw: keeps stream consumption (and thus
            # cross-seed variance) proportional to actual contention.
            winner = cands[0]
        else:
            total = 0
            for t in cands:
                total += self._tickets(t)
            r = float(self._rng.random()) * total
            acc = 0
            winner = cands[-1]
            for t in cands:
                acc += self._tickets(t)
                if r < acc:
                    winner = t
                    break
        self.queue_for(winner).remove(winner)
        return winner


@register_policy
class FairPolicy(SchedPolicy):
    """CFS-style virtual-runtime fair share.

    Each thread accrues virtual runtime ``cpu_time / weight`` with weight
    ``128 - priority``; queues order by vruntime, so the thread furthest
    behind its fair share runs next.  ``min_granularity_us`` (default: one
    tick period) bounds both the preemption hysteresis — an incumbent is
    only displaced once it is a granularity *ahead* of the best waiter —
    and the minimum time it holds the CPU between switches.

    ``thread.policy_data`` stores the thread's vruntime offset: the
    sleeper boost advances it so a long sleeper resumes at most one
    granularity behind the queue floor instead of monopolising the CPU
    while it "catches up" (CFS's ``place_entity``).
    """

    name = "fair"
    PARAMS = {"min_granularity_us": None}

    def __init__(self, **params) -> None:
        super().__init__(**params)
        g = self.params["min_granularity_us"]
        if g is not None and float(g) <= 0:
            raise ValueError("policy 'fair': min_granularity_us must be positive")

    def bind(self, sched) -> None:
        """Attach, resolve the granularity default, reset the floor."""
        super().bind(sched)
        g = self.params["min_granularity_us"]
        self.gran_us = float(g) if g is not None else float(sched.config.tick_period_us)
        #: Highest vruntime ever dispatched: the queue floor sleepers are
        #: placed against.  Monotonic, so placement never moves backwards.
        self._floor = 0.0

    def _vrt(self, thread: Thread) -> float:
        off = thread.policy_data
        if off is None:
            off = 0.0
            thread.policy_data = 0.0
        return off + thread.stats.cpu_time_us / (128 - thread.priority)

    def _occupant_vrt(self, cpu_idx: int, thread: Thread) -> float:
        """Occupant vruntime including CPU time accrued since dispatch
        (not yet folded into stats)."""
        sched = self.sched
        now = sched.sim.now
        if thread.spinning is not None and thread.completion_ev is None:
            in_flight = now - thread.run_start
        else:
            in_flight = sched.ticks.consumed_work(
                cpu_idx, thread.run_start, now, thread.run_work
            )
        return self._vrt(thread) + in_flight / (128 - thread.priority)

    def queue_key(self, thread: Thread) -> float:
        """Enqueue at the thread's vruntime, sleeper-boosted to the floor."""
        v = self._vrt(thread)
        floor = self._floor - self.gran_us
        if v < floor:
            # Sleeper boost: forgive runtime the thread could not have
            # used while off the queue (mutates the offset, so the credit
            # is permanent).
            thread.policy_data += floor - v
            v = floor
        return v

    def pick(self, cpu_idx: int) -> Optional[Thread]:
        """Lowest-vruntime waiter; raises the monotonic dispatch floor."""
        t = SchedPolicy.pick(self, cpu_idx)
        if t is not None:
            v = self._vrt(t)
            if v > self._floor:
                self._floor = v
        return t

    def place(self, thread: Thread) -> None:
        """Dispatch idles; else preempt the least-fair occupant."""
        sched = self.sched
        glob = thread.use_global_queue and self._global_daemons
        home = thread.affinity_cpu
        if not glob and sched.cpus[home].thread is None:
            sched._dispatch(home)
            if thread.state is not _READY:
                return
        if glob or thread.allow_steal:
            if self._fill_idle(thread):
                return
        # Preempt where the incumbent is furthest ahead in vruntime —
        # the least fair occupancy (for bound threads: the home CPU).
        target = self._max_vrt_cpu() if glob else home
        if target is None:
            return
        occ = sched.cpus[target].thread
        if occ is None:
            return
        lead = self._occupant_vrt(target, occ) - self._vrt(thread)
        if lead > self.gran_us and sched.sim.now - sched.cpus[target].last_switch >= self.gran_us - 1e-6:
            sched._request_preempt(target)
        else:
            sched._schedule_check(target)

    def _max_vrt_cpu(self) -> Optional[int]:
        sched = self.sched
        worst, worst_v = None, None
        for cpu in sched.cpus:
            t = cpu.thread
            if t is not None:
                v = self._occupant_vrt(cpu.index, t)
                if worst_v is None or v > worst_v:
                    worst, worst_v = cpu.index, v
        return worst

    def on_tick(self, cpu_idx: int) -> None:
        """Rotate out an incumbent a full granularity ahead of a waiter."""
        sched = self.sched
        cpu = sched.cpus[cpu_idx]
        best = self.best_waiting_key(cpu_idx)
        if best is None:
            return
        lead = self._occupant_vrt(cpu_idx, cpu.thread) - best
        if lead > self.gran_us and sched.sim.now - cpu.last_switch >= self.gran_us - 1e-6:
            sched._preempt(cpu_idx)
        else:
            sched._rearm_check(cpu_idx)

    def waiter_beats(self, cpu_idx: int, thread: Thread) -> bool:
        """A waiter wins once the incumbent leads by over a granularity."""
        best = self.best_waiting_key(cpu_idx)
        return (
            best is not None
            and self._occupant_vrt(cpu_idx, thread) - best > self.gran_us
        )

    def snapshot_state(self, desc) -> dict:
        """Base snapshot plus the monotonic vruntime floor."""
        state = super().snapshot_state(desc)
        state["vrt_floor"] = self._floor
        return state
