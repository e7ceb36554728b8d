"""Mailboxes, the per-rank API facade, and MPI job construction.

:class:`MpiWorld` owns delivery state; :class:`MpiApi` is the surface an
application body programs against; :class:`MpiJob` spawns the rank threads
(and their auxiliary timer threads) onto a cluster.

Timing semantics
----------------
* A send costs the LogP overhead *o* of CPU on the sender, then the fabric
  carries the message (latency + bytes/bandwidth) without consuming CPU.
* A receive costs *o* of CPU once the message is present.  While absent,
  the receiver either **spins** (default — keeps its CPU, preemptible) or
  **blocks** (releases the CPU), per ``MpiConfig.wait_mode``.
* Local reduction arithmetic costs ``reduce_op_us`` per combine.

The MPI timer threads ("progress engine", [MPICH02]-style) run every
``progress_interval_us`` at the priority of their task — they are threads
of the same process, so the co-scheduler's priority cycling moves them
together with the main thread, which is why the paper had to silence them
separately via ``MP_POLLING_INTERVAL``.
"""

from __future__ import annotations

import functools
import operator
from collections import deque
from typing import Any, Callable, Generator, Hashable, Optional

from repro.config import MpiConfig, PRIO_NORMAL
from repro.kernel.thread import Block, Compute, Sleep, SpinWait, Thread, ThreadState
from repro.machine.cluster import Cluster, Placement
from repro.mpi import collectives
from repro.mpi.messages import Message, ReliableTransport
from repro.sim.core import EventPriority

__all__ = ["MpiWorld", "MpiApi", "MpiJob", "JobIncompleteError", "run_jobs"]

_BLOCK = Block()


class MpiWorld:
    """Delivery fabric + mailboxes for one parallel job."""

    def __init__(self, cluster: Cluster, placement: Placement, config: MpiConfig) -> None:
        self.cluster = cluster
        self.placement = placement
        self.config = config
        #: Fixed-cost requests, built once: requests are frozen, so every
        #: send/recv/combine yields the same instance.  ``overhead`` is the
        #: LogP *o* a sender yields before :meth:`send` and a receiver after
        #: its message is present; ``reduce_op`` is one local combine.
        self.overhead = Compute(cluster.config.network.overhead_us)
        self.reduce_op = Compute(config.reduce_op_us)
        #: ``wait(key)`` returns the one request that waits for an absent
        #: message (:meth:`_spin_wait` or :meth:`_block_wait`); ``wakeup``
        #: is block mode's charge after it, None when polling.
        if config.wait_mode == "poll":
            self.wait = self._spin_wait
            self.wakeup: Optional[Compute] = None
        else:
            self.wait = self._block_wait
            self.wakeup = Compute(config.block_wakeup_cost_us)
        #: ``allreduce(rank, size, opid, value, op, nbytes)``: the configured
        #: algorithm, picked once.
        if config.algorithm == "hardware":
            self.allreduce = self.hw_allreduce
        elif config.algorithm == "binomial":
            self.allreduce = functools.partial(collectives.allreduce_binomial, self)
        else:
            self.allreduce = functools.partial(collectives.allreduce_recursive_doubling, self)
        #: ``placement.node_of``, the fabric and the node schedulers,
        #: inlined on the message path.
        self._tasks_per_node = placement.tasks_per_node
        self._fabric = cluster.fabric
        self._schedulers = [node.scheduler for node in cluster.nodes]
        self._mail: dict[tuple, deque] = {}
        self._spin_waiters: dict[tuple, Thread] = {}
        self._block_waiters: dict[tuple, Thread] = {}
        #: In-flight hardware-collective state, keyed by opid.
        self._hw_ops: dict = {}
        #: Rank -> thread, filled in by MpiJob.
        self.rank_threads: dict[int, Thread] = {}
        #: Optional hook called with each arriving Message before delivery
        #: (demand-based co-scheduling rides on this).
        self.arrival_listener = None
        #: Optional ReliableTransport installed by the fault injector; when
        #: present every point-to-point send is timeout/retransmit protected.
        self.reliability: Optional[ReliableTransport] = None
        #: Cross-shard identity (parallel DES).  Worlds are constructed in
        #: job-launch order on every shard, so the registration index names
        #: the same world everywhere without any exchange.
        self._world_uid: Optional[int] = None
        if cluster.router is not None:
            if config.algorithm == "hardware":
                raise ValueError(
                    "hardware collectives are not available under sharded "
                    "parallel DES (see repro.sim.parallel)"
                )
            self._world_uid = cluster.router.register(self._on_arrive)

    def install_reliability(self, faults) -> ReliableTransport:
        """Wrap sends in timeout + retransmit (see :class:`ReliableTransport`).

        Covers every software path — collectives post every message
        through :meth:`send` — but not the hardware-collective
        deposit/fan-out, which models a switch-internal guaranteed path.
        """
        self.reliability = ReliableTransport(
            self.cluster.sim,
            self.cluster.fabric,
            self._on_arrive,
            timeout_us=faults.retransmit_timeout_us,
            backoff=faults.retransmit_backoff,
            max_timeout_us=faults.retransmit_max_timeout_us,
            max_attempts=faults.retransmit_max_attempts,
            router=self.cluster.router,
        )
        return self.reliability

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, tag: Hashable, payload: Any, nbytes: int) -> None:
        """Post one eager message; the fabric carries it without CPU.

        The sender's CPU cost is the caller's: it yields :attr:`overhead`
        first, so a daemon can preempt the send before the message leaves.
        """
        msg = Message(src, dst, tag, payload, nbytes)
        tpn = self._tasks_per_node
        src_node = src // tpn
        dst_node = dst // tpn
        router = self.cluster.router
        if self.reliability is not None:
            # The transport owns cross-shard routing for its own data and
            # ack envelopes (it registered dedicated router uids).
            self.reliability.send(src_node, dst_node, msg)
        elif router is not None and not router.owns(dst_node):
            # Cross-shard: account the send here (fault plane included —
            # per-link streams make its draws shard-stable), envelope each
            # surviving copy; the owning shard schedules delivery at the
            # same arrival times.
            for arrival in self.cluster.fabric.remote_arrivals(
                src_node, dst_node, nbytes
            ):
                router.emit(arrival, src_node, self._world_uid, dst_node, msg)
        else:
            self._fabric.transmit(src_node, dst_node, nbytes, msg, self._on_arrive)

    def take(self, key: tuple) -> Optional[Message]:
        """The oldest message already in mailbox ``(dst, src, tag)``, or None.

        An emptied mailbox is dropped: collective tags are unique per
        message, so kept empties would pile up, one per early arrival.
        """
        mail = self._mail
        q = mail.get(key)
        if q is None:
            return None
        msg = q.popleft()
        if not q:
            del mail[key]
        return msg

    def _spin_wait(self, key: tuple) -> SpinWait:
        """Poll mode: spin (keeping the CPU) until *key*'s message lands."""
        return SpinWait(self._make_spin_register(key))

    def _block_wait(self, key: tuple) -> Block:
        """Block mode: release the CPU until *key*'s message wakes us; the
        caller then yields :attr:`wakeup`."""
        self._block_waiters[key] = self.rank_threads[key[0]]
        return _BLOCK

    def recv(self, dst: int, src: int, tag: Hashable) -> Generator:
        """Receive; spins or blocks while the message is absent.

        The recursive-doubling round inlines these lines, so that its
        steps build no sub-generator.
        """
        key = (dst, src, tag)
        msg = self.take(key)
        if msg is None:
            msg = yield self.wait(key)
            if self.wakeup is not None:
                # The blocking path pays for the syscall + adapter
                # interrupt + scheduler wakeup that polling avoids.
                yield self.wakeup
        yield self.overhead
        return msg

    # ------------------------------------------------------------------
    # Hardware-assisted collectives (paper §7 future work)
    # ------------------------------------------------------------------
    def hw_allreduce(
        self, rank: int, size: int, opid: Any, value: Any, op: Callable, nbytes: int
    ) -> Generator:
        """Switch-combined Allreduce.

        Each rank pays send overhead and deposits its contribution at the
        adapter (half a wire hop to the switch); once all *size*
        contributions are in, the fabric combines them in
        ``hw_collective_latency_us`` and fans the result back out.  The
        laggard-rank sensitivity remains (the combine starts only after
        the slowest deposit) but the log-depth software cascade — where a
        preempted rank also stalls every later tree round — is gone.
        """
        net = self.cluster.config.network
        half_hop = net.latency_us / 2.0 + nbytes * net.per_byte_us
        state = self._hw_ops.get(opid)
        if state is None:
            state = {"count": 0, "acc": None, "op": op, "size": size}
            self._hw_ops[opid] = state

        yield self.overhead
        self.cluster.sim.schedule(half_hop, self._hw_deposit, opid)
        # Contribution value folds immediately (the switch does the
        # arithmetic; order is fixed by rank for reproducibility).
        state["acc"] = value if state["acc"] is None else op(state["acc"], value)
        msg = yield from self.recv(rank, -1, ("hw", opid))
        return msg.payload

    def _hw_deposit(self, opid: Any) -> None:
        state = self._hw_ops[opid]
        state["count"] += 1
        if state["count"] < state["size"]:
            return
        del self._hw_ops[opid]
        result = state["acc"]
        net = self.cluster.config.network
        half_hop = net.latency_us / 2.0
        done = self.cluster.sim.now + net.hw_collective_latency_us + half_hop
        for r in range(state["size"]):
            self.cluster.sim.schedule_at(
                done,
                self._on_arrive,
                Message(-1, r, ("hw", opid), result, 8),
                priority=EventPriority.MESSAGE,
            )

    def _make_spin_register(self, key: tuple):
        # The scheduler registers the spinner at once, in the same step as
        # the caller's empty :meth:`take`: no message can land in between.
        def register(thread: Thread) -> None:
            if key in self._spin_waiters:
                raise RuntimeError(f"second spinner for {key}")
            self._spin_waiters[key] = thread

        return register

    def message_waiters(self) -> set:
        """Threads spinning or blocked on a message that has not arrived.

        Read-only view for the parallel-DES earliest-output bound: such a
        thread cannot send before one of the pending deliveries lands.
        """
        return {*self._spin_waiters.values(), *self._block_waiters.values()}

    def _on_arrive(self, msg: Message) -> None:
        if self.arrival_listener is not None:
            self.arrival_listener(msg)
        key = (msg.dst, msg.src, msg.tag)
        spinner = self._spin_waiters.pop(key, None)
        if spinner is not None:
            self._schedulers[spinner.node_id].spin_deliver(spinner, msg)
            return
        blocker = self._block_waiters.pop(key, None)
        if blocker is not None and blocker.state is ThreadState.BLOCKED:
            self._schedulers[blocker.node_id].wake(blocker, msg)
            return
        if blocker is not None:
            # Registered but the Block syscall has not landed yet within
            # this timestamp; requeue and let the mailbox satisfy it.
            self._block_waiters[key] = blocker
        q = self._mail.get(key)
        if q is None:
            self._mail[key] = deque((msg,))
        else:
            q.append(msg)

    def snapshot_state(self, desc) -> dict:
        """Checkpoint view: mailboxes, waiters, hw-collective state.

        Mailbox keys are heterogeneous tuples (tags mix ints and strings),
        so entries sort by their repr — deterministic, and stable across
        rebuilds because keys contain only ranks and tags, never object
        identities.
        """
        by_repr = lambda kv: repr(kv[0])  # noqa: E731 - local sort key
        return {
            "mail": [
                [desc.value(k), [desc.value(m) for m in q]]
                for k, q in sorted(self._mail.items(), key=by_repr)
            ],
            "spin_waiters": [
                [desc.value(k), desc.thread(t)]
                for k, t in sorted(self._spin_waiters.items(), key=by_repr)
            ],
            "block_waiters": [
                [desc.value(k), desc.thread(t)]
                for k, t in sorted(self._block_waiters.items(), key=by_repr)
            ],
            "hw_ops": [
                [desc.value(opid), st["count"], st["size"], desc.value(st["acc"])]
                for opid, st in sorted(self._hw_ops.items(), key=by_repr)
            ],
            "reliability": (
                self.reliability.snapshot_state(desc)
                if self.reliability is not None
                else None
            ),
        }


class MpiApi:
    """Per-rank programming surface.

    Application bodies receive one of these and drive it with
    ``yield from``::

        def body(rank: int, api: MpiApi):
            yield from api.compute(1500.0)
            total = yield from api.allreduce(float(rank))
    """

    def __init__(self, world: MpiWorld, rank: int, size: int) -> None:
        self.world = world
        self.rank = rank
        self.size = size
        self._opid = 0
        #: Set by the co-scheduler integration; no-ops otherwise.
        self.cosched_control = None
        #: Set by the system builder when the node hosts an I/O service.
        self.io_service = None

    # -- environment ---------------------------------------------------
    @property
    def now(self) -> float:
        """Current global simulation time (µs)."""
        return self.world.cluster.sim.now

    def trace_mark(self, name: str, payload: Any = None) -> None:
        """Write an application trace record (AIX trace hook analogue)."""
        node = self.world.placement.node_of(self.rank)
        self.world.cluster.trace.mark(name, node, self.rank, self.now, payload)

    # -- local work ------------------------------------------------------
    def compute(self, duration_us: float) -> Generator:
        """Burn *duration_us* of CPU (preemptible)."""
        yield Compute(duration_us)

    def sleep(self, duration_us: float) -> Generator:
        """Release the CPU for *duration_us* (tick-quantised wakeup)."""
        yield Sleep(duration_us)

    # -- point-to-point --------------------------------------------------
    def send(self, dst: int, tag: Hashable, payload: Any = None, nbytes: int = 8) -> Generator:
        """Eager point-to-point send to *dst*."""
        yield self.world.overhead
        self.world.send(self.rank, dst, ("p2p", tag), payload, nbytes)

    def recv(self, src: int, tag: Hashable) -> Generator:
        """Receive from *src* (spins or blocks per wait_mode); returns payload."""
        msg = yield from self.world.recv(self.rank, src, ("p2p", tag))
        return msg.payload

    # -- collectives -----------------------------------------------------
    def _next_opid(self) -> int:
        self._opid += 1
        return self._opid

    def allreduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any] = operator.add,
        nbytes: int = 8,
    ) -> Generator:
        """Allreduce *value* across the communicator with *op*."""
        opid = self._next_opid()
        return self.world.allreduce(self.rank, self.size, opid, value, op, nbytes)

    def barrier(self) -> Generator:
        """Dissemination barrier across all ranks."""
        opid = self._next_opid()
        yield from collectives.barrier_dissemination(self.world, self.rank, self.size, opid)

    def allgather(self, value: Any, nbytes: int = 8) -> Generator:
        """Ring allgather; returns the list of every rank's value."""
        opid = self._next_opid()
        result = yield from collectives.allgather_ring(
            self.world, self.rank, self.size, opid, value, nbytes
        )
        return result

    def bcast(self, value: Any, nbytes: int = 8) -> Generator:
        """Binomial broadcast from rank 0; returns the value everywhere."""
        opid = self._next_opid()
        result = yield from collectives.bcast_binomial(
            self.world, self.rank, self.size, opid, value, nbytes
        )
        return result

    def reduce_scatter(
        self,
        values: list,
        op: Callable[[Any, Any], Any] = operator.add,
        nbytes_per_block: int = 8,
    ) -> Generator:
        """Ring reduce-scatter; returns this rank's reduced block."""
        opid = self._next_opid()
        result = yield from collectives.reduce_scatter_ring(
            self.world, self.rank, self.size, opid, values, op, nbytes_per_block
        )
        return result

    def alltoall(self, values: list, nbytes_per_block: int = 8) -> Generator:
        """Pairwise all-to-all; returns blocks indexed by source rank."""
        opid = self._next_opid()
        result = yield from collectives.alltoall_pairwise(
            self.world, self.rank, self.size, opid, values, nbytes_per_block
        )
        return result

    def scan(
        self, value: Any, op: Callable[[Any, Any], Any] = operator.add, nbytes: int = 8
) -> Generator:
        """Inclusive prefix scan (op over ranks 0..self)."""
        opid = self._next_opid()
        result = yield from collectives.scan_linear_tree(
            self.world, self.rank, self.size, opid, value, op, nbytes
        )
        return result

    # -- I/O ---------------------------------------------------------------
    def io_request(self, nbytes: int) -> Generator:
        """Blocking I/O of *nbytes* through the node I/O service.

        The request completes only after the I/O worker daemon obtains CPU
        — the dependency that made naive co-scheduling slow ALE3D down.
        Without an installed I/O service the call is free (diskless runs).
        """
        if self.io_service is None:
            return
        yield from self.io_service.request(nbytes, self.world.rank_threads[self.rank])

    # -- co-scheduler escape hatch (paper §4) ------------------------------
    def cosched_detach(self) -> None:
        """Ask the node co-scheduler to stop boosting this task (I/O phase)."""
        if self.cosched_control is not None:
            self.cosched_control.request_detach(self.rank)

    def cosched_attach(self) -> None:
        """Re-enter co-scheduling after an I/O phase."""
        if self.cosched_control is not None:
            self.cosched_control.request_attach(self.rank)

    def fine_grain_begin(self) -> None:
        """Declare entry into a fine-grain region (tight collectives).

        With a ``fine_grain_only`` co-scheduler schedule, only declared
        regions receive the favored priority — the paper's §7 future-work
        mechanism.  No-op without a co-scheduler.
        """
        if self.cosched_control is not None:
            self.cosched_control.fine_grain(self.rank, True)

    def fine_grain_end(self) -> None:
        """Declare exit from a fine-grain region."""
        if self.cosched_control is not None:
            self.cosched_control.fine_grain(self.rank, False)


class MpiJob:
    """A parallel job: rank threads + auxiliary timer threads on a cluster.

    Parameters
    ----------
    body_factory:
        ``body_factory(rank, api) -> generator`` building each rank's body.
    priority:
        Starting dispatch priority of the tasks (AIX normal: 60).
    """

    def __init__(
        self,
        cluster: Cluster,
        placement: Placement,
        body_factory: Callable[[int, MpiApi], Generator],
        config: Optional[MpiConfig] = None,
        priority: int = PRIO_NORMAL,
        name: str = "job",
        on_api: Optional[Callable[[MpiApi], None]] = None,
    ) -> None:
        self.cluster = cluster
        self.placement = placement
        self.config = config if config is not None else cluster.config.mpi
        self.world = MpiWorld(cluster, placement, self.config)
        self.name = name
        self.apis: list[MpiApi] = []
        self.tasks: list[Thread] = []
        self.timer_threads: list[Thread] = []
        self._done = 0
        self._finish_times: dict[int, float] = {}
        #: Set while :func:`run_jobs` drives the simulator: the last rank
        #: to finish then stops the run at its own event.
        self._stop_on_done = False
        self.start_time = cluster.sim.now
        #: Ranks this cluster instance simulates (all of them serially;
        #: the owned shard block under parallel DES).
        self.local_ranks: list[int] = [
            r
            for r in range(placement.n_ranks)
            if cluster.owns_node(placement.node_of(r))
        ]

        n = placement.n_ranks
        local = set(self.local_ranks)
        for rank in range(n):
            node = cluster.nodes[placement.node_of(rank)]
            cpu = placement.cpu_of(rank)
            api = MpiApi(self.world, rank, n)
            if rank not in local:
                # Remote rank: keep the api list rank-indexed (environment
                # wiring is positional) but spawn nothing — its thread
                # lives on the owning shard.
                self.apis.append(api)
                continue
            if on_api is not None:
                # Environment wiring (I/O services etc.) must precede the
                # spawn: a body's first requests execute immediately.
                on_api(api)
            self.apis.append(api)
            body = self._wrap(body_factory(rank, api), rank)
            task = node.scheduler.spawn(
                body,
                name=f"{name}.r{rank}",
                priority=priority,
                affinity_cpu=cpu,
                category="app",
                allow_steal=False,
                start=False,
            )
            # Register before the first advance: a body's opening request
            # (e.g. an I/O submit) may need its own thread handle.
            self.world.rank_threads[rank] = task
            node.scheduler.start(task)
            self.tasks.append(task)
            if self.config.progress_threads_enabled:
                timer = node.scheduler.spawn(
                    self._timer_body(),
                    name=f"{name}.r{rank}.timer",
                    priority=priority,
                    affinity_cpu=cpu,
                    category="mpi_timer",
                    allow_steal=False,
                )
                self.timer_threads.append(timer)
                # Process-level priority changes (the co-scheduler's renice)
                # carry every thread of the process along.
                task.on_priority_change = self._make_mirror(node.scheduler, timer)

    @staticmethod
    def _make_mirror(scheduler, timer: Thread):
        def mirror(_task: Thread, _old: int, new: int) -> None:
            if timer.state is not ThreadState.FINISHED:
                scheduler.set_priority(timer, new)

        return mirror

    def _wrap(self, gen: Generator, rank: int) -> Generator:
        yield from gen
        self._done += 1
        self._finish_times[rank] = self.cluster.sim.now
        if self._stop_on_done and self.done:
            self.cluster.sim.stop()

    def _timer_body(self) -> Generator:
        # The progress engine runs for the life of the job.
        while not self.done:
            yield Sleep(self.config.progress_interval_us)
            if self.done:
                return
            yield Compute(self.config.progress_cost_us)

    def snapshot_state(self, desc) -> dict:
        """Checkpoint view: job progress plus the world underneath."""
        return {
            "name": self.name,
            "start_time": self.start_time,
            "done_count": self._done,
            "finish_times": [
                [r, t] for r, t in sorted(self._finish_times.items())
            ],
            "tasks": [desc.thread(t) for t in self.tasks],
            "timer_threads": [desc.thread(t) for t in self.timer_threads],
            "world": self.world.snapshot_state(desc),
        }

    @property
    def local_done(self) -> int:
        """Locally-simulated ranks that have finished (parallel DES)."""
        return self._done

    @property
    def done(self) -> bool:
        """All locally-simulated ranks finished.

        Serially that is every rank.  Under parallel DES it is the owned
        block — which is exactly what the per-shard consumers (timer-thread
        shutdown, co-scheduler retirement) should key on; *global*
        completion is the coordinator's business (it sums
        :attr:`local_done` across shards).
        """
        return self._done >= len(self.local_ranks)

    @property
    def finish_time(self) -> float:
        """Global time the last rank finished (only valid once done)."""
        if not self.done:
            raise RuntimeError("job not finished")
        return max(self._finish_times.values())

    @property
    def elapsed_us(self) -> float:
        return self.finish_time - self.start_time

    def run(self, horizon_us: float) -> float:
        """Drive the simulator until the job completes; returns elapsed µs.

        The run stops at the event where the last rank finishes, so
        afterwards ``cluster.sim.now == finish_time``: daemons, ticks and
        dispatches after the job are not simulated.  A later
        ``sim.run_until`` resumes from there.

        Raises if the job has not finished by ``horizon_us`` — a run that
        needs more time is almost always a deadlock or a starved I/O
        daemon, and failing fast beats simulating silence.
        """
        run_jobs([self], horizon_us)
        return self.elapsed_us


class JobIncompleteError(RuntimeError):
    """A job was not finished by its horizon (see :func:`run_jobs`)."""


def run_jobs(jobs: list[MpiJob], horizon_us: float) -> None:
    """Drive one simulator until every job in *jobs* completes.

    Each job's last rank stops the run at its own event (see
    :meth:`Simulator.stop`); the loop re-enters ``run_until`` until every
    job is done, so the simulator ends at the latest finish time.  Raises
    :class:`JobIncompleteError` for the first job not finished by
    ``horizon_us``.
    """
    sim = jobs[0].cluster.sim
    for job in jobs:
        job._stop_on_done = True
    try:
        while sim.now < horizon_us and not all(job.done for job in jobs):
            sim.run_until(horizon_us)
    finally:
        for job in jobs:
            job._stop_on_done = False
    for job in jobs:
        if not job.done:
            raise JobIncompleteError(
                f"job {job.name!r} incomplete at horizon {horizon_us}: "
                f"{job._done}/{job.placement.n_ranks} ranks finished"
            )
