"""Conservative parallel DES: shard the cluster across worker processes.

The serial engine (:mod:`repro.sim.core`) stays the bit-identical
reference oracle; this module adds a **conservative synchronous-window**
parallel mode on top of it, in the classic null-message family (CMB):
instead of per-channel null messages, a coordinator folds every shard's
next-event time and earliest output time into one global window bound
each superstep, and broadcasts it.

How a superstep works
---------------------
Each shard owns a contiguous block of cluster nodes (:class:`ShardPlan`)
and runs an unmodified serial :class:`~repro.sim.core.Simulator` over the
*full* cluster structure (non-owned nodes are built — construction
schedules no events and fixes RNG draw order — but get no threads, so
they are inert).  Cross-shard MPI sends become timestamped envelopes in a
:class:`~repro.sim.shard.ShardRouter` outbox instead of local schedules.
The coordinator repeats:

1. collect each shard's next-event time, its earliest-output bound and
   its undelivered envelopes;
2. ``N  = min(next-event times ∪ pending envelope arrivals)``  (frontier)
   ``B  = min(output bounds ∪ pending envelope arrivals)``
   ``H' = min(max(N, B), horizon) + L``  where the lookahead
   ``L = NetworkConfig.latency_us`` is the fabric's cross-node wire
   latency, a constant;
3. deliver pending envelopes (sorted canonically by
   ``(arrival, src_node, link_seq)``) and let every shard run events
   strictly ``< H'`` in parallel (:meth:`Simulator.run_until_before`).

``B`` is the earliest-output-time (EOT) refinement of CMB: the earliest
instant any shard could emit a cross-shard envelope
(:meth:`ShardHost.earliest_output`).  Only rank threads send, each send
right after the ``Compute`` of its send overhead ends.  So ``B`` is
the minimum of: for each owned rank, ``run_start + run_work`` while it
is in a Compute, ``now + work_remaining`` while it waits for a CPU with
work left, its wake time while asleep, nothing of its own while it
waits on an MPI message, and the barrier time in any other state; every
scheduled message delivery (the fabric's arrival heap, plus the
coordinator's pending envelopes).  While
ranks compute for milliseconds the tick, interrupt and daemon events
that hold ``N`` back no longer shrink the window.

Safety: every event fired in the window has ``t ≥ N``.  Suppose no
envelope lands inside the window; then each shard evolves from its own
state alone, and no owned rank can advance its body before its term:
a Compute cannot end before its unstretched work is done (tick
inflation only delays it), a waiter only wakes at a delivery, and any
delivery created in the window comes from a send at ``t ≥ B``.
So every envelope emitted in the window leaves at ``t ≥ max(N, B)``,
pays at least ``L`` on the wire, and arrives ``≥ H'`` — outside the
window, which closes the induction.  Envelope arrivals are likewise
``≥ H'``, so delivering them at the barrier (``now = H'``) never
schedules into the past.  :meth:`ShardHost.step_send` checks the
conclusion after every window and raises :class:`WindowViolation`
naming the envelope if a bound was ever unsound.  The ``horizon`` clamp
keeps a job that cannot finish (``B = inf``: every rank waits on a
message that will never come) from running one unbounded window; the
run still stops with the horizon error once ``N`` passes it.

Determinism: the window boundary sequence is a pure function of the
global simulator state — every rank and delivery belongs to exactly one
shard, so the minimum over shards is the 1-shard value — per-shard event
order is the serial engine's total ``(time, priority, seq)`` order,
cross-shard deliveries are sorted canonically before scheduling, and all
runtime randomness comes from shard-stable named streams (see
:mod:`repro.sim.shard`).  Sharded runs therefore reproduce the serial
oracle's **result digest byte-for-byte** — enforced by
``tests/test_parallel_des.py`` and by the benchmark's ``pdes_2``
workload, which must give ``pdes_1``'s digest.  No experiment runs this
engine any more; the benchmark alone does.

What sharded mode rejects (:func:`validate_sharded_config`): hardware
collectives, whose switch-combine path schedules cross-node arrivals at
half a wire hop, under the conservative lookahead; and faults
(``faults.enabled``), at every shard count — faulted runs are serial.

With forked workers the coordinator watches every worker's pipe, its
process sentinel and a heartbeat every ``_HEARTBEAT_S``: a worker that
dies raises :class:`ShardWorkerDied`, one silent for ``_HANG_TIMEOUT_S``
is SIGKILLed and raises :class:`ShardWorkerHung`.  Either way, and on
any other error, every worker is killed and reaped before
:func:`run_parallel` returns.
"""

from __future__ import annotations

import importlib
import math
import multiprocessing
import threading
import time as _time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.config import ClusterConfig
from repro.kernel.thread import ThreadState
from repro.sim.shard import ShardPlan, ShardRouter
from repro.units import s

__all__ = [
    "ParallelRunResult",
    "ShardPlan",
    "ShardRouter",
    "ShardSpec",
    "ShardWorkerDied",
    "ShardWorkerHung",
    "WindowViolation",
    "run_parallel",
    "validate_sharded_config",
]


_RUNNING = ThreadState.RUNNING
_READY = ThreadState.READY
_SLEEPING = ThreadState.SLEEPING
_FINISHED = ThreadState.FINISHED

#: A forked worker sends a heartbeat this often while it computes.
_HEARTBEAT_S = 5.0
#: A forked worker silent (no reply, no heartbeat) this long is hung.
_HANG_TIMEOUT_S = 120.0


class WindowViolation(RuntimeError):
    """A shard emitted an envelope that lands inside the window that
    produced it: the window bound was unsound."""


class ShardWorkerDied(RuntimeError):
    """A forked shard worker exited or its pipe broke."""


class ShardWorkerHung(RuntimeError):
    """A forked shard worker went silent past the hang deadline (the
    coordinator SIGKILLs it first)."""


def validate_sharded_config(config: ClusterConfig, n_shards: int) -> None:
    """Reject configurations the sharded engine does not run.

    Raises ``ValueError`` naming the offending knob:

    * ``faults.enabled``, at every shard count — faulted runs (and their
      fault counters and retransmit layer) are serial-only;
    * the hardware-collective path (above one shard), whose
      switch-combine hop is *shorter* than the conservative lookahead;
    * more shards than nodes, and a non-positive cross-node latency,
      which leaves no lookahead.
    """
    if n_shards < 1:
        raise ValueError(f"shards must be >= 1, got {n_shards}")
    if config.faults.enabled:
        raise ValueError(
            "faults.enabled is not supported by the sharded DES; "
            "run faulted configurations on the serial engine"
        )
    if n_shards == 1:
        return
    if n_shards > config.machine.n_nodes:
        raise ValueError(
            f"shards ({n_shards}) cannot exceed cluster nodes ({config.machine.n_nodes})"
        )
    if config.network.latency_us <= 0:
        raise ValueError(
            "sharded DES needs positive cross-node latency for lookahead; "
            f"network.latency_us={config.network.latency_us}"
        )
    if config.mpi.algorithm == "hardware":
        raise ValueError(
            "mpi.algorithm='hardware' is not shardable: the switch-combine "
            "path schedules cross-node arrivals at half a wire hop, under "
            "the conservative lookahead (sub-lookahead switch combining is "
            "out of scope); use the serial engine"
        )


@dataclass(frozen=True)
class ShardSpec:
    """Everything one shard worker needs to build and drive its slice.

    Picklable by construction (the app is a ``"module:attr"`` reference,
    resolved inside the worker), so the same spec drives the in-process
    host and the forked worker identically.
    """

    config: ClusterConfig
    plan: ShardPlan
    shard_id: int
    n_ranks: int
    tasks_per_node: int
    app: str
    app_params: dict = field(default_factory=dict)
    job_name: str = "pdes"


def _resolve_app(ref: str, params: dict):
    """Resolve ``"module:attr"`` to the app provider and instantiate it.

    The provider is called with *params* and must return an object with a
    ``body_factory(rank, api)`` generator factory and a ``collect()``
    returning ``{"ranks": {str(rank): jsonable}, "ok": bool}`` for the
    ranks that ran locally.
    """
    mod_name, _, attr = ref.partition(":")
    if not mod_name or not attr:
        raise ValueError(f"app must be 'module:attr', got {ref!r}")
    provider = getattr(importlib.import_module(mod_name), attr)
    return provider(dict(params))


class ShardHost:
    """One shard, driven in-process (also the body of the forked worker).

    Splitting :meth:`step_send` / :meth:`step_recv` lets the coordinator
    issue the window to every shard before collecting any reply, so real
    worker processes overlap; for the in-process host the work happens in
    ``step_send`` and ``step_recv`` just returns it.
    """

    def __init__(self, spec: ShardSpec) -> None:
        from repro.system import System  # deferred: System imports this package

        validate_sharded_config(spec.config, spec.plan.n_shards)
        self.spec = spec
        self.app = _resolve_app(spec.app, spec.app_params)
        self.system = System(spec.config, shard=(spec.shard_id, spec.plan))
        self.router = self.system.cluster.router
        self.job = self.system.launch(
            spec.n_ranks,
            spec.tasks_per_node,
            self.app.body_factory,
            name=spec.job_name,
        )
        self._pending = None

    # -- superstep protocol -------------------------------------------
    def earliest_output(self) -> float:
        """This shard's part of the earliest-output bound ``B``.

        A lower bound on the time of any cross-shard envelope this shard
        can emit from now on, given that no envelope reaches it before
        the next window bound (the module docstring has the argument).
        Only rank threads send, and always after a ``Compute`` of send
        overhead.  So the bound is the earliest of: each owned rank's
        next chance to advance its body, and each pending delivery.
        ``inf`` means nothing here can send.
        """
        now = self.system.sim.now
        bound = math.inf
        waiters = None
        for th in self.job.tasks:
            state = th.state
            if state is _RUNNING and th.run_work > 0.0:
                # In a Compute: it cannot end before the unstretched work
                # is done.  (Not completion_ev.time: tick inflation is
                # per CPU, and a migrated thread may finish sooner.)
                t = th.run_start + th.run_work
            elif state is _READY and th.work_remaining > 0.0:
                t = now + th.work_remaining
            elif state is _SLEEPING:
                t = th.wake_ev.time
            elif state is _FINISHED:
                continue
            else:
                if waiters is None:
                    waiters = self.job.world.message_waiters()
                if th in waiters:
                    continue  # covered by the pending-delivery terms
                return now  # NEW, resuming, blocked on I/O: could send now
            if t < bound:
                bound = t
        arrival = self.system.cluster.fabric.next_arrival()
        if arrival is not None and arrival < bound:
            bound = arrival
        return bound

    def ready(self) -> tuple:
        """Initial report: ``(next_event_time, output_bound, local_done)``."""
        return (self.system.sim.peek_time(), self.earliest_output(), self.job.local_done)

    def step_send(self, horizon: float, incoming: list[tuple]) -> None:
        """Deliver *incoming* envelopes, then run the window ``[now, horizon)``."""
        sim = self.system.sim
        router = self.router
        deliver_at = self.system.cluster.fabric.deliver_at
        # Canonical delivery order: (arrival, src_node, link_seq) is
        # globally unique, so the schedule (and hence heap seq) order of
        # same-instant cross-shard arrivals is shard-count independent.
        for env in sorted(incoming, key=lambda e: e[:3]):
            arrival, _src, _seq, world_uid, _dst, payload = env
            router.received += 1
            deliver_at(arrival, router.deliver_target(world_uid), payload)
        processed = sim.run_until_before(horizon)
        outbox = router.drain()
        for arrival, src, _seq, _uid, dst, _payload in outbox:
            if not arrival >= horizon:
                raise WindowViolation(
                    f"shard {self.spec.shard_id}: envelope node {src} -> node {dst} "
                    f"arrives at {arrival!r}, inside the window ending at "
                    f"{horizon!r}; the earliest-output bound is unsound"
                )
        self._pending = (
            sim.peek_time(),
            self.earliest_output(),
            outbox,
            self.job.local_done,
            processed,
        )

    def step_recv(self) -> tuple:
        """``(next_event_time, output_bound, outbox, local_done, events_processed)``."""
        out, self._pending = self._pending, None
        return out

    def collect(self) -> dict:
        """Local results after the job's owned ranks all finished."""
        return {
            "app": self.app.collect(),
            "finish_times": {str(r): t for r, t in sorted(self.job._finish_times.items())},
            "start_time": self.job.start_time,
            "events": self.system.sim.events_processed,
            "sent": self.router.sent,
            "received": self.router.received,
        }

    def close(self) -> None:
        """Nothing to release in-process (symmetry with _ProcessHost)."""

    def kill(self) -> None:
        """Nothing to kill in-process (symmetry with _ProcessHost)."""


def _shard_worker_main(conn, spec: ShardSpec) -> None:
    """Forked worker: serve the superstep protocol over a duplex pipe.

    A daemon thread sends ``("hb", None)`` every ``_HEARTBEAT_S`` so the
    coordinator can tell "computing a long window" from "stopped/dead";
    the lock serializes heartbeats against protocol replies.
    """
    lock = threading.Lock()
    stop = threading.Event()

    def _send(obj) -> None:
        with lock:
            conn.send(obj)

    def _beat() -> None:
        while not stop.wait(_HEARTBEAT_S):
            try:
                _send(("hb", None))
            except OSError:  # parent gone; main thread will notice too
                return

    beat = threading.Thread(target=_beat, daemon=True)
    beat.start()
    try:
        host = ShardHost(spec)
        _send(("ready", host.ready()))
        while True:
            msg = conn.recv()
            if msg[0] == "step":
                host.step_send(msg[1], msg[2])
                _send(("state", host.step_recv()))
            elif msg[0] == "collect":
                _send(("result", host.collect()))
            elif msg[0] == "exit":
                return
            else:  # pragma: no cover - protocol bug
                raise RuntimeError(f"unknown directive {msg[0]!r}")
    except BaseException:
        try:
            _send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover - parent died
            pass
    finally:
        stop.set()
        with lock:
            conn.close()


class _ProcessHost:
    """Pipe-and-fork wrapper presenting the :class:`ShardHost` protocol.

    Every receive multiplexes the worker pipe with the process sentinel
    and enforces the hang deadline, so worker death surfaces as
    :class:`ShardWorkerDied` and silence as :class:`ShardWorkerHung`
    (after a SIGKILL) instead of blocking the coordinator forever.
    """

    def __init__(self, spec: ShardSpec, ctx) -> None:
        self.spec = spec
        self.conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(target=_shard_worker_main, args=(child, spec), daemon=True)
        self.proc.start()
        child.close()
        self._ready = self._recv("ready")

    def _recv(self, expect: str):
        from multiprocessing import connection as _mpc

        sid = self.spec.shard_id
        deadline = _time.monotonic() + _HANG_TIMEOUT_S
        while True:
            timeout = max(0.0, deadline - _time.monotonic())
            ready = _mpc.wait([self.conn, self.proc.sentinel], timeout=timeout)
            if not ready:
                self.kill()
                raise ShardWorkerHung(f"shard {sid} silent for {_HANG_TIMEOUT_S}s; killed")
            if self.conn in ready:
                try:
                    kind, payload = self.conn.recv()
                except (EOFError, OSError) as exc:
                    raise ShardWorkerDied(
                        f"shard {sid} worker pipe closed mid-reply ({exc!r})"
                    ) from None
                if kind == "hb":
                    deadline = _time.monotonic() + _HANG_TIMEOUT_S
                    continue
                if kind == "error":
                    raise RuntimeError(f"shard worker failed:\n{payload}")
                if kind != expect:  # pragma: no cover - protocol bug
                    raise RuntimeError(f"expected {expect!r} from worker, got {kind!r}")
                return payload
            # Sentinel fired with nothing left in the pipe: the worker is
            # gone without even an error report (SIGKILL, OOM, segfault).
            self.proc.join(timeout=5)
            raise ShardWorkerDied(
                f"shard {sid} worker died (exit code {self.proc.exitcode})"
            )

    def ready(self) -> tuple:
        return self._ready

    def step_send(self, horizon: float, incoming: list[tuple]) -> None:
        try:
            self.conn.send(("step", horizon, incoming))
        except (BrokenPipeError, OSError) as exc:
            raise ShardWorkerDied(
                f"shard {self.spec.shard_id} worker pipe closed on send ({exc!r})"
            ) from None

    def step_recv(self) -> tuple:
        return self._recv("state")

    def collect(self) -> dict:
        try:
            self.conn.send(("collect", None))
        except (BrokenPipeError, OSError) as exc:
            raise ShardWorkerDied(
                f"shard {self.spec.shard_id} worker pipe closed on send ({exc!r})"
            ) from None
        return self._recv("result")

    def close(self) -> None:
        try:
            self.conn.send(("exit", None))
        except (BrokenPipeError, OSError):
            pass
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        self.proc.join(timeout=30)
        if self.proc.is_alive():  # pragma: no cover - hung worker
            self.proc.kill()
            self.proc.join(timeout=5)

    def kill(self) -> None:
        """Hard stop: SIGKILL (covers SIGSTOPped workers too) and reap."""
        try:
            if self.proc.is_alive():
                self.proc.kill()
            self.proc.join(timeout=10)
        finally:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover
                pass


@dataclass
class ParallelRunResult:
    """Merged outcome of one sharded run.

    ``digest`` covers only shard-count-invariant result data (per-rank
    series, correctness flag, job timing) — per-shard event counts and
    superstep counts are reported for inspection but excluded, because a
    shard whose ranks finish early retires its co-scheduler earlier than
    the serial schedule would, which shifts background-only events
    without touching any rank-visible timing.
    """

    shards: int
    n_ranks: int
    elapsed_us: float
    ranks: dict
    ok: bool
    events_per_shard: list[int]
    messages_crossed: int
    supersteps: int
    lookahead_us: float
    wall_s: float = 0.0
    #: Always 0: nothing respawns a shard.  The benchmark's tracer
    #: (``perfbench/layertrace.py``) still reads it into
    #: ``shard.recoveries`` until ROADMAP item 1 step 1 drops that counter.
    recoveries: int = 0

    @property
    def digest(self) -> str:
        """The rank-visible outcome's digest (:func:`repro.results.rank_digest`),
        the one a serial run of the same app reports too."""
        # Deferred: repro.results imports the experiments, which import
        # the apps, which import the system.
        from repro.results import rank_digest

        return rank_digest(self.n_ranks, self.ranks, self.ok, self.elapsed_us)


def run_parallel(
    config: ClusterConfig,
    n_ranks: int,
    tasks_per_node: int,
    app: str,
    app_params: Optional[dict] = None,
    shards: int = 1,
    horizon_us: float = s(600),
    use_processes: Optional[bool] = None,
    job_name: str = "pdes",
    _superstep_hook: Optional[Callable[[int, list], None]] = None,
) -> ParallelRunResult:
    """Run *app* over *config* with the cluster sharded *shards* ways.

    ``use_processes=None`` forks real workers when ``shards > 1`` and
    runs in-process for ``shards == 1``; pass ``False`` to drive every
    shard in-process (identical event semantics — the processes are a
    wall-clock lever, not a correctness one).  A forked worker that dies
    or hangs ends the run with :class:`ShardWorkerDied` or
    :class:`ShardWorkerHung`.  *_superstep_hook* is test instrumentation:
    called as ``hook(superstep_index, hosts)`` at the top of every
    superstep.
    """
    validate_sharded_config(config, shards)
    n_nodes = config.machine.n_nodes
    job_nodes = min(n_nodes, -(-n_ranks // tasks_per_node))
    plan = ShardPlan.for_placement(
        n_nodes, shards, job_nodes=job_nodes, tasks_per_node=tasks_per_node
    )
    app_params = app_params or {}
    specs = [
        ShardSpec(
            config=config,
            plan=plan,
            shard_id=sid,
            n_ranks=n_ranks,
            tasks_per_node=tasks_per_node,
            app=app,
            app_params=app_params,
            job_name=job_name,
        )
        for sid in range(shards)
    ]
    if use_processes is None:
        use_processes = shards > 1

    wall0 = _time.perf_counter()
    if use_processes:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            ctx = multiprocessing.get_context("spawn")

    hosts: list = []
    # Safe by the argument in the module docstring: no cross-node
    # message arrives sooner than the wire latency after it is sent.
    lookahead = config.network.latency_us
    supersteps = 0
    ok_exit = False
    try:
        for spec in specs:
            hosts.append(_ProcessHost(spec, ctx) if use_processes else ShardHost(spec))
        next_ts: list[Optional[float]] = []
        bounds: list[float] = []
        done = []
        for h in hosts:
            nt, bound, dn = h.ready()
            next_ts.append(nt)
            bounds.append(bound)
            done.append(dn)
        pending: list[list[tuple]] = [[] for _ in range(shards)]
        crossed = 0
        while sum(done) < n_ranks:
            arrivals = [env[0] for envs in pending for env in envs]
            candidates = [t for t in next_ts if t is not None] + arrivals
            if not candidates:
                raise RuntimeError(
                    f"parallel deadlock: {sum(done)}/{n_ranks} ranks finished "
                    "with no pending events or messages"
                )
            frontier = min(candidates)
            if frontier >= horizon_us:
                raise RuntimeError(
                    f"job {job_name!r} incomplete at horizon {horizon_us}: "
                    f"{sum(done)}/{n_ranks} ranks finished"
                )
            output = min(bounds + arrivals)
            window = min(max(frontier, output), horizon_us) + lookahead
            if _superstep_hook is not None:
                _superstep_hook(supersteps, hosts)
            for sid, host in enumerate(hosts):
                host.step_send(window, pending[sid])
                pending[sid] = []
            for sid, host in enumerate(hosts):
                nt, bound, outbox, dn, _proc = host.step_recv()
                next_ts[sid] = nt
                bounds[sid] = bound
                done[sid] = dn
                for env in outbox:
                    pending[plan.shard_of(env[4])].append(env)
                    crossed += 1
            supersteps += 1

        merged_ranks: dict = {}
        ok = True
        finish = []
        start = []
        events = []
        for host in hosts:
            res = host.collect()
            merged_ranks.update(res["app"]["ranks"])
            ok = ok and res["app"]["ok"]
            finish.extend(res["finish_times"].values())
            start.append(res["start_time"])
            events.append(res["events"])
        ok_exit = True
    finally:
        for h in hosts:
            try:
                if ok_exit:
                    h.close()
                else:
                    h.kill()
            except Exception:  # pragma: no cover - cleanup best-effort
                pass

    return ParallelRunResult(
        shards=shards,
        n_ranks=n_ranks,
        elapsed_us=max(finish) - min(start),
        ranks=merged_ranks,
        ok=ok,
        events_per_shard=events,
        messages_crossed=crossed,
        supersteps=supersteps,
        lookahead_us=lookahead,
        wall_s=_time.perf_counter() - wall0,
    )
