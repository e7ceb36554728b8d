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
right after the ``Compute`` of its send overhead ends, and the reliable
transport also acks on a delivery and resends on a timer.  So ``B`` is
the minimum of: for each owned rank, ``run_start + run_work`` while it
is in a Compute, ``now + work_remaining`` while it waits for a CPU with
work left, its wake time while asleep, nothing of its own while it
waits on an MPI message, and the barrier time in any other state; every
scheduled message delivery (the fabric's arrival heap, plus the
coordinator's pending envelopes); every armed retransmit timer.  While
ranks compute for milliseconds the tick, interrupt and daemon events
that hold ``N`` back no longer shrink the window.

Safety: every event fired in the window has ``t ≥ N``.  Suppose no
envelope lands inside the window; then each shard evolves from its own
state alone, and no owned rank can advance its body before its term:
a Compute cannot end before its unstretched work is done (tick
inflation only delays it), a waiter only wakes at a delivery, and any
delivery or timer created in the window comes from a send at ``t ≥ B``.
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
global simulator state — every rank, delivery and timer belongs to
exactly one shard, so the minimum over shards is the 1-shard value —
per-shard event order is the serial engine's total
``(time, priority, seq)`` order, cross-shard deliveries are sorted
canonically before scheduling, and all runtime randomness comes from
shard-stable named streams — including per-link message-fault draws,
per-node pipe-loss draws, and the retransmit layer's ack traffic (see
:mod:`repro.sim.shard`).  Sharded runs therefore reproduce the serial
oracle's **result digest byte-for-byte** — enforced by
``tests/test_parallel_des.py`` and by the benchmark's ``pdes_2``
workload, which must give ``pdes_1``'s digest.  No experiment runs this
engine any more; the benchmark alone does.

What sharded mode rejects (:func:`validate_sharded_config`): hardware
collectives only — the switch-combine path schedules cross-node arrivals
at half a wire hop, under the conservative lookahead.  Everything else —
stochastic network faults, pipe loss, timesync loss, the retransmit
layer, scheduled node/co-scheduler faults — runs sharded with serial
digests.

Worker supervision
------------------
With forked workers, the coordinator is also a supervisor: worker pipes
are multiplexed with process sentinels and per-``heartbeat_s`` worker
heartbeats, so a crashed worker (pipe EOF / sentinel) or a stalled one
(no traffic for ``hang_timeout_s`` — then SIGKILL) is detected at the
barrier.  Recovery respawns the shard from its spec and **replays** the
full superstep history (windows + incoming envelopes, which the
coordinator retains); construction pins RNG draw order, so the replayed
shard reaches the last completed barrier bit-identically and the current
window is reissued.  Retries are bounded (``max_respawns``, exponential
``respawn_backoff_s``); exhausting them raises
:class:`ShardFailureError` with structured ``details`` instead of
hanging.  The ``harness.shard.kill.<shard>`` chaos axis
(:func:`repro.chaos.harness_faults.shard_kill_plan`) drives exactly this
path in ``tests/test_shard_recovery.py``, asserting chaos-run digests
equal clean-run digests.
"""

from __future__ import annotations

import importlib
import math
import multiprocessing
import os
import signal
import threading
import time as _time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.config import ClusterConfig
from repro.kernel.thread import ThreadState
from repro.sim.meanfield import MeanFieldConfig
from repro.sim.shard import ShardPlan, ShardRouter
from repro.units import s

__all__ = [
    "ParallelRunResult",
    "ShardFailureError",
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


class WindowViolation(RuntimeError):
    """A shard emitted an envelope that lands inside the window that
    produced it: the window bound was unsound.  Not recoverable by a
    respawn, since the replay would reach the same state."""


class ShardWorkerDied(RuntimeError):
    """A forked shard worker exited or its pipe broke (recoverable)."""


class ShardWorkerHung(RuntimeError):
    """A forked shard worker went silent past the hang deadline
    (recoverable; the supervisor SIGKILLs it first)."""


class ShardFailureError(RuntimeError):
    """A shard could not be recovered within the respawn budget.

    ``details`` is a structured post-mortem: the shard, the budget, the
    window being attempted, how many supersteps had completed, and the
    per-attempt failure causes — what the chaos journal records instead
    of a hang.
    """

    def __init__(
        self,
        shard_id: int,
        attempts: int,
        window: Optional[float],
        supersteps: int,
        causes: list[str],
    ) -> None:
        self.details = {
            "shard_id": shard_id,
            "attempts": attempts,
            "window": window,
            "supersteps": supersteps,
            "causes": list(causes),
        }
        super().__init__(
            f"shard {shard_id} unrecoverable after {attempts} respawn attempt(s) "
            f"at superstep {supersteps}: {causes[-1] if causes else 'no attempts allowed'}"
        )


def validate_sharded_config(config: ClusterConfig, n_shards: int) -> None:
    """Reject configurations whose semantics cannot survive sharding.

    Raises ``ValueError`` naming the offending knob.  The only model
    restriction left is the hardware-collective path, whose
    switch-combine hop is *shorter* than the conservative lookahead
    (sub-lookahead switch combining stays out of scope); the serial
    engine remains available for it.  Stochastic faults, pipe loss,
    timesync loss, and the retransmit layer all shard cleanly — their
    randomness comes from per-link / per-node shard-stable streams and
    acks ride the cross-shard channel.
    """
    if n_shards < 1:
        raise ValueError(f"shards must be >= 1, got {n_shards}")
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
    host, the forked worker, and a supervisor **respawn** identically —
    respawn-and-replay determinism rests on the spec being the whole
    input.
    """

    config: ClusterConfig
    plan: ShardPlan
    shard_id: int
    n_ranks: int
    tasks_per_node: int
    app: str
    app_params: dict = field(default_factory=dict)
    meanfield: Optional[MeanFieldConfig] = None
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
        self.system = System(
            spec.config,
            shard=(spec.shard_id, spec.plan),
            meanfield=spec.meanfield,
        )
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
        overhead; the reliable transport resends on a timer and acks on
        a delivery.  So the bound is the earliest of: each owned rank's
        next chance to advance its body, each pending delivery, each
        armed retransmit timer.  ``inf`` means nothing here can send.
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
        rel = self.job.world.reliability
        timer = rel.next_timeout() if rel is not None else None
        if timer is not None and timer < bound:
            bound = timer
        return bound

    def ready(self) -> tuple:
        """Initial report: ``(next_event_time, output_bound, local_done, events)``."""
        return (self.system.sim.peek_time(), self.earliest_output(), self.job.local_done, 0)

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
        """Local results after the job's owned ranks all finished.

        ``counters`` leaves out ``fault_events``: every shard logs the
        global timesync loss, so the sum would grow with the shard count.
        """
        counters = self.system.fault_counters(self.job)
        del counters["fault_events"]
        return {
            "app": self.app.collect(),
            "finish_times": {str(r): t for r, t in sorted(self.job._finish_times.items())},
            "start_time": self.job.start_time,
            "events": self.system.sim.events_processed,
            "sent": self.router.sent,
            "received": self.router.received,
            "counters": counters,
        }

    def close(self) -> None:
        """Nothing to release in-process (symmetry with _ProcessHost)."""

    def kill(self) -> None:
        """Nothing to kill in-process (symmetry with _ProcessHost)."""


def _shard_worker_main(conn, spec: ShardSpec, heartbeat_s: float = 5.0) -> None:
    """Forked worker: serve the superstep protocol over a duplex pipe.

    A daemon thread sends ``("hb", None)`` every *heartbeat_s* so the
    supervisor can tell "computing a long window" from "stopped/dead";
    the lock serializes heartbeats against protocol replies.
    """
    lock = threading.Lock()
    stop = threading.Event()

    def _send(obj) -> None:
        with lock:
            conn.send(obj)

    def _beat() -> None:
        while not stop.wait(heartbeat_s):
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

    def __init__(
        self,
        spec: ShardSpec,
        ctx,
        heartbeat_s: float = 5.0,
        hang_timeout_s: Optional[float] = 120.0,
    ) -> None:
        self.spec = spec
        self.hang_timeout_s = hang_timeout_s
        self.conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_shard_worker_main, args=(child, spec, heartbeat_s), daemon=True
        )
        self.proc.start()
        child.close()
        self._ready = self._recv("ready")

    def _recv(self, expect: str):
        from multiprocessing import connection as _mpc

        sid = self.spec.shard_id
        deadline = (
            _time.monotonic() + self.hang_timeout_s
            if self.hang_timeout_s is not None
            else None
        )
        while True:
            timeout = (
                None if deadline is None else max(0.0, deadline - _time.monotonic())
            )
            ready = _mpc.wait([self.conn, self.proc.sentinel], timeout=timeout)
            if not ready:
                self.kill()
                raise ShardWorkerHung(
                    f"shard {sid} silent for {self.hang_timeout_s}s; killed"
                )
            if self.conn in ready:
                try:
                    kind, payload = self.conn.recv()
                except (EOFError, OSError) as exc:
                    raise ShardWorkerDied(
                        f"shard {sid} worker pipe closed mid-reply ({exc!r})"
                    ) from None
                if kind == "hb":
                    if deadline is not None:
                        deadline = _time.monotonic() + self.hang_timeout_s
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
    without touching any rank-visible timing.  ``counters`` (summed
    fault/resilience counters) IS shard-count invariant; ``recoveries``
    (supervisor respawns) is an execution-substrate fact and excluded.
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
    counters: dict = field(default_factory=dict)
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
    meanfield: Optional[MeanFieldConfig] = None,
    use_processes: Optional[bool] = None,
    job_name: str = "pdes",
    max_respawns: int = 3,
    respawn_backoff_s: float = 0.05,
    hang_timeout_s: Optional[float] = 120.0,
    heartbeat_s: float = 5.0,
    shard_chaos_seed: Optional[int] = None,
    _superstep_hook: Optional[Callable[[int, list], None]] = None,
) -> ParallelRunResult:
    """Run *app* over *config* with the cluster sharded *shards* ways.

    ``use_processes=None`` forks real workers when ``shards > 1`` and
    runs in-process for ``shards == 1``; pass ``False`` to drive every
    shard in-process (identical event semantics — the processes are a
    wall-clock lever, not a correctness one — and what the hypothesis
    equivalence suite uses to keep hundreds of examples cheap).

    With forked workers the coordinator supervises them: crashes and
    hangs are recovered by respawn + deterministic replay of the
    superstep history, up to *max_respawns* attempts per incident with
    exponential *respawn_backoff_s*; exhaustion raises
    :class:`ShardFailureError`.  *shard_chaos_seed* arms the
    ``harness.shard.kill.<shard>`` axis, SIGKILLing workers pre/mid
    window per their deterministic plans (forked workers only).
    *_superstep_hook* is test/chaos instrumentation: called as
    ``hook(superstep_index, hosts)`` at the top of every superstep.
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
            meanfield=meanfield,
            job_name=job_name,
        )
        for sid in range(shards)
    ]
    if use_processes is None:
        use_processes = shards > 1

    kill_plans: dict = {}
    kills_done: dict = {}
    if shard_chaos_seed is not None:
        if not use_processes:
            raise ValueError(
                "shard_chaos_seed kills worker processes; it requires "
                "use_processes=True (in-process hosts have nothing to kill)"
            )
        from repro.chaos.harness_faults import shard_kill_plan

        kill_plans = {
            sid: shard_kill_plan(shard_chaos_seed, sid) for sid in range(shards)
        }
        kills_done = {sid: 0 for sid in range(shards)}

    wall0 = _time.perf_counter()
    if use_processes:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            ctx = multiprocessing.get_context("spawn")
    else:
        ctx = None

    def _spawn(sid: int):
        if use_processes:
            return _ProcessHost(
                specs[sid], ctx, heartbeat_s=heartbeat_s, hang_timeout_s=hang_timeout_s
            )
        return ShardHost(specs[sid])

    hosts: list = []
    #: Completed supersteps: (window, incoming-envelopes-per-shard) — the
    #: deterministic replay script a respawned shard is driven through.
    history: list[tuple[float, list[list]]] = []
    recoveries = 0

    def _respawn_and_replay(
        sid: int,
        window: Optional[float] = None,
        incoming: Optional[list] = None,
        causes: tuple = (),
    ):
        """Respawn shard *sid*, replay history, optionally reissue the
        current window; returns its reply (None in the collect phase)."""
        nonlocal recoveries
        causes = list(causes)
        for attempt in range(max_respawns):
            _time.sleep(respawn_backoff_s * (2**attempt))
            nh = None
            try:
                nh = _spawn(sid)
                for w, inc in history:
                    nh.step_send(w, inc[sid])
                    nh.step_recv()  # discard: outputs already routed
                if window is None:
                    reply = None
                else:
                    nh.step_send(window, incoming)
                    reply = nh.step_recv()
            except (ShardWorkerDied, ShardWorkerHung) as exc:
                causes.append(f"respawn attempt {attempt + 1}: {exc}")
                if nh is not None:
                    nh.kill()
                continue
            hosts[sid] = nh
            recoveries += 1
            return reply
        raise ShardFailureError(
            shard_id=sid,
            attempts=max_respawns,
            window=window,
            supersteps=len(history),
            causes=causes,
        )

    def _recover(sid: int, window: Optional[float], incoming: Optional[list], exc):
        hosts[sid].kill()
        return _respawn_and_replay(
            sid, window, incoming,
            causes=(f"superstep {len(history)}: {exc}",),
        )

    def _maybe_kill(sid: int, point: str) -> None:
        plan_k = kill_plans.get(sid)
        if plan_k is None or plan_k.mode is None or kills_done[sid] >= plan_k.kills:
            return
        if len(history) >= plan_k.window and point == plan_k.point:
            kills_done[sid] += 1
            os.kill(hosts[sid].proc.pid, signal.SIGKILL)

    # Safe by the argument in the module docstring: no cross-node
    # message arrives sooner than the wire latency after it is sent.
    lookahead = config.network.latency_us
    ok_exit = False
    try:
        for sid in range(shards):
            hosts.append(_spawn(sid))
        next_ts: list[Optional[float]] = []
        bounds: list[float] = []
        done = []
        events = [0] * shards
        for h in hosts:
            nt, bound, dn, _ev = h.ready()
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
                _superstep_hook(len(history), hosts)
            snapshot = [list(p) for p in pending]
            replies: list = [None] * shards
            for sid in range(shards):
                _maybe_kill(sid, "pre")
                try:
                    hosts[sid].step_send(window, snapshot[sid])
                except (ShardWorkerDied, ShardWorkerHung) as exc:
                    replies[sid] = _recover(sid, window, snapshot[sid], exc)
                pending[sid] = []
            for sid in range(shards):
                _maybe_kill(sid, "mid")
            for sid in range(shards):
                if replies[sid] is None:
                    try:
                        replies[sid] = hosts[sid].step_recv()
                    except (ShardWorkerDied, ShardWorkerHung) as exc:
                        replies[sid] = _recover(sid, window, snapshot[sid], exc)
                nt, bound, outbox, dn, _proc = replies[sid]
                next_ts[sid] = nt
                bounds[sid] = bound
                done[sid] = dn
                for env in outbox:
                    pending[plan.shard_of(env[4])].append(env)
                    crossed += 1
            history.append((window, snapshot))

        merged_ranks: dict = {}
        counters: dict = {}
        ok = True
        finish = []
        start = []
        for sid in range(shards):
            try:
                res = hosts[sid].collect()
            except (ShardWorkerDied, ShardWorkerHung) as exc:
                _recover(sid, None, None, exc)
                res = hosts[sid].collect()
            merged_ranks.update(res["app"]["ranks"])
            ok = ok and res["app"]["ok"]
            finish.extend(res["finish_times"].values())
            start.append(res["start_time"])
            events[sid] = res["events"]
            for k, v in res.get("counters", {}).items():
                counters[k] = counters.get(k, 0) + v
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
        supersteps=len(history),
        lookahead_us=lookahead,
        wall_s=_time.perf_counter() - wall0,
        counters=counters,
        recoveries=recoveries,
    )
