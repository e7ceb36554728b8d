"""Supervised worker pool: how trials run when ``jobs > 1``.

Worker processes are fallible — a segfaulted or OOM-killed worker, one
silently wedged where ``SIGALRM`` never fires, a *poison* trial that
kills every worker it touches — so they run under the
heartbeat/retry/quarantine discipline batch schedulers apply to cluster
nodes, applied to our own worker fleet:

* **Long-lived workers** pull :class:`~repro.experiments.runner.TrialSpec`
  dispatches over a duplex pipe, run each through
  :func:`~repro.experiments.runner.execute_trial` (the serial path's own
  function), send the outcome back, and emit heartbeats from a side
  thread while a trial runs.  Workers never touch the journal: every
  outcome reaches the parent's ``on_complete`` callback, which the
  :class:`~repro.experiments.runner.TrialRunner` uses to journal and
  store it.
* **The supervisor** (parent) multiplexes every worker pipe and process
  sentinel through :func:`multiprocessing.connection.wait`.  A dead
  process is a **crash**; a live-but-silent one (no heartbeat inside
  ``_HEARTBEAT_TIMEOUT_S``, or a parent-side deadline when
  ``trial_timeout_s`` is set) is a **hang** — either way the worker is
  SIGKILLed, reaped, and replaced.
* **Bounded retry with deterministic backoff**: the interrupted trial is
  re-dispatched after ``backoff_base_s * 2**attempt`` (capped), a pure
  function of the attempt number so retry schedules are identical across
  runs and worker counts.
* **Quarantine**: a spec whose attempts keep killing workers is allowed
  ``max_retries`` re-dispatches; one more failure reports it as a failed
  outcome with taxonomy ``quarantined`` (journaled like any other
  failure) and the campaign moves on.
* **Graceful shutdown**: SIGINT/SIGTERM stops dispatching, drains
  in-flight trials (bounded by ``_DRAIN_TIMEOUT_S``; a second signal
  aborts immediately), terminates every worker, and re-raises
  ``KeyboardInterrupt`` — every outcome reported before then is
  journaled, so the journal on disk is resumable, and no child process
  survives.

**Failure taxonomy** — every failed trial is classified exactly one of:

========== =========================================================
``exception``  the trial function raised (deterministic; not retried)
``timeout``    the in-worker ``SIGALRM`` watchdog fired (not retried)
``crash``      the worker process died mid-trial (retried)
``hang``       the worker went silent mid-trial (retried)
``quarantined`` crash/hang persisted past ``max_retries`` (poison)
========== =========================================================

**Determinism contract.**  Trials are pure functions of their specs, and
every outcome is journaled by the same parent-side code as on the serial
path, so a supervised campaign's results and journals are byte-identical
to a serial run's — *including* campaigns where workers are deliberately
killed: the harness-chaos mode (:mod:`repro.chaos.harness_faults`,
``--harness-chaos SEED``) injects worker kills/hangs as a pure function
of ``(seed, trial key, attempt)``, every injected kill is transient
under the default retry budget, and a retried trial re-executes from its
spec to the same record.  ``tests/test_supervisor.py`` pins serial ==
``--jobs 2`` == ``--jobs 4`` under injected kills, journals included.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import multiprocessing
import multiprocessing.connection as _mpc
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.chaos.harness_faults import injection_for
from repro.experiments.runner import TrialOutcome, TrialSpec, execute_trial

__all__ = ["SupervisorConfig", "SupervisorStats", "Supervisor"]

_log = logging.getLogger("repro.harness")

#: Exit code a chaos-crashed worker dies with (mimics an abrupt kill).
_CHAOS_EXIT = 139

#: How often the supervisor loop wakes to health-check even when no
#: worker message arrives (seconds).
_POLL_S = 0.05

#: Ceiling of the exponential backoff between re-dispatches (seconds).
_BACKOFF_CAP_S = 5.0
#: Worker-side heartbeat period while a trial runs (seconds); read when
#: a worker is spawned and passed to it.
_HEARTBEAT_INTERVAL_S = 0.25
#: Missed-heartbeat window after which a busy worker is declared hung.
_HEARTBEAT_TIMEOUT_S = 10.0
#: How long a signal-triggered drain waits for in-flight trials before
#: killing the remaining workers.
_DRAIN_TIMEOUT_S = 60.0
#: Install SIGINT/SIGTERM drain handlers for the duration of a run
#: (skipped off the main thread regardless).
_HANDLE_SIGNALS = True


@dataclass(frozen=True)
class SupervisorConfig:
    """Policy knobs for the supervised backend: the CLI's
    ``--max-retries``, ``--backoff`` and ``--harness-chaos``.

    ``chaos_seed`` arms harness-chaos injection (worker kills/hangs as a
    pure function of the seed and each trial key); ``None`` runs clean.
    Timing that no caller tunes (heartbeats, drain bound, backoff cap)
    lives in this module's constants.
    """

    #: Re-dispatches allowed per trial after crash/hang; one failure
    #: beyond this quarantines the spec.
    max_retries: int = 3
    #: Base of the deterministic exponential backoff between
    #: re-dispatches: ``backoff_base_s * 2**attempt``, capped at
    #: ``_BACKOFF_CAP_S``.
    backoff_base_s: float = 0.1
    #: Harness-chaos seed (``--harness-chaos``), or ``None`` for clean.
    chaos_seed: Optional[int] = None

    def backoff_s(self, attempt: int) -> float:
        """Deterministic backoff before re-dispatching attempt+1."""
        return min(self.backoff_base_s * (2.0 ** attempt), _BACKOFF_CAP_S)


@dataclass
class SupervisorStats:
    """What the supervisor observed and did, per campaign.

    Deliberately *not* part of saved results: a chaos campaign with
    transient kills must produce result files byte-identical to a clean
    serial run, so retry telemetry lives here (and in the log line
    :meth:`summary` feeds), never in :class:`SweepResult`.
    """

    trials: int = 0
    #: Crash/hang re-dispatches per trial key (only keys that retried).
    retries: dict = field(default_factory=dict)
    #: Backoff delays applied per retried key, in attempt order.
    backoffs: dict = field(default_factory=dict)
    #: Worker-fault events by kind: {"crash": n, "hang": m}.
    fault_counts: dict = field(default_factory=dict)
    #: Keys quarantined after exhausting the retry budget.
    quarantined: list = field(default_factory=list)
    #: Worker processes spawned over the campaign (initial + respawns).
    spawned: int = 0

    def note_fault(self, key: str, kind: str) -> None:
        """Count one crash/hang event against *key* and the fault totals."""
        self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1
        self.retries[key] = self.retries.get(key, 0) + 1

    def canonical(self) -> dict:
        """Scheduling-order-independent view, for comparison across runs
        and worker counts (dict insertion order varies; sorted here)."""
        return {
            "trials": self.trials,
            "retries": dict(sorted(self.retries.items())),
            "backoffs": dict(sorted(self.backoffs.items())),
            "fault_counts": dict(sorted(self.fault_counts.items())),
            "quarantined": sorted(self.quarantined),
        }

    def summary(self) -> str:
        """One log line of what supervision cost this campaign."""
        faults = ", ".join(
            f"{k}={v}" for k, v in sorted(self.fault_counts.items())
        ) or "none"
        return (
            f"{self.trials} trials, {sum(self.retries.values())} retries "
            f"(worker faults: {faults}), {len(self.quarantined)} quarantined, "
            f"{self.spawned} workers spawned"
        )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _chaos_injection(chaos_seed, key: str, attempt: int):
    if chaos_seed is None:
        return None
    return injection_for(chaos_seed, key, attempt)


def _worker_main(
    wid: int,
    conn,
    trial_timeout_s: Optional[float],
    heartbeat_interval_s: float,
    chaos_seed: Optional[int],
) -> None:
    """Worker loop: recv dispatch → heartbeat + run trial → send outcome.

    Top-level so it imports under any multiprocessing start method.
    SIGINT is ignored — on a terminal Ctrl+C the *parent* coordinates the
    drain; workers must stay alive to finish (and report) their trial.
    """
    if hasattr(signal, "SIGINT"):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    send_lock = threading.Lock()

    def send(msg) -> None:
        # The heartbeat thread and the main thread share the pipe.
        with send_lock:
            try:
                conn.send(msg)
            except (BrokenPipeError, OSError):
                os._exit(0)  # parent is gone; nothing left to report to

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "exit":
            break
        _, spec, attempt = msg
        send(("start", spec.key, attempt))

        fault = _chaos_injection(chaos_seed, spec.key, attempt)
        if fault is not None and fault[0] == "hang":
            # Go silent: no heartbeats, no exit.  Only the supervisor's
            # missed-heartbeat deadline can clear this worker.
            while True:
                time.sleep(60.0)
        if fault == ("crash", "pre"):
            os._exit(_CHAOS_EXIT)

        stop = threading.Event()

        def beat(key=spec.key):
            while not stop.wait(heartbeat_interval_s):
                send(("hb", key))

        hb_thread = threading.Thread(target=beat, daemon=True)
        hb_thread.start()
        try:
            outcome = execute_trial(spec, trial_timeout_s)
            if outcome.ok and fault == ("crash", "mid"):
                # Computed, never reported: the parent sees only a crash.
                os._exit(_CHAOS_EXIT)
        finally:
            stop.set()
        hb_thread.join()
        send(("done", outcome))
    conn.close()


# ----------------------------------------------------------------------
# Supervisor (parent) side
# ----------------------------------------------------------------------


class _Worker:
    """Parent-side handle for one worker process."""

    __slots__ = ("wid", "proc", "conn", "busy", "last_hb", "started_at")

    def __init__(self, wid, proc, conn):
        self.wid = wid
        self.proc = proc
        self.conn = conn
        #: ``(spec, attempt)`` while a trial is dispatched, else None.
        self.busy = None
        self.last_hb = 0.0
        self.started_at = 0.0


def _mp_context():
    """Prefer fork (cheap; test monkeypatching propagates)."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class Supervisor:
    """Runs one batch of pending specs under supervision.

    One-shot: construct, :meth:`run`, read :attr:`stats`.  Every trial's
    final :class:`TrialOutcome` — success, in-trial failure, or
    quarantine — is handed to *on_complete* the moment it is known; that
    callback is the only way results leave the supervisor.
    """

    def __init__(
        self,
        jobs: int,
        on_complete: Callable[[TrialOutcome], None],
        trial_timeout_s: Optional[float] = None,
        config: Optional[SupervisorConfig] = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.on_complete = on_complete
        self.trial_timeout_s = trial_timeout_s
        self.config = config if config is not None else SupervisorConfig()
        self.stats = SupervisorStats()
        self._ctx = _mp_context()
        self._workers: dict[int, _Worker] = {}
        self._wid_counter = itertools.count()
        self._seq = itertools.count()  # heap tiebreaker
        self._queue: deque = deque()
        self._delayed: list = []  # (ready_at, seq, spec, attempt)
        self._signals = 0
        self._drain = False
        self._drain_started: Optional[float] = None
        self._abort = False

    # -- public -------------------------------------------------------

    def run(self, specs) -> None:
        """Execute *specs*, reporting each outcome to ``on_complete``.

        Raises :class:`KeyboardInterrupt` after a clean drain when a
        SIGINT/SIGTERM arrived mid-campaign.
        """
        specs = list(specs)
        self.stats.trials = len(specs)
        self._queue.extend((spec, 0) for spec in specs)
        previous_handlers = self._install_signal_handlers()
        try:
            self._loop()
        finally:
            self._shutdown_workers()
            self._restore_signal_handlers(previous_handlers)
        if self.stats.retries or self.stats.quarantined:
            _log.info("supervisor: %s", self.stats.summary())
        if self._signals:
            raise KeyboardInterrupt

    # -- signals ------------------------------------------------------

    def _install_signal_handlers(self):
        if not _HANDLE_SIGNALS or threading.current_thread() is not threading.main_thread():
            return None

        def on_signal(signum, frame):
            self._signals += 1
            self._drain = True
            if self._signals >= 2:
                self._abort = True

        previous = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, on_signal)
        return previous

    def _restore_signal_handlers(self, previous) -> None:
        if previous:
            for sig, handler in previous.items():
                signal.signal(sig, handler)

    # -- main loop ----------------------------------------------------

    def _outstanding(self) -> int:
        busy = sum(1 for w in self._workers.values() if w.busy is not None)
        return len(self._queue) + len(self._delayed) + busy

    def _loop(self) -> None:
        while True:
            now = time.monotonic()
            if self._drain and self._drain_started is None:
                self._drain_started = now
            if self._abort or (
                self._drain_started is not None
                and now - self._drain_started > _DRAIN_TIMEOUT_S
            ):
                return  # shutdown path kills whatever is still busy
            self._promote_delayed(now)
            if not self._drain:
                self._dispatch(now)
            busy = any(w.busy is not None for w in self._workers.values())
            if not busy and (self._drain or self._outstanding() == 0):
                return
            self._poll(self._wait_timeout(now))
            self._check_health(time.monotonic())

    def _wait_timeout(self, now: float) -> float:
        timeout = _POLL_S
        if self._delayed:
            timeout = min(timeout, max(self._delayed[0][0] - now, 0.0))
        return timeout

    def _promote_delayed(self, now: float) -> None:
        while self._delayed and self._delayed[0][0] <= now:
            _ready_at, _seq, spec, attempt = heapq.heappop(self._delayed)
            self._queue.append((spec, attempt))

    # -- workers ------------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        wid = next(self._wid_counter)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                wid,
                child_conn,
                self.trial_timeout_s,
                _HEARTBEAT_INTERVAL_S,
                self.config.chaos_seed,
            ),
            daemon=True,
            name=f"trial-worker-{wid}",
        )
        proc.start()
        child_conn.close()
        worker = _Worker(wid, proc, parent_conn)
        self._workers[wid] = worker
        self.stats.spawned += 1
        return worker

    def _remove_worker(self, worker: _Worker, kill: bool = False) -> None:
        if kill and worker.proc.is_alive():
            worker.proc.kill()
        worker.proc.join(timeout=10.0)
        if worker.proc.is_alive():  # pragma: no cover - last resort
            worker.proc.terminate()
            worker.proc.join(timeout=5.0)
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.proc.close()
        self._workers.pop(worker.wid, None)

    def _dispatch(self, now: float) -> None:
        while self._queue:
            worker = next(
                (w for w in self._workers.values() if w.busy is None), None
            )
            if worker is None:
                if len(self._workers) >= self.jobs:
                    return
                worker = self._spawn_worker()
            spec, attempt = self._queue.popleft()
            worker.busy = (spec, attempt)
            worker.started_at = worker.last_hb = now
            try:
                worker.conn.send(("run", spec, attempt))
            except (BrokenPipeError, OSError):
                # Died between trials; re-dispatch elsewhere.
                worker.busy = None
                self._queue.appendleft((spec, attempt))
                self._remove_worker(worker, kill=True)

    # -- event handling -----------------------------------------------

    def _poll(self, timeout: float) -> None:
        objs = []
        by_obj = {}
        for w in self._workers.values():
            objs.append(w.conn)
            by_obj[w.conn] = w
            objs.append(w.proc.sentinel)
            by_obj[w.proc.sentinel] = w
        if not objs:
            time.sleep(timeout)
            return
        for obj in _mpc.wait(objs, timeout):
            worker = by_obj[obj]
            if obj is worker.conn:
                self._drain_conn(worker)
            # Sentinel readiness (process death) is handled by the
            # health check right after, once the conn is drained.

    def _drain_conn(self, worker: _Worker) -> None:
        while True:
            try:
                if not worker.conn.poll():
                    return
                msg = worker.conn.recv()
            except (EOFError, OSError):
                return  # dead worker; the health check reaps it
            kind = msg[0]
            if kind in ("hb", "start"):
                worker.last_hb = time.monotonic()
            elif kind == "done":
                outcome = msg[1]
                outcome.retries = worker.busy[1] if worker.busy else 0
                worker.busy = None
                self.on_complete(outcome)

    def _check_health(self, now: float) -> None:
        for worker in list(self._workers.values()):
            if worker.proc.exitcode is not None:
                # Crashed (or chaos-killed itself).  Drain first: a
                # worker that finished its trial and *then* died has a
                # buffered "done" that must win over the crash verdict.
                self._drain_conn(worker)
                interrupted = worker.busy
                self._remove_worker(worker)
                if interrupted is not None:
                    self._on_worker_failure(*interrupted, kind="crash")
                continue
            if worker.busy is None:
                continue
            hung = now - worker.last_hb > _HEARTBEAT_TIMEOUT_S
            if not hung and self.trial_timeout_s:
                # Backstop for a wedged trial whose SIGALRM never fired
                # (e.g. stuck in a C extension) but whose heartbeat
                # thread still beats.
                deadline = self.trial_timeout_s + _HEARTBEAT_TIMEOUT_S
                hung = now - worker.started_at > deadline
            if hung:
                interrupted = worker.busy
                self._remove_worker(worker, kill=True)
                self._on_worker_failure(*interrupted, kind="hang")

    # -- retry / quarantine -------------------------------------------

    def _on_worker_failure(self, spec: TrialSpec, attempt: int, kind: str) -> None:
        self.stats.note_fault(spec.key, kind)
        if attempt >= self.config.max_retries:
            reason = (
                f"worker {kind} on attempt {attempt + 1}; quarantined after "
                f"{self.config.max_retries} retries"
            )
            outcome = TrialOutcome(
                spec.key, None, error=reason, taxonomy="quarantined", retries=attempt
            )
            self.stats.quarantined.append(spec.key)
            _log.warning("supervisor: quarantined %s (%s)", spec.key, reason)
            self.on_complete(outcome)
            return
        delay = self.config.backoff_s(attempt)
        self.stats.backoffs.setdefault(spec.key, []).append(delay)
        heapq.heappush(
            self._delayed,
            (time.monotonic() + delay, next(self._seq), spec, attempt + 1),
        )

    # -- shutdown -----------------------------------------------------

    def _shutdown_workers(self) -> None:
        for worker in list(self._workers.values()):
            if worker.busy is None and worker.proc.is_alive():
                try:
                    worker.conn.send(("exit",))
                except (BrokenPipeError, OSError):
                    pass
                worker.proc.join(timeout=5.0)
            self._remove_worker(worker, kill=True)
