"""Declarative trial execution: :class:`TrialSpec` + :class:`TrialRunner`.

Every campaign in this repository — the figure sweeps, the ablation, the
speedup comparison, the resilience scenarios, the validation anchors —
reduces to the same shape: a list of *independent, deterministic* trials
whose results are averaged or tabulated afterwards.  This module owns
that shape once:

* :class:`TrialSpec` is the pure-data description of one trial — a
  journal key, a ``"module:function"`` reference to a top-level trial
  function, and a picklable ``params`` dict.  Specs carry no behaviour,
  so they cross process boundaries and land in journals unchanged.
* :func:`execute_trial` runs one spec under the per-trial wall-clock
  watchdog from :mod:`repro.checkpoint.harness` and turns a raised
  exception into a failed :class:`TrialOutcome`.  It is the only place a
  trial function is called: in-process for ``jobs=1``, and inside the
  fault-tolerant workers of :mod:`repro.experiments.supervisor` (long-lived
  heartbeating workers, crash/hang detection, bounded retry with
  deterministic backoff, quarantine of poison specs, graceful
  SIGINT/SIGTERM drain) for ``jobs > 1``.
* :class:`TrialRunner` owns execution policy: journal and store lookups,
  serial or supervised dispatch, and persisting each executed outcome
  once, as it completes — workers only compute and report, so the
  parent is the journal's only writer.

**The determinism-under-parallelism contract.**  Each trial is a pure
function of its params (all randomness comes from seeds inside them), so
execution order cannot change any trial's result.  The runner returns
outcomes in *spec order* regardless of completion order, journal entries
are keyed (one atomically-written file per trial, written by the parent
as each outcome arrives), and failures are caught and formatted by the
same function on both paths.  Hence ``--jobs N`` and a serial run
produce bit-identical results and byte-identical journals — the property
``tests/test_runner.py`` pins.

Worker processes prefer the ``fork`` start method where the platform
offers it (cheap, and test-time monkeypatching propagates); elsewhere the
default context is used, which is why trial functions must be importable
top-level names and params must pickle.

A runner is the only carrier of execution policy: every campaign entry
point takes one as ``runner=`` (``None`` means ``TrialRunner()``:
serial, no journal, no store), and the CLI builds one from its flags and
hands it to each campaign it runs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import traceback as _traceback
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.checkpoint import harness as _harness
from repro.checkpoint.harness import (
    SweepJournal,
    TrialFailure,
    TrialTimeout,
    trial_watchdog,
)
from repro.store.fingerprint import spec_fingerprint

__all__ = [
    "TrialSpec",
    "TrialOutcome",
    "TrialRunner",
    "execute_trial",
    "resolve_trial_fn",
    "format_trial_traceback",
]


@dataclass(frozen=True)
class TrialSpec:
    """Pure-data description of one trial.

    ``key`` must be unique within a campaign — it names the journal entry
    and the outcome.  ``fn`` is a ``"package.module:function"`` reference
    resolved in the executing process (never a live callable, so a spec
    survives pickling and journaling).  ``params`` is passed to the trial
    function as its only argument; the function returns a JSON-able dict.
    """

    key: str
    fn: str
    params: dict = field(default_factory=dict)


def resolve_trial_fn(path: str) -> Callable:
    """Resolve a ``"package.module:function"`` reference: a trial function,
    or the builder a checkpoint file names."""
    mod_name, sep, fn_name = path.partition(":")
    if not sep or not mod_name or not fn_name:
        raise ValueError(f"reference must look like 'pkg.mod:fn', got {path!r}")
    return getattr(importlib.import_module(mod_name), fn_name)


#: Frames belonging to the execution machinery itself, stripped from
#: captured trial tracebacks: every trial raises through
#: :func:`execute_trial` and the watchdog (plus contextmanager plumbing),
#: whose frames say nothing about the failure.
_HARNESS_FILES = frozenset({__file__, _harness.__file__, contextlib.__file__})


def format_trial_traceback(exc: BaseException) -> Optional[str]:
    """Deterministic formatted traceback of a failed trial, or ``None``.

    Keeps only the frames below the runner/watchdog machinery — the trial
    function on down — so the string is identical whether the exception
    was raised in-process or in a supervised worker.  Timeouts return ``None``:
    ``SIGALRM`` lands at an arbitrary bytecode boundary, so their
    tracebacks are wall-clock noise, not diagnosis.
    """
    if isinstance(exc, TrialTimeout):
        return None
    frames = [
        f
        for f in _traceback.extract_tb(exc.__traceback__)
        if f.filename not in _HARNESS_FILES
    ]
    if not frames:
        return None
    return "".join(
        _traceback.format_list(frames) + _traceback.format_exception_only(exc)
    )


@dataclass
class TrialOutcome:
    """Result of one trial: its record, or a failure reason."""

    key: str
    record: Optional[dict]
    error: Optional[str] = None
    #: Full formatted traceback of the failure, when one was captured
    #: (harness frames stripped; ``None`` for timeouts and worker deaths).
    traceback: Optional[str] = None
    #: Served from the journal instead of recomputed (resume telemetry).
    cached: bool = False
    #: Failure classification when the trial failed — one of
    #: ``crash | hang | exception | timeout | quarantined`` (see
    #: :mod:`repro.experiments.supervisor`); ``None`` on success.
    taxonomy: Optional[str] = None
    #: Crash/hang re-dispatches this trial survived under the supervised
    #: backend (telemetry only; never part of saved results).
    retries: int = 0

    @property
    def ok(self) -> bool:
        return self.record is not None

    def require(self) -> dict:
        """The record, or :class:`TrialFailure` for experiments that have
        no hole semantics (ablation, speedup, validation)."""
        if self.record is None:
            raise TrialFailure(f"trial {self.key!r} failed: {self.error}")
        return self.record


def execute_trial(spec: TrialSpec, timeout_s: Optional[float]) -> TrialOutcome:
    """Run one trial under :func:`trial_watchdog`; return its outcome.

    The one place a trial function is called, on every path: in-process
    for ``jobs=1`` and inside each supervised worker.  A raised exception
    becomes a failed outcome (``KeyboardInterrupt`` still aborts), caught
    here so its reason, taxonomy and traceback are the same on both.
    """
    try:
        with trial_watchdog(timeout_s):
            record = resolve_trial_fn(spec.fn)(spec.params)
    except Exception as exc:
        return TrialOutcome(
            spec.key,
            None,
            error=f"{type(exc).__name__}: {exc}",
            traceback=format_trial_traceback(exc),
            taxonomy="timeout" if isinstance(exc, TrialTimeout) else "exception",
        )
    return TrialOutcome(spec.key, record)


class TrialRunner:
    """Executes :class:`TrialSpec` lists under one policy.

    ``jobs=1`` (the default) runs trials in-process, in order.  ``jobs>1``
    fans pending trials out over supervised worker processes (crash/hang
    recovery, retries, quarantine; see :mod:`repro.experiments.supervisor`).
    Either way:

    * trials already journaled (``status: "ok"``) are served from the
      journal without executing — crash/resume semantics;
    * each executed trial goes through :func:`execute_trial`, under the
      watchdog when ``trial_timeout_s`` is set (``SIGALRM`` works in
      workers too: the trial runs on the worker process's main thread);
    * a trial that raises becomes a failed :class:`TrialOutcome` (and a
      ``status: "failed"`` journal entry) instead of aborting the campaign;
    * :meth:`run` returns outcomes in spec order, so assembly code is
      oblivious to completion order — the deterministic merge.

    ``backend`` is accepted for compatibility and must be ``None`` or
    ``"supervised"``, the only parallel backend.  After a supervised run,
    :attr:`stats` holds the
    :class:`~repro.experiments.supervisor.SupervisorStats` (retry counts,
    backoff sequences, worker-fault totals) for that batch.
    """

    def __init__(
        self,
        jobs: int = 1,
        journal: Optional[SweepJournal] = None,
        trial_timeout_s: Optional[float] = None,
        backend: Optional[str] = None,
        supervisor=None,
        store=None,
        use_cache: bool = True,
    ) -> None:
        if backend not in (None, "supervised"):
            raise ValueError(f"unknown backend {backend!r}; the only one is 'supervised'")
        self.jobs = max(1, int(jobs))
        self.journal = journal
        self.trial_timeout_s = trial_timeout_s
        #: :class:`~repro.experiments.supervisor.SupervisorConfig` for
        #: ``jobs > 1``; ``None`` means its defaults.
        self.supervisor = supervisor
        #: Cross-run memo store (:class:`repro.store.ResultStore`), or
        #: ``None`` for no store.  Probed after the journal, before
        #: dispatch; every executed result is written as it completes, and
        #: a journal hit backfills the store so old campaigns migrate in
        #: passing.
        self.store = store
        #: When ``False`` the store is write-only for this runner
        #: (``--no-cache``): results are recomputed and re-put — which
        #: makes the put path a determinism check against prior runs.
        self.use_cache = bool(use_cache)
        #: SupervisorStats of the last supervised batch, else ``None``.
        self.stats = None

    def run(self, specs: Sequence[TrialSpec]) -> list[TrialOutcome]:
        """Execute *specs*; return their outcomes in the given order."""
        specs = list(specs)
        seen: set[str] = set()
        for spec in specs:
            if spec.key in seen:
                raise ValueError(f"duplicate trial key {spec.key!r}")
            seen.add(spec.key)

        # Fingerprint once per spec when a store is attached; the store
        # is probed *after* the journal (same-campaign resume wins) and
        # serves verified records as cached outcomes, materialised into
        # the journal so warm and cold runs leave byte-identical
        # journals.
        fingerprints: dict[str, str] = {}
        if self.store is not None:
            fingerprints = {spec.key: spec_fingerprint(spec) for spec in specs}

        outcomes: dict[str, TrialOutcome] = {}
        pending: list[TrialSpec] = []
        for spec in specs:
            done = self.journal.lookup(spec.key) if self.journal is not None else None
            if done is not None:
                outcomes[spec.key] = TrialOutcome(spec.key, done, cached=True)
                if self.store is not None:
                    # Backfill: a journaled campaign migrates into the
                    # store in passing (and a mismatched prior store
                    # record trips the determinism oracle loudly).
                    self.store.put(fingerprints[spec.key], spec.key, done)
                continue
            if self.store is not None and self.use_cache:
                hit = self.store.get(fingerprints[spec.key])
                if hit is not None:
                    outcomes[spec.key] = TrialOutcome(spec.key, hit, cached=True)
                    if self.journal is not None:
                        self.journal.record(spec.key, hit)
                    continue
            pending.append(spec)

        complete = functools.partial(self._complete, outcomes, fingerprints)
        chaos = self.supervisor is not None and self.supervisor.chaos_seed is not None
        # A single pending trial gains nothing from workers; run it inline
        # (same code path, same journal bytes) — unless harness chaos is
        # armed, where only the supervised path can retry injected kills.
        if self.jobs == 1 or (len(pending) <= 1 and not chaos):
            for spec in pending:
                complete(execute_trial(spec, self.trial_timeout_s))
        else:
            self._run_supervised(pending, complete)
        return [outcomes[spec.key] for spec in specs]

    def _complete(
        self, outcomes: dict, fingerprints: dict, outcome: TrialOutcome
    ) -> None:
        """Take in one executed trial's outcome, the moment it completes.

        Both paths end here: the serial loop directly, the supervisor
        through its completion callback (quarantines included).  The
        outcome is journaled — a record or a structured failure — and a
        successful result goes into the store, each exactly once and as
        soon as it exists, so an interrupted campaign (crash, SIGINT
        drain) still leaves every reported trial durable, and a result
        that disagrees with a prior run's record trips the determinism
        oracle at once, not at campaign end.
        """
        outcomes[outcome.key] = outcome
        if self.journal is not None:
            if outcome.ok:
                self.journal.record(outcome.key, outcome.record)
            else:
                self.journal.record_failure(
                    outcome.key,
                    outcome.error,
                    traceback=outcome.traceback,
                    taxonomy=outcome.taxonomy,
                )
        if outcome.ok and self.store is not None:
            self.store.put(fingerprints[outcome.key], outcome.key, outcome.record)

    def _run_supervised(
        self, pending: list[TrialSpec], on_complete: Callable[[TrialOutcome], None]
    ) -> None:
        # Deferred: repro.experiments.supervisor imports this module.
        from repro.experiments.supervisor import Supervisor

        sup = Supervisor(
            jobs=self.jobs,
            on_complete=on_complete,
            trial_timeout_s=self.trial_timeout_s,
            config=self.supervisor,
        )
        try:
            sup.run(pending)
        finally:
            self.stats = sup.stats
