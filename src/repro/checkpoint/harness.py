"""Crash-safe experiment harness: trial journaling and wall-clock watchdog.

A sweep is a loop over (scenario, proc-count, seed) trials, each costing
minutes of wall clock.  The journal records every completed trial to its
own atomically-written JSON file, so a crash (or a ``kill -9``) loses at
most the trials in flight; re-running the sweep with the same journal
skips finished trials and recomputes only the rest.  Because ``json``
round-trips doubles exactly, a resumed sweep is bit-identical to an
uninterrupted one.  Only the campaign's own process writes the journal:
under ``--jobs N`` the workers report each outcome to it, so a killed
parent can also lose up to N trials a worker finished but had not yet
reported.

Failed trials are journaled too — with ``status: "failed"`` — but are
*retried* on resume: a failure is usually environmental (timeout, OOM),
and permanently skipping it would silently shrink the sweep.  Only
``status: "ok"`` entries short-circuit.

:func:`trial_watchdog` bounds each trial's wall-clock time with a real
``SIGALRM`` timer, so a wedged trial (a livelock in a model under an
adversarial fault config) kills itself, gets recorded as failed, and the
sweep moves on instead of hanging the whole campaign.
"""

from __future__ import annotations

import json
import logging
import os
import re
import signal
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

from repro.atomicio import atomic_write

__all__ = [
    "TrialFailure",
    "TrialTimeout",
    "SweepJournal",
    "trial_watchdog",
    "sanitize_key",
    "valid_journal_entry",
    "read_ok_record",
]

_UNSAFE = re.compile(r"[^A-Za-z0-9._-]+")

_log = logging.getLogger("repro.harness")


def sanitize_key(key: str) -> str:
    """Filesystem-safe form of a trial key (shared with the result store,
    whose key index uses the same names so journals and store line up)."""
    return _UNSAFE.sub("_", key)


def valid_journal_entry(obj) -> bool:
    """Is *obj* a structurally valid journal entry?

    An entry is a dict whose ``status`` is ``"ok"`` (with a dict
    ``record``) or ``"failed"``.  Anything else — valid JSON of the wrong
    shape, a bare list, a null or non-dict record, a half-migrated file —
    is treated exactly like a torn write: dropped by
    :meth:`SweepJournal.merge_shards`, ignored by
    :meth:`SweepJournal.lookup`, recomputed on resume.
    """
    if not isinstance(obj, dict):
        return False
    status = obj.get("status")
    if status == "ok":
        return isinstance(obj.get("record"), dict)
    return status == "failed"


def read_ok_record(path) -> Optional[dict]:
    """The record of the journal entry file at *path* if it finished OK.

    A missing, torn, non-UTF-8 or wrong-shape entry reads as None, like a
    failed one: its trial is recomputed.  One ``open``, no ``stat`` first.
    """
    try:
        with open(path, "rb") as fh:
            entry = json.loads(fh.read().decode("utf-8"))
    except (OSError, ValueError):  # ValueError: bad JSON or bad UTF-8
        return None
    if not valid_journal_entry(entry) or entry["status"] != "ok":
        return None
    return entry["record"]


class TrialFailure(RuntimeError):
    """A trial failed in a way the sweep should record and survive."""


class TrialTimeout(TrialFailure):
    """A trial exceeded its wall-clock budget (raised from SIGALRM)."""


def _atomic_write_json(path, obj) -> None:
    """Write *obj* as a journal entry's canonical JSON, atomically."""
    atomic_write(path, lambda fh: json.dump(obj, fh, indent=1, sort_keys=True))


class SweepJournal:
    """Per-trial completion journal under ``<root>/journal/``.

    One JSON file per trial key; keys are free-form strings (e.g.
    ``"proto16-n512-s2"``) sanitised for the filesystem.  ``lookup``
    returns the recorded result for finished trials (and counts the hit,
    so resume tests can assert how much work was skipped).

    One writer: the process that runs the campaign.  Supervised workers
    report their outcomes back and the parent's
    :class:`~repro.experiments.runner.TrialRunner` journals every one, so
    a journal written under ``--jobs N`` is byte-identical to a serial
    one.  Opening a journal folds in any ``journal/shards/`` tree an
    older version's parallel campaign left behind (see
    :meth:`merge_shards`).
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.dir = self.root / "journal"
        self.shards_dir = self.dir / "shards"
        self.dir.mkdir(parents=True, exist_ok=True)
        self._dir = str(self.dir)
        #: Successful lookups served from the journal (resume telemetry).
        self.hits = 0
        self.merge_shards()

    def _path(self, key: str) -> str:
        return os.path.join(self._dir, f"{sanitize_key(key)}.json")

    def merge_shards(self) -> int:
        """Fold a legacy ``journal/shards/w<pid>/`` tree into the journal.

        Older versions had each parallel worker journal into its own shard
        directory; a campaign hard-killed before merging left that tree
        behind.  Opening a journal runs this once, so such a campaign
        resumes with its finished trials.  Idempotent and crash-safe: each
        shard file is validated as JSON, then ``os.replace``d into place
        (trials are deterministic, so a same-key duplicate carries
        identical bytes and last-writer-wins is harmless).  Returns the
        number of entries moved.

        A truncated or corrupt shard entry (a worker killed mid-write) is
        deleted with a logged warning instead of either raising or, worse,
        clobbering a good canonical entry of the same key; so is an entry
        that parses as JSON but has the wrong shape (see
        :func:`valid_journal_entry`).  Either way its trial is simply
        recomputed on resume, and the total dropped count is logged once.
        Leftover ``*.tmp`` spill and any other stray file is swept out
        too, and the emptied shard directories are removed.
        """
        if not self.shards_dir.is_dir():
            return 0
        moved = 0
        dropped = 0
        for entry in sorted(self.shards_dir.glob("*/*.json")):
            problem = None
            try:
                with open(entry, "r", encoding="utf-8") as fh:
                    obj = json.load(fh)
            except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
                problem = str(exc)
            else:
                if not valid_journal_entry(obj):
                    problem = "valid JSON but wrong entry shape"
            if problem is not None:
                _log.warning(
                    "journal: dropping corrupt shard entry %s (%s); "
                    "its trial will be recomputed",
                    entry,
                    problem,
                )
                try:
                    entry.unlink()
                except OSError:
                    pass
                dropped += 1
                continue
            os.replace(entry, self.dir / entry.name)
            moved += 1
        for shard_dir in sorted(self.shards_dir.iterdir()):
            if shard_dir.is_dir():
                for stale in sorted(shard_dir.iterdir()):
                    try:
                        stale.unlink()
                    except OSError:
                        pass
            try:
                shard_dir.rmdir()
            except OSError:
                pass
        try:
            self.shards_dir.rmdir()
        except OSError:
            pass
        if dropped:
            _log.warning(
                "journal: dropped %d torn/corrupt shard entr%s during merge "
                "(their trials will be recomputed)",
                dropped,
                "y" if dropped == 1 else "ies",
            )
        return moved

    def lookup(self, key: str) -> Optional[dict]:
        """The journaled record for *key* if it finished OK, else None.

        Failed entries return None on purpose: failures are retried on
        resume, not skipped (see the module docstring).
        """
        record = read_ok_record(self._path(key))
        if record is not None:
            self.hits += 1
        return record

    def record(self, key: str, record: dict) -> None:
        """Journal a completed trial (atomic; visible only when whole)."""
        _atomic_write_json(self._path(key), {"status": "ok", "record": record})

    def record_failure(
        self,
        key: str,
        reason: str,
        traceback: Optional[str] = None,
        taxonomy: Optional[str] = None,
    ) -> None:
        """Journal a failed trial (kept for forensics, retried on resume).

        *traceback* is the full formatted traceback of the failure when
        one is available and deterministic (see
        :func:`repro.experiments.runner.format_trial_traceback`), so a
        chaos or sweep failure is diagnosable from the journal alone.
        *taxonomy* classifies the failure mode — one of ``crash | hang |
        exception | timeout | quarantined`` (see
        :mod:`repro.experiments.supervisor`).
        """
        _atomic_write_json(
            self._path(key),
            {
                "status": "failed",
                "reason": reason,
                "taxonomy": taxonomy,
                "traceback": traceback,
            },
        )

    def entries(self) -> dict[str, dict]:
        """All journal entries by sanitised key (forensics/tests)."""
        out = {}
        for p in sorted(self.dir.glob("*.json")):
            try:
                with open(p, "r", encoding="utf-8") as fh:
                    out[p.stem] = json.load(fh)
            except (OSError, ValueError):
                continue
        return out

    def clear(self) -> None:
        """Delete every journal entry (fresh-run semantics)."""
        for p in self.dir.glob("*.json"):
            try:
                p.unlink()
            except OSError:
                pass


@contextmanager
def trial_watchdog(seconds: Optional[float]):
    """Bound the wall-clock time of one trial with a real interval timer.

    Inside the context, ``SIGALRM`` fires after *seconds* and raises
    :class:`TrialTimeout` at the next bytecode boundary — which a wedged
    (but GIL-yielding) trial always reaches.  Timer and handler are fully
    restored on exit.

    Degrades to a no-op when *seconds* is falsy, when not on the main
    thread (signals can't be delivered elsewhere), or on platforms
    without ``SIGALRM`` — the sweep then simply runs unguarded.
    """
    if (
        not seconds
        or threading.current_thread() is not threading.main_thread()
        or not hasattr(signal, "SIGALRM")
        or not hasattr(signal, "setitimer")
    ):
        yield
        return

    def _alarm(signum, frame):
        raise TrialTimeout(f"trial exceeded {seconds}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
