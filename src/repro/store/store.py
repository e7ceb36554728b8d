"""The content-addressed result store: durable, verifiable memoized trials.

Layout under one root (all files checksummed envelopes, all writes
atomic temp + fsync + ``os.replace``)::

    store/
      objects/<aa>/<fingerprint>.json   # one record per (spec, code-version)
      index/<sanitized-key>.json        # trial key -> fingerprint bridge
      quarantine/                       # carcasses of corrupt records
      gc/mark.json                      # GC mark journal (present mid-GC only)

**Records** are keyed by :func:`repro.store.fingerprint.spec_fingerprint`
and carry ``{fingerprint, key, status, record, sha256}``.  Because the
encoding is canonical, a re-put of identical content writes identical
bytes — concurrent writers of the same trial are benign — while a put of
*different* content under one fingerprint is a
:class:`DeterminismViolation`: the spec's determinism contract broke (or
the code changed without a version bump), and the store refuses to
silently pick a winner.  That turns the store into a standing cross-run
determinism oracle.

**The key index** maps sanitized trial keys (the same names
:class:`~repro.checkpoint.harness.SweepJournal` uses for its files) to
fingerprints.  It is rebuilt on every put and exists for two offline
consumers: ``fsck --repair``, which uses it to find the journal entry
that can restore a corrupt record, and ``gc --live-from``, which turns
"the keys in these journals" into a live fingerprint set.

**Reads are self-protecting**: :meth:`ResultStore.get` verifies the
checksum and shape, and a record that fails is *quarantined* — moved
aside, never deleted, never served — and reported as a miss, so a
corrupt store degrades to recomputation instead of poisoning results.

**GC is crash-safe** by mark journaling: the dead set is written to
``gc/mark.json`` (atomic, checksummed) before the first unlink, the
sweep deletes exactly the fingerprints in the mark, and a crash anywhere
leaves either a completed GC or a mark whose sweep is idempotent to
finish — :meth:`ResultStore.gc` and ``fsck --repair`` both complete it.
Records put *after* the mark was written are never in its dead list, so
a resumed sweep cannot eat concurrent work.
"""

from __future__ import annotations

import json
import logging
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from repro.atomicio import atomic_write_bytes
from repro.checkpoint.harness import read_ok_record, sanitize_key
from repro.store.records import IntegrityError, decode_record, encode_record

__all__ = [
    "StoreError",
    "DeterminismViolation",
    "ResultStore",
    "FsckFinding",
    "FsckReport",
    "GcReport",
]

_log = logging.getLogger("repro.store")

_FP_RE = re.compile(r"[0-9a-f]{64}\Z")


def _read_or_none(path: str) -> Optional[bytes]:
    """The bytes of the file at *path*, or None if there is none (one
    ``open``, no ``stat`` first)."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


class StoreError(RuntimeError):
    """The store cannot honour a request (misuse or unrecoverable state)."""


class DeterminismViolation(StoreError):
    """Two different results were produced for one fingerprint.

    Either a trial is not the pure function of its spec the contract
    demands, or trial-affecting code changed without a code-version bump
    (see :func:`repro.store.fingerprint.code_version`).  Both are bugs
    worth a loud stop — serving or overwriting either record would
    silently corrupt downstream results.
    """


@dataclass
class FsckFinding:
    """One problem fsck found (and what it did about it)."""

    #: ``torn | checksum | shape | fingerprint-mismatch | index-corrupt |
    #: index-dangling | stray-tmp | interrupted-gc | gc-mark-corrupt``
    kind: str
    path: str
    fingerprint: Optional[str] = None
    key: Optional[str] = None
    #: ``reported`` (no --repair) or the repair taken: ``quarantined``,
    #: ``repaired`` (restored from a journal), ``removed``, ``completed``.
    action: str = "reported"


@dataclass
class FsckReport:
    """Everything one fsck pass saw."""

    checked: int = 0
    findings: list = field(default_factory=list)
    repaired: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def resolved(self) -> bool:
        """Did every finding end in a repair action (store now clean)?"""
        return all(f.action != "reported" for f in self.findings)

    def summary(self) -> str:
        """One-line human verdict for the CLI."""
        if self.clean:
            return f"fsck: clean ({self.checked} records verified)"
        return (
            f"fsck: {len(self.findings)} problem(s) across {self.checked} "
            f"records, {self.repaired} restored from journal"
        )


@dataclass
class GcReport:
    """What one GC pass kept and swept."""

    kept: int = 0
    dead: list = field(default_factory=list)
    swept: int = 0
    #: Objects removed while completing a previously interrupted sweep.
    resumed: int = 0
    dry_run: bool = False

    def summary(self) -> str:
        """One-line human verdict for the CLI."""
        mode = "dry-run: would sweep" if self.dry_run else "swept"
        resumed = f" (+{self.resumed} from an interrupted sweep)" if self.resumed else ""
        return f"gc: kept {self.kept}, {mode} {len(self.dead)}{resumed}"


class ResultStore:
    """Content-addressed store of memoized trial records under *root*.

    Thread-unsafe by design (one instance per process; cross-*process*
    concurrency is what the atomic/canonical write discipline handles).
    Session telemetry lives in :attr:`hits`/:attr:`misses`/:attr:`puts`/
    :attr:`identical` — never in stored bytes, so cached and computed
    campaigns stay byte-identical.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.index_dir = self.root / "index"
        self.quarantine_dir = self.root / "quarantine"
        self.gc_dir = self.root / "gc"
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self.index_dir.mkdir(parents=True, exist_ok=True)
        # String forms for the per-trial paths: put/get build two paths
        # per call, and pathlib's joins cost more than the reads.
        self._objects = str(self.objects_dir)
        self._index = str(self.index_dir)
        #: Records served (verified) this session.
        self.hits = 0
        #: Probes that found nothing servable (absent or quarantined).
        self.misses = 0
        #: New or corrupt-replacing writes this session.
        self.puts = 0
        #: Puts that found byte-identical content already stored.
        self.identical = 0

    # -- paths ---------------------------------------------------------

    def object_path(self, fingerprint: str) -> Path:
        """Where the record for *fingerprint* lives (exists or not)."""
        return Path(self._object_file(fingerprint))

    def index_path(self, key: str) -> Path:
        """Where the key->fingerprint index entry for *key* lives."""
        return Path(self._index_file(key))

    def _object_file(self, fingerprint: str) -> str:
        self._check_fingerprint(fingerprint)
        return os.path.join(self._objects, fingerprint[:2], f"{fingerprint}.json")

    def _index_file(self, key: str) -> str:
        return os.path.join(self._index, f"{sanitize_key(key)}.json")

    @property
    def gc_mark_path(self) -> Path:
        return self.gc_dir / "mark.json"

    @staticmethod
    def _check_fingerprint(fingerprint: str) -> None:
        if not isinstance(fingerprint, str) or not _FP_RE.match(fingerprint):
            raise ValueError(
                f"not a fingerprint: {fingerprint!r} (want 64 lowercase hex chars)"
            )

    def fingerprints(self) -> Iterator[str]:
        """All fingerprints with a record file on disk (sorted)."""
        for path in sorted(self.objects_dir.glob("*/*.json")):
            if _FP_RE.match(path.stem):
                yield path.stem

    # -- put / get -----------------------------------------------------

    def put(self, fingerprint: str, key: str, record: dict) -> str:
        """Store *record* under *fingerprint*; return what happened.

        ``"stored"`` — new record written; ``"identical"`` — byte-equal
        record already present (benign concurrent/duplicate writer);
        ``"replaced-corrupt"`` — a corrupt carcass sat at this
        fingerprint and was overwritten with the good record.  A valid
        but *different* record raises :class:`DeterminismViolation`.
        """
        path = self._object_file(fingerprint)
        payload = {
            "fingerprint": fingerprint,
            "key": key,
            "status": "ok",
            "record": record,
        }
        data = encode_record(payload)
        outcome = "stored"
        existing = _read_or_none(path)
        if existing is not None:
            if existing == data:
                self.identical += 1
                self._write_index(key, fingerprint)
                return "identical"
            try:
                old = decode_record(existing)
                self._validate_object(fingerprint, old)
            except IntegrityError as exc:
                _log.warning(
                    "store: replacing corrupt record %s (%s)", os.path.basename(path), exc
                )
                outcome = "replaced-corrupt"
            else:
                raise DeterminismViolation(
                    f"determinism violation for trial {key!r} "
                    f"(fingerprint {fingerprint[:12]}…): stored record "
                    f"{json.dumps(old.get('record'), sort_keys=True)[:200]} != "
                    f"new record {json.dumps(record, sort_keys=True)[:200]} — "
                    "trials must be pure functions of their specs; if code "
                    "changed, bump the code version (REPRO_CODE_VERSION)"
                )
        atomic_write_bytes(path, data)
        self._write_index(key, fingerprint)
        self.puts += 1
        return outcome

    def get(self, fingerprint: str) -> Optional[dict]:
        """The verified record for *fingerprint*, or None.

        A record that fails checksum/shape verification is quarantined
        (moved aside for forensics) and reported as a miss — a corrupt
        store degrades to recomputation, never to bad data.
        """
        path = self._object_file(fingerprint)
        data = _read_or_none(path)
        if data is None:
            self.misses += 1
            return None
        try:
            payload = decode_record(data)
            self._validate_object(fingerprint, payload)
        except IntegrityError as exc:
            moved = self._quarantine(Path(path))
            _log.warning(
                "store: quarantined corrupt record %s -> %s (%s); "
                "its trial will be recomputed",
                os.path.basename(path),
                moved.name,
                exc,
            )
            self.misses += 1
            return None
        self.hits += 1
        return payload["record"]

    @staticmethod
    def _validate_object(fingerprint: str, payload: dict) -> None:
        """Shape-check a decoded record against its address."""
        missing = {"fingerprint", "key", "status", "record"} - payload.keys()
        if missing or payload.get("status") != "ok" or not isinstance(
            payload.get("key"), str
        ):
            raise IntegrityError(
                "shape", f"record at {fingerprint[:12]}… has wrong shape "
                f"(missing {sorted(missing)!r} / bad status)"
            )
        if payload["fingerprint"] != fingerprint:
            raise IntegrityError(
                "fingerprint-mismatch",
                f"record claims fingerprint {str(payload['fingerprint'])[:12]}… "
                f"but is addressed as {fingerprint[:12]}…",
            )

    def _write_index(self, key: str, fingerprint: str) -> None:
        """Record the key→fingerprint bridge (last writer wins: a new
        code version legitimately remaps a key to a new fingerprint)."""
        path = self._index_file(key)
        data = encode_record({"kind": "index", "key": key, "fingerprint": fingerprint})
        if _read_or_none(path) == data:
            return
        atomic_write_bytes(path, data)

    def _quarantine(self, path: Path) -> Path:
        """Move a corrupt file into ``quarantine/`` (never delete it)."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_dir / path.name
        n = 0
        while target.exists():
            n += 1
            target = self.quarantine_dir / f"{path.name}.{n}"
        os.replace(path, target)
        return target

    # -- index reading -------------------------------------------------

    def _index_entries(self):
        """Yield ``(path, payload_or_None)`` for every index file."""
        for path in sorted(self.index_dir.glob("*.json")):
            try:
                payload = decode_record(path.read_bytes())
                if (
                    payload.get("kind") != "index"
                    or not isinstance(payload.get("key"), str)
                    or not isinstance(payload.get("fingerprint"), str)
                ):
                    raise IntegrityError("shape", "index entry has wrong shape")
            except (OSError, IntegrityError):
                yield path, None
            else:
                yield path, payload

    # -- fsck ----------------------------------------------------------

    def fsck(
        self, repair: bool = False, journal_dirs: Sequence = ()
    ) -> FsckReport:
        """Verify every byte the store owns; optionally make it clean.

        Detects: torn records, checksum mismatches (bit flips), wrong
        shapes, address/fingerprint mismatches, corrupt index entries,
        index entries pointing at missing records, stray temp spill, and
        an interrupted GC (mark journal present).

        With ``repair=True`` every finding is resolved: corrupt records
        are quarantined and — when their key is recoverable and one of
        *journal_dirs* holds that trial's journal entry — restored
        byte-identical from the journal; corrupt/dangling index entries
        are removed (they rebuild on the next put); temp spill is
        deleted; an interrupted GC's sweep is completed (idempotent).
        A repaired store passes a subsequent fsck with zero findings.
        """
        report = FsckReport()

        # Key bridge first: fp -> key from valid index entries, so a
        # torn record (whose own key is unreadable) can still be traced
        # back to its journal entry for repair.
        fp_to_key: dict[str, str] = {}
        for path, payload in self._index_entries():
            if payload is None:
                finding = FsckFinding("index-corrupt", str(path))
                if repair:
                    path.unlink(missing_ok=True)
                    finding.action = "removed"
                report.findings.append(finding)
            else:
                fp_to_key[payload["fingerprint"]] = payload["key"]

        # Every record: parse, verify checksum, check shape and address.
        for path in sorted(self.objects_dir.glob("*/*.json")):
            fingerprint = path.stem
            if not _FP_RE.match(fingerprint):
                finding = FsckFinding("shape", str(path))
                if repair:
                    self._quarantine(path)
                    finding.action = "quarantined"
                report.findings.append(finding)
                continue
            report.checked += 1
            key: Optional[str] = fp_to_key.get(fingerprint)
            try:
                payload = decode_record(path.read_bytes())
                key = payload.get("key", key) if isinstance(payload, dict) else key
                self._validate_object(fingerprint, payload)
            except IntegrityError as exc:
                finding = FsckFinding(
                    exc.kind, str(path), fingerprint=fingerprint, key=key
                )
                if repair:
                    self._quarantine(path)
                    finding.action = "quarantined"
                    restored = self._restore_from_journal(
                        fingerprint, key, journal_dirs
                    )
                    if restored:
                        finding.action = "repaired"
                        report.repaired += 1
                report.findings.append(finding)

        # Stray temp spill from killed atomic writes.
        for base in (self.objects_dir, self.index_dir, self.gc_dir):
            if not base.is_dir():
                continue
            for tmp in sorted(base.rglob("*.tmp")):
                finding = FsckFinding("stray-tmp", str(tmp))
                if repair:
                    tmp.unlink(missing_ok=True)
                    finding.action = "removed"
                report.findings.append(finding)

        # Interrupted GC: a mark journal means a sweep never finished.
        if self.gc_mark_path.is_file():
            try:
                mark = decode_record(self.gc_mark_path.read_bytes())
                dead = list(mark.get("dead", []))
                if mark.get("kind") != "gc-mark":
                    raise IntegrityError("shape", "gc mark has wrong shape")
            except IntegrityError:
                finding = FsckFinding("gc-mark-corrupt", str(self.gc_mark_path))
                if repair:
                    # The mark is unreadable, so the dead set is unknown:
                    # drop the mark and keep every object.  Worst case a
                    # dead record survives (a leak, fixed by the next
                    # GC), never a live record lost.
                    self.gc_mark_path.unlink(missing_ok=True)
                    finding.action = "removed"
                report.findings.append(finding)
            else:
                finding = FsckFinding("interrupted-gc", str(self.gc_mark_path))
                if repair:
                    self._sweep(dead)
                    finding.action = "completed"
                report.findings.append(finding)

        # Index entries whose record is gone (e.g. quarantined above and
        # not restorable): remove so the index never lies.
        for path, payload in self._index_entries():
            if payload is None:
                continue  # handled (or already removed) above
            fp = payload["fingerprint"]
            if _FP_RE.match(fp) and self.object_path(fp).is_file():
                continue
            finding = FsckFinding(
                "index-dangling", str(path), fingerprint=fp, key=payload["key"]
            )
            if repair:
                path.unlink(missing_ok=True)
                finding.action = "removed"
            report.findings.append(finding)

        return report

    def _restore_from_journal(
        self, fingerprint: str, key: Optional[str], journal_dirs: Sequence
    ) -> bool:
        """Re-put a quarantined record from a journal copy, if possible.

        The restored bytes are identical to the original record's: the
        payload is the same and the encoding canonical.
        """
        if not key:
            return False
        for journal_dir in journal_dirs:
            record = read_ok_record(os.path.join(journal_dir, f"{sanitize_key(key)}.json"))
            if record is None:
                continue
            self.put(fingerprint, key, record)
            _log.info(
                "store: restored %s (%s) from journal %s",
                fingerprint[:12],
                key,
                journal_dir,
            )
            return True
        return False

    # -- gc ------------------------------------------------------------

    def gc(self, live: Iterable[str], dry_run: bool = False) -> GcReport:
        """Sweep every record whose fingerprint is not in *live*.

        Crash-safe: any previously interrupted sweep is completed first
        (counted in ``resumed``), then the new dead set is journaled to
        ``gc/mark.json`` before the first unlink.  A crash mid-sweep
        leaves the mark in place; re-running :meth:`gc` (or ``fsck
        --repair``) finishes it idempotently.  Records put after the
        mark is written are never in its dead list, so concurrent work
        survives a resumed sweep.
        """
        resumed = self.finish_gc()
        live_set = set(live)
        existing = list(self.fingerprints())
        dead = [fp for fp in existing if fp not in live_set]
        report = GcReport(
            kept=len(existing) - len(dead), dead=dead, resumed=resumed, dry_run=dry_run
        )
        if dry_run or not dead:
            return report
        mark = encode_record({"kind": "gc-mark", "dead": dead})
        atomic_write_bytes(self.gc_mark_path, mark)
        report.swept = self._sweep(dead)
        return report

    def finish_gc(self) -> int:
        """Complete an interrupted sweep, if any; return objects removed."""
        if not self.gc_mark_path.is_file():
            return 0
        try:
            mark = decode_record(self.gc_mark_path.read_bytes())
            if mark.get("kind") != "gc-mark":
                raise IntegrityError("shape", "gc mark has wrong shape")
        except IntegrityError as exc:
            raise StoreError(
                f"gc mark journal is corrupt ({exc}); run 'store fsck --repair' "
                "to clear it safely"
            )
        return self._sweep(list(mark.get("dead", [])))

    def _sweep(self, dead: Sequence[str]) -> int:
        """Idempotent sweep phase: delete exactly the marked dead set,
        prune index entries pointing into it, then retire the mark."""
        dead_set = set(dead)
        removed = 0
        for fp in sorted(dead_set):
            if not _FP_RE.match(fp):
                continue  # never let a mangled mark delete outside objects/
            try:
                self.object_path(fp).unlink()
                removed += 1
            except FileNotFoundError:
                pass
        for path, payload in self._index_entries():
            if payload is not None and payload["fingerprint"] in dead_set:
                path.unlink(missing_ok=True)
        self.gc_mark_path.unlink(missing_ok=True)
        return removed

    # -- stats ---------------------------------------------------------

    def stats(self) -> dict:
        """Durable facts plus this session's probe/put telemetry."""
        sizes = [p.stat().st_size for p in self.objects_dir.glob("*/*.json")]
        quarantined = (
            sum(1 for _ in self.quarantine_dir.iterdir())
            if self.quarantine_dir.is_dir()
            else 0
        )
        return {
            "root": str(self.root),
            "records": len(sizes),
            "bytes": sum(sizes),
            "index_entries": sum(1 for _ in self.index_dir.glob("*.json")),
            "quarantined": quarantined,
            "gc_in_progress": self.gc_mark_path.is_file(),
            "session": {
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "identical": self.identical,
            },
        }
