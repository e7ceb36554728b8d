"""Operational CLI for the result store: ``fsck``, ``gc``, ``stats``, ``chaos``.

Reachable two ways — standalone (``python -m repro.store ...``) and as a
subcommand family of the experiments CLI (``... -m repro.experiments.cli
store ...``), so the store is operable from the same entry point that
fills it.

* ``fsck [--repair] [--journal DIR]...`` — verify every byte; with
  ``--repair``, quarantine/restore/complete until the store is clean.
  Exit 0 iff the store is clean (or every finding was resolved).
* ``gc (--live-from DIR)... [--dry-run]`` / ``gc --resume`` — sweep
  records not reachable from the given journals; crash-safe via the mark
  journal, ``--resume`` just completes an interrupted sweep.
* ``stats`` — durable store facts as ``key=value`` lines.
* ``chaos --chaos-seed N`` — deterministically damage the store
  (torn/bit-flip/dup per fingerprint, plus one crash-mid-GC) and print a
  manifest; ``tests/test_contract.py`` then proves fsck detects and
  repairs it all.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.chaos.harness_faults import (
    inject_interrupted_gc,
    inject_store_fault,
    store_plan_for,
)
from repro.store.store import ResultStore, StoreError

__all__ = ["main", "build_parser"]


def _journal_dir(path) -> Path:
    """Accept either a journal directory or a results root containing one."""
    path = Path(path)
    nested = path / "journal"
    return nested if nested.is_dir() else path


def _open_store(args) -> ResultStore:
    root = Path(args.store)
    if not root.is_dir():
        raise SystemExit(f"error: store directory {root} does not exist")
    return ResultStore(root)


def build_parser() -> argparse.ArgumentParser:
    """The ``fsck | gc | stats | chaos`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-store",
        description="Inspect, verify, repair, and garbage-collect a result store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_store_arg(p):
        p.add_argument(
            "--store", required=True, metavar="DIR", help="store root directory"
        )

    p_fsck = sub.add_parser("fsck", help="verify every record, index entry, and GC state")
    add_store_arg(p_fsck)
    p_fsck.add_argument(
        "--repair",
        action="store_true",
        help="quarantine corrupt records (restoring from journals where "
        "possible), drop bad index entries, complete interrupted GC",
    )
    p_fsck.add_argument(
        "--journal",
        action="append",
        default=[],
        metavar="DIR",
        help="journal directory (or results root) to restore records from; repeatable",
    )

    p_gc = sub.add_parser("gc", help="sweep records not referenced by the given journals")
    add_store_arg(p_gc)
    p_gc.add_argument(
        "--live-from",
        action="append",
        default=[],
        metavar="DIR",
        help="journal directory (or results root) whose trials are live; repeatable",
    )
    p_gc.add_argument(
        "--resume",
        action="store_true",
        help="only complete a previously interrupted sweep, mark nothing new dead",
    )
    p_gc.add_argument(
        "--dry-run", action="store_true", help="report what would be swept, delete nothing"
    )

    p_stats = sub.add_parser("stats", help="print store facts as key=value lines")
    add_store_arg(p_stats)

    p_chaos = sub.add_parser(
        "chaos", help="deterministically corrupt the store for fsck/repair drills"
    )
    add_store_arg(p_chaos)
    p_chaos.add_argument(
        "--chaos-seed", type=int, required=True, help="seed for the per-fingerprint fault plans"
    )
    return parser


def _cmd_fsck(args) -> int:
    store = _open_store(args)
    journal_dirs = [_journal_dir(d) for d in args.journal]
    report = store.fsck(repair=args.repair, journal_dirs=journal_dirs)
    for f in report.findings:
        where = f.key or (f.fingerprint[:12] + "…" if f.fingerprint else "")
        print(f"fsck: {f.kind}: {f.path}" + (f" [{where}]" if where else "") + f" -> {f.action}")
    print(report.summary())
    if report.clean:
        return 0
    return 0 if (args.repair and report.resolved) else 1


def _live_fingerprints(store: ResultStore, journal_dirs: Sequence[Path]) -> set:
    """Fingerprints of every trial journaled in *journal_dirs*.

    Journal files and store index entries share sanitized-key names, so
    the index bridges journal keys to fingerprints with no spec in hand.
    """
    index_by_name = {}
    for path, payload in store._index_entries():
        if payload is not None:
            index_by_name[path.name] = payload["fingerprint"]
    live = set()
    for journal_dir in journal_dirs:
        for entry in sorted(Path(journal_dir).glob("*.json")):
            fp = index_by_name.get(entry.name)
            if fp is not None:
                live.add(fp)
    return live


def _cmd_gc(args) -> int:
    store = _open_store(args)
    if args.resume:
        if args.live_from or args.dry_run:
            raise SystemExit("error: --resume takes no --live-from/--dry-run")
        removed = store.finish_gc()
        print(f"gc: resumed interrupted sweep, removed {removed} record(s)"
              if removed else "gc: no interrupted sweep to resume")
        return 0
    if not args.live_from:
        raise SystemExit("error: gc needs --live-from DIR (or --resume); refusing "
                         "to treat an empty live set as 'sweep everything' implicitly")
    live = _live_fingerprints(store, [_journal_dir(d) for d in args.live_from])
    report = store.gc(live, dry_run=args.dry_run)
    print(report.summary())
    return 0


def _cmd_stats(args) -> int:
    stats = _open_store(args).stats()
    session = stats.pop("session")
    for k, v in stats.items():
        print(f"{k}={v}")
    for k, v in session.items():
        print(f"session.{k}={v}")
    return 0


def _cmd_chaos(args) -> int:
    store = _open_store(args)
    fingerprints = list(store.fingerprints())
    if not fingerprints:
        raise SystemExit("error: store has no records to corrupt")
    corrupted = 0
    dup = 0
    for fp in fingerprints:
        plan = store_plan_for(args.chaos_seed, fp)
        if plan.mode is None:
            continue
        inject_store_fault(store, fp, plan.mode)
        if plan.mode == "dup":
            dup += 1
        else:
            corrupted += 1
        print(f"store-chaos: {plan.mode} {fp[:12]}…")
    if corrupted == 0:
        # The drill must always have something for fsck to find.
        fp = fingerprints[0]
        inject_store_fault(store, fp, "torn")
        corrupted += 1
        print(f"store-chaos: torn {fp[:12]}… (forced: plan drew no corruption)")
    bait = inject_interrupted_gc(store, args.chaos_seed)
    print(f"store-chaos: interrupted-gc bait {bait[:12]}…")
    print(f"store-chaos: corrupted={corrupted} dup={dup} gc_crash=1")
    return 0


_COMMANDS = {"fsck": _cmd_fsck, "gc": _cmd_gc, "stats": _cmd_stats, "chaos": _cmd_chaos}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code (0 = clean/success)."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
