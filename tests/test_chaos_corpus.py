"""Regression corpus replay: every minimized schedule under
``tests/chaos_corpus/`` must reproduce its recorded oracle verdict.

Each corpus entry is a JSON counterexample the chaos campaign found and
ddmin-minimized (or a survival regression — a hard schedule the system
is expected to ride out).  Entries record which planted demo bug (if
any) they reproduce under; the replay restores that environment per
entry, so a fix that regresses — or a planted-bug guard that breaks —
fails here, deterministically, without re-running the fuzzer."""

import glob
import os

import pytest

from repro.chaos.campaign import load_corpus_entry, replay_corpus_entry
from repro.faults.demo import ENV_VAR, KNOWN_BUGS

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "chaos_corpus")
ENTRIES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def test_corpus_is_not_empty():
    assert ENTRIES, "chaos corpus missing — regenerate with the chaos CLI"


@pytest.mark.parametrize("path", ENTRIES, ids=[os.path.basename(p) for p in ENTRIES])
def test_corpus_entry_replays_to_recorded_verdict(path, monkeypatch):
    entry = load_corpus_entry(path)
    bug = entry.get("demo_bug", "")
    assert bug == "" or bug in KNOWN_BUGS
    if bug:
        monkeypatch.setenv(ENV_VAR, bug)
    else:
        monkeypatch.delenv(ENV_VAR, raising=False)
    matches, report = replay_corpus_entry(path)
    assert matches, (
        f"{os.path.basename(path)} expected {entry['expect']} "
        f"but replayed to failed={list(report.failed)}"
    )
