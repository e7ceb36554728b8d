"""Crash-safe experiment harness: journal resume, folding a legacy
journal-shard tree, failure holes, the wall-clock trial watchdog, and
atomic result writes."""

import json
import logging
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analytic.model import AllreduceSeriesModel
from repro.checkpoint.harness import SweepJournal, TrialTimeout, trial_watchdog
from repro.experiments.common import PROTO16, VANILLA16, allreduce_sweep
from repro.experiments.runner import TrialRunner, TrialSpec
from repro.results import load_result, save_result

COUNTS = (128, 256)
SWEEP_KW = dict(proc_counts=COUNTS, n_calls=50, n_seeds=2)


def _double_trial(params):
    return {"twice": params["x"] * 2}


def _specs(n):
    return [
        TrialSpec(f"t{i}", "tests.test_harness_resume:_double_trial", {"x": i})
        for i in range(n)
    ]


def _ok(record: dict) -> dict:
    return {"status": "ok", "record": record}


class TestJournalResume:
    def test_resumed_sweep_is_bit_identical(self, tmp_path):
        """Kill the campaign after the first count; the resumed sweep
        serves finished trials from the journal and lands exactly equal
        to a sweep that never stopped."""
        allreduce_sweep(PROTO16, proc_counts=COUNTS[:1], n_calls=50, n_seeds=2,
                        runner=TrialRunner(journal=SweepJournal(tmp_path)))

        resumed_journal = SweepJournal(tmp_path)
        resumed = allreduce_sweep(PROTO16, **SWEEP_KW, runner=TrialRunner(journal=resumed_journal))
        uninterrupted = allreduce_sweep(PROTO16, **SWEEP_KW)

        assert resumed_journal.hits == 2  # one count × two seeds skipped
        assert np.array_equal(resumed.mean_us, uninterrupted.mean_us)
        assert np.array_equal(resumed.run_std_us, uninterrupted.run_std_us)
        assert np.array_equal(resumed.call_std_us, uninterrupted.call_std_us)

    def test_full_journal_skips_everything(self, tmp_path):
        first = allreduce_sweep(
            PROTO16, **SWEEP_KW, runner=TrialRunner(journal=SweepJournal(tmp_path))
        )
        j = SweepJournal(tmp_path)
        again = allreduce_sweep(PROTO16, **SWEEP_KW, runner=TrialRunner(journal=j))
        assert j.hits == len(COUNTS) * 2
        assert np.array_equal(first.mean_us, again.mean_us)

    def test_torn_journal_entry_is_recomputed(self, tmp_path):
        allreduce_sweep(PROTO16, **SWEEP_KW, runner=TrialRunner(journal=SweepJournal(tmp_path)))
        j = SweepJournal(tmp_path)
        victim = sorted(j.dir.glob("*.json"))[0]
        victim.write_text('{"status": "ok", "rec')  # torn mid-write
        assert j.lookup(victim.stem) is None
        again = allreduce_sweep(PROTO16, **SWEEP_KW, runner=TrialRunner(journal=j))
        assert j.hits == len(COUNTS) * 2 - 1  # the torn one recomputed
        uninterrupted = allreduce_sweep(PROTO16, **SWEEP_KW)
        assert np.array_equal(again.mean_us, uninterrupted.mean_us)

    def test_non_utf8_entry_is_a_miss(self, tmp_path):
        """A byte that is not UTF-8 tears an entry like a truncation does:
        the lookup misses and the trial is recomputed and rewritten."""
        j = SweepJournal(tmp_path)
        j.record("t1", {"twice": 2})
        path = j.dir / "t1.json"
        data = bytearray(path.read_bytes())
        data[data.index(b"2")] = 0xFF
        path.write_bytes(bytes(data))
        assert j.lookup("t1") is None
        assert j.hits == 0
        outs = TrialRunner(journal=j).run(_specs(2))
        assert [o.cached for o in outs] == [False, False]
        assert json.loads(path.read_text()) == _ok({"twice": 2})

    def test_entries_skips_a_non_utf8_entry(self, tmp_path):
        j = SweepJournal(tmp_path)
        j.record("good", {"v": 1})
        (j.dir / "bad.json").write_bytes(b'{"status": "ok", "record": {"v": "\xff"}}')
        assert j.entries() == {"good": _ok({"v": 1})}

    @pytest.mark.parametrize("record", [None, [1, 2]], ids=["null", "list"])
    def test_ok_entry_without_a_dict_record_is_recomputed(self, tmp_path, record):
        """An ``ok`` entry whose record is not a dict is as good as torn:
        no resume hit, and the runner reruns the trial and rewrites it."""
        j = SweepJournal(tmp_path)
        path = j.dir / "t1.json"
        path.write_text(json.dumps({"status": "ok", "record": record}))
        assert j.lookup("t1") is None
        assert j.hits == 0
        outs = TrialRunner(journal=j).run(_specs(2))
        assert [o.record["twice"] for o in outs] == [0, 2]
        assert not any(o.cached for o in outs)
        assert j.hits == 0
        assert json.loads(path.read_text()) == _ok({"twice": 2})

    def test_clear_resets_the_journal(self, tmp_path):
        j = SweepJournal(tmp_path)
        j.record("k", {"mean_us": 1.0, "std_us": 0.0})
        assert j.lookup("k") is not None
        j.clear()
        assert j.lookup("k") is None
        assert list(j.dir.glob("*.json")) == []


def _legacy_shard_file(root, shard: str, name: str, text: str) -> Path:
    """Plant *text* as ``journal/shards/<shard>/<name>`` — the tree an
    older version's parallel workers left behind after a hard kill."""
    shard_dir = Path(root) / "journal" / "shards" / shard
    shard_dir.mkdir(parents=True, exist_ok=True)
    path = shard_dir / name
    path.write_text(text)
    return path


def _legacy_entry(root, shard: str, key: str, entry: dict) -> Path:
    """A whole legacy shard entry, in the journal's own JSON format."""
    return _legacy_shard_file(
        root, shard, f"{key}.json", json.dumps(entry, indent=1, sort_keys=True)
    )


class TestShardMergeHardening:
    """Opening a journal folds a legacy ``journal/shards/`` tree into it:
    torn or misshapen shard entries are dropped (and logged) instead of
    raising or clobbering good canonical entries, their trials are
    recomputed, and no shard directory survives."""

    def test_opening_the_journal_folds_legacy_shards(self, tmp_path):
        _legacy_entry(tmp_path, "w1", "k", _ok({"v": 1}))
        j = SweepJournal(tmp_path)
        # Folded by the constructor, before any lookup runs.
        assert (tmp_path / "journal" / "k.json").is_file()
        assert not j.shards_dir.exists()
        assert j.lookup("k") == {"v": 1}
        assert j.hits == 1

    def test_trailing_garbage_entry_is_dropped_and_logged(self, tmp_path, caplog):
        _legacy_entry(tmp_path, "w1", "good", _ok({"v": 1}))
        _legacy_shard_file(
            tmp_path, "w1", "bad.json",
            '{"status": "ok", "record": {"v": 2}}trailing-garbage',
        )
        with caplog.at_level(logging.WARNING, logger="repro.harness"):
            j = SweepJournal(tmp_path)
        assert j.lookup("good") == {"v": 1}
        assert j.lookup("bad") is None
        assert "dropping corrupt shard entry" in caplog.text
        assert "bad.json" in caplog.text
        assert "dropped 1 torn/corrupt shard entry" in caplog.text
        assert not j.shards_dir.exists()

    def test_non_utf8_shard_entry_is_dropped_and_logged(self, tmp_path, caplog):
        _legacy_entry(tmp_path, "w1", "good", _ok({"v": 1}))
        bad = _legacy_shard_file(tmp_path, "w1", "bad.json", "")
        bad.write_bytes(b'{"status": "ok", "record": {"v": "\xff"}}')
        with caplog.at_level(logging.WARNING, logger="repro.harness"):
            j = SweepJournal(tmp_path)
        assert j.lookup("good") == {"v": 1}
        assert j.lookup("bad") is None
        assert "dropped 1 torn/corrupt shard entry" in caplog.text
        assert not j.shards_dir.exists()

    def test_valid_json_wrong_shape_entries_are_dropped(self, tmp_path, caplog):
        _legacy_shard_file(tmp_path, "w1", "no-record.json", '{"status": "ok"}')
        _legacy_shard_file(tmp_path, "w1", "null-record.json",
                           '{"status": "ok", "record": null}')
        _legacy_shard_file(tmp_path, "w1", "a-list.json", '[1, 2, 3]')
        _legacy_shard_file(tmp_path, "w1", "odd-status.json",
                           '{"status": "maybe", "record": {}}')
        with caplog.at_level(logging.WARNING, logger="repro.harness"):
            j = SweepJournal(tmp_path)
        for stem in ("no-record", "null-record", "a-list", "odd-status"):
            assert j.lookup(stem) is None
        assert list(j.dir.glob("*.json")) == []
        assert "wrong entry shape" in caplog.text
        assert "dropped 4 torn/corrupt shard entries" in caplog.text

    def test_corrupt_shard_never_clobbers_canonical_entry(self, tmp_path):
        """A good canonical entry must survive a same-key torn shard file
        — the merge validates before it replaces."""
        SweepJournal(tmp_path).record("k", {"mean_us": 42.0})
        before = (tmp_path / "journal" / "k.json").read_bytes()
        _legacy_shard_file(tmp_path, "w999", "k.json", '{"status": "ok", "rec')
        assert SweepJournal(tmp_path).lookup("k") == {"mean_us": 42.0}
        assert (tmp_path / "journal" / "k.json").read_bytes() == before

    def test_stray_shard_files_are_swept_with_the_dirs(self, tmp_path):
        _legacy_entry(tmp_path, "w1", "k", _ok({"v": 1}))
        _legacy_shard_file(tmp_path, "w1", ".k.json.abc123.tmp", '{"status": "ok"')
        _legacy_shard_file(tmp_path, "w7", "scratch.txt", "left by a dying worker")
        j = SweepJournal(tmp_path)
        assert j.lookup("k") == {"v": 1}
        assert not j.shards_dir.exists()

    def test_two_pid_shards_merge_to_the_direct_write_bytes(self, tmp_path):
        failed = {"status": "failed", "reason": "boom", "taxonomy": None,
                  "traceback": None}
        _legacy_entry(tmp_path / "merged", "w100", "k1", _ok({"v": 1}))
        _legacy_entry(tmp_path / "merged", "w200", "k2", failed)
        # Deterministic trials: a key finished by both workers carries
        # identical bytes, so last-writer-wins is harmless.
        _legacy_entry(tmp_path / "merged", "w100", "shared", _ok({"v": 3}))
        _legacy_entry(tmp_path / "merged", "w200", "shared", _ok({"v": 3}))
        merged = SweepJournal(tmp_path / "merged")
        assert merged.lookup("k2") is None  # failures retried, not served

        direct = SweepJournal(tmp_path / "direct")
        direct.record("k1", {"v": 1})
        direct.record_failure("k2", "boom")
        direct.record("shared", {"v": 3})
        assert {p.name: p.read_bytes() for p in sorted(merged.dir.glob("*.json"))} == {
            p.name: p.read_bytes() for p in sorted(direct.dir.glob("*.json"))
        }
        assert not merged.shards_dir.exists()

    def test_merge_is_idempotent(self, tmp_path):
        j = SweepJournal(tmp_path)
        _legacy_entry(tmp_path, "w1", "k", _ok({"v": 1}))
        assert j.merge_shards() == 1
        assert j.merge_shards() == 0
        assert SweepJournal(tmp_path).merge_shards() == 0
        assert j.lookup("k") == {"v": 1}

    def test_trial_behind_torn_shard_is_recomputed(self, tmp_path):
        """Resume over a journal holding a half-written shard entry: the
        torn trial reruns, lands whole, and the sweep matches clean."""
        _legacy_shard_file(tmp_path, "w999", "t1.json", '{"status": "ok", "rec')
        journal = SweepJournal(tmp_path)
        outs = TrialRunner(journal=journal).run(_specs(3))
        assert [o.record["twice"] for o in outs] == [0, 2, 4]
        assert not any(o.cached for o in outs)
        assert json.loads(
            (tmp_path / "journal" / "t1.json").read_text()
        ) == _ok({"twice": 2})


class TestFailedTrials:
    def test_failed_trial_leaves_a_nan_hole(self, tmp_path, monkeypatch):
        """A count whose every seed blows up yields NaN in the arrays and
        named keys in failed_points — the campaign finishes anyway."""
        real = AllreduceSeriesModel.run_series

        def sabotaged(self, *a, **kw):
            if self.n == 256:
                raise RuntimeError("boom")
            return real(self, *a, **kw)

        monkeypatch.setattr(AllreduceSeriesModel, "run_series", sabotaged)
        j = SweepJournal(tmp_path)
        res = allreduce_sweep(VANILLA16, **SWEEP_KW, runner=TrialRunner(journal=j))
        assert sorted(res.failed_points) == [
            "vanilla16-n256-s0", "vanilla16-n256-s1",
        ]
        assert np.isnan(res.mean_us[1]) and not np.isnan(res.mean_us[0])
        # The failure is journaled for forensics...
        entries = j.entries()
        assert entries["vanilla16-n256-s0"]["status"] == "failed"
        assert "boom" in entries["vanilla16-n256-s0"]["reason"]

    def test_failed_trials_are_retried_on_resume(self, tmp_path, monkeypatch):
        real = AllreduceSeriesModel.run_series

        def flaky(self, *a, **kw):
            if self.n == 256:
                raise RuntimeError("transient")
            return real(self, *a, **kw)

        monkeypatch.setattr(AllreduceSeriesModel, "run_series", flaky)
        allreduce_sweep(VANILLA16, **SWEEP_KW, runner=TrialRunner(journal=SweepJournal(tmp_path)))
        monkeypatch.setattr(AllreduceSeriesModel, "run_series", real)

        # ... environment fixed: the resume recomputes only the failures.
        j = SweepJournal(tmp_path)
        resumed = allreduce_sweep(VANILLA16, **SWEEP_KW, runner=TrialRunner(journal=j))
        assert j.hits == 2  # the n=128 seeds came from the journal
        assert resumed.failed_points == []
        uninterrupted = allreduce_sweep(VANILLA16, **SWEEP_KW)
        assert np.array_equal(resumed.mean_us, uninterrupted.mean_us)


class TestTrialWatchdog:
    def test_timeout_raises_trialtimeout(self):
        if not hasattr(signal, "SIGALRM"):
            pytest.skip("no SIGALRM on this platform")
        deadline = time.monotonic() + 30.0
        with pytest.raises(TrialTimeout):
            with trial_watchdog(0.1):
                while time.monotonic() < deadline:
                    pass  # wedged trial; the watchdog must break the loop
        assert time.monotonic() < deadline  # escaped long before 30s

    def test_no_budget_is_a_noop(self):
        with trial_watchdog(None):
            pass
        with trial_watchdog(0):
            pass

    def test_timer_is_restored_after_the_trial(self):
        if not hasattr(signal, "SIGALRM"):
            pytest.skip("no SIGALRM on this platform")
        with trial_watchdog(5.0):
            pass
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class TestAtomicSaveResult:
    def test_crash_mid_write_preserves_the_old_file(self, tmp_path, monkeypatch):
        """Simulate dying halfway through serialisation: the previously
        saved result must survive untouched and no temp litter remains."""
        path = tmp_path / "sweep.json"
        res = allreduce_sweep(PROTO16, proc_counts=(128,), n_calls=20, n_seeds=1)
        save_result(path, res)
        before = path.read_bytes()

        def dies_mid_write(obj, fh, **kw):
            fh.write('{"type": "SweepResult", "fields": {"scen')
            raise OSError("disk gone")

        monkeypatch.setattr("repro.results.json.dump", dies_mid_write)
        with pytest.raises(OSError):
            save_result(path, res)
        assert path.read_bytes() == before  # old file intact, not torn
        assert list(tmp_path.glob("*.tmp")) == []
        assert list(tmp_path.glob(".sweep.json.*")) == []

    def test_round_trip(self, tmp_path):
        path = tmp_path / "sweep.json"
        res = allreduce_sweep(PROTO16, proc_counts=(128,), n_calls=20, n_seeds=1)
        save_result(path, res)
        loaded = load_result(path)
        assert np.array_equal(loaded.mean_us, res.mean_us)
        assert loaded.scenario == res.scenario
        assert loaded.failed_points == []
