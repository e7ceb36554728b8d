"""TrialSpec/TrialRunner: the determinism-under-parallelism contract.

A campaign at ``--jobs N`` must produce bit-identical results and
byte-identical journals to a serial run — including when trials fail or
time out.  These tests pin that contract end to end, plus the runner's
own semantics (spec-order merge, journal short-circuit, duplicate-key
rejection, failure surfacing).
"""

import multiprocessing
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analytic.model import AllreduceSeriesModel
from repro.checkpoint.harness import SweepJournal, TrialFailure
from repro.experiments.common import PROTO16, VANILLA16, allreduce_sweep
from repro.experiments.runner import TrialRunner, TrialSpec, resolve_trial_fn
from repro.results import save_result
from tests.test_harness_resume import _legacy_entry, _ok

SWEEP_KW = dict(proc_counts=(128, 256), n_calls=40, n_seeds=2)

#: Monkeypatched sabotage only reaches worker processes under fork.
fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="failure injection into workers needs the fork start method",
)


def _journal_files(root) -> dict[str, bytes]:
    """Canonical journal contents as {filename: bytes}; only the parent
    writes the journal, so no ``shards/`` directory may exist at all."""
    jdir = Path(root) / "journal"
    assert not (jdir / "shards").exists(), "journal shards directory exists"
    return {p.name: p.read_bytes() for p in sorted(jdir.glob("*.json"))}


def _double_trial(params):
    """Minimal deterministic trial used by the runner-semantics tests."""
    return {"twice": params["x"] * 2}


def _boom_trial(params):
    raise RuntimeError(f"boom-{params['x']}")


def _sleepy_trial(params):
    time.sleep(5.0)
    return {}


class TestRunnerSemantics:
    def test_outcomes_in_spec_order(self):
        specs = [
            TrialSpec(f"t{i}", "tests.test_runner:_double_trial", {"x": i})
            for i in (3, 1, 2)
        ]
        outs = TrialRunner().run(specs)
        assert [o.key for o in outs] == ["t3", "t1", "t2"]
        assert [o.record["twice"] for o in outs] == [6, 2, 4]

    def test_duplicate_keys_rejected(self):
        specs = [
            TrialSpec("same", "tests.test_runner:_double_trial", {"x": 1}),
            TrialSpec("same", "tests.test_runner:_double_trial", {"x": 2}),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            TrialRunner().run(specs)

    def test_failure_becomes_outcome_not_crash(self):
        outs = TrialRunner().run(
            [TrialSpec("bad", "tests.test_runner:_boom_trial", {"x": 7})]
        )
        assert not outs[0].ok
        assert "RuntimeError: boom-7" in outs[0].error
        with pytest.raises(TrialFailure, match="bad"):
            outs[0].require()

    def test_journal_short_circuits_and_marks_cached(self, tmp_path):
        journal = SweepJournal(tmp_path)
        journal.record("t1", {"twice": 999})  # pre-cooked, wrong on purpose
        outs = TrialRunner(journal=journal).run(
            [
                TrialSpec("t1", "tests.test_runner:_double_trial", {"x": 1}),
                TrialSpec("t2", "tests.test_runner:_double_trial", {"x": 2}),
            ]
        )
        assert outs[0].cached and outs[0].record == {"twice": 999}
        assert not outs[1].cached and outs[1].record == {"twice": 4}
        assert journal.hits == 1

    def test_failure_traceback_captured_into_outcome_and_journal(self, tmp_path):
        journal = SweepJournal(tmp_path)
        outs = TrialRunner(journal=journal).run(
            [TrialSpec("bad", "tests.test_runner:_boom_trial", {"x": 7})]
        )
        tb = outs[0].traceback
        assert tb is not None
        # The trial function's own frame survives; the runner/watchdog
        # machinery frames are stripped.
        assert "_boom_trial" in tb and tb.rstrip().endswith("RuntimeError: boom-7")
        assert "_run_one" not in tb and "trial_watchdog" not in tb
        entry = journal.entries()["bad"]
        assert entry["status"] == "failed" and entry["traceback"] == tb

    def test_success_and_timeout_have_no_traceback(self):
        ok = TrialRunner().run(
            [TrialSpec("ok", "tests.test_runner:_double_trial", {"x": 1})]
        )[0]
        assert ok.traceback is None
        slow = TrialRunner(trial_timeout_s=0.2).run(
            [TrialSpec("slow", "tests.test_runner:_sleepy_trial", {})]
        )[0]
        assert not slow.ok and slow.traceback is None

    @fork_only
    def test_supervised_traceback_identical_to_serial(self, tmp_path):
        specs = [
            TrialSpec(f"bad{i}", "tests.test_runner:_boom_trial", {"x": i})
            for i in range(3)
        ]
        serial = TrialRunner().run(specs)
        parallel = TrialRunner(jobs=3).run(specs)
        assert [o.traceback for o in serial] == [o.traceback for o in parallel]
        assert all(o.traceback for o in serial)

    def test_resolve_trial_fn_rejects_bad_refs(self):
        with pytest.raises(ValueError):
            resolve_trial_fn("no_colon_here")
        with pytest.raises(ModuleNotFoundError):
            resolve_trial_fn("definitely.not.a.module:fn")

    def test_parallel_supervised_runs_all_trials(self):
        specs = [
            TrialSpec(f"t{i}", "tests.test_runner:_double_trial", {"x": i})
            for i in range(6)
        ]
        outs = TrialRunner(jobs=3).run(specs)
        assert [o.record["twice"] for o in outs] == [0, 2, 4, 6, 8, 10]

    def test_only_the_supervised_backend_is_accepted(self):
        TrialRunner(backend="supervised")
        with pytest.raises(ValueError, match="backend"):
            TrialRunner(backend="pool")


class TestParallelEqualsSerial:
    def test_sweep_results_and_journals_byte_identical(self, tmp_path):
        """The acceptance criterion: --jobs 4 == --jobs 1, bit for bit,
        through result arrays, saved JSON, and journal contents."""
        serial = allreduce_sweep(
            PROTO16, **SWEEP_KW, runner=TrialRunner(jobs=1, journal=SweepJournal(tmp_path / "s"))
        )
        parallel = allreduce_sweep(
            PROTO16, **SWEEP_KW, runner=TrialRunner(jobs=4, journal=SweepJournal(tmp_path / "p"))
        )
        assert np.array_equal(serial.mean_us, parallel.mean_us)
        assert np.array_equal(serial.run_std_us, parallel.run_std_us)
        assert np.array_equal(serial.call_std_us, parallel.call_std_us)
        assert serial.failed_points == parallel.failed_points == []
        save_result(tmp_path / "serial.json", serial)
        save_result(tmp_path / "parallel.json", parallel)
        assert (tmp_path / "serial.json").read_bytes() == (
            tmp_path / "parallel.json"
        ).read_bytes()
        assert _journal_files(tmp_path / "s") == _journal_files(tmp_path / "p")

    @fork_only
    def test_injected_failures_identical_both_ways(self, tmp_path, monkeypatch):
        """Trials that blow up must land in the same failed_points, the
        same NaN holes, and byte-identical failure journal entries
        whether they die in-process or in a supervised worker."""
        real = AllreduceSeriesModel.run_series

        def sabotaged(self, *a, **kw):
            if self.n == 256:
                raise RuntimeError("boom")
            return real(self, *a, **kw)

        monkeypatch.setattr(AllreduceSeriesModel, "run_series", sabotaged)
        serial = allreduce_sweep(
            VANILLA16, **SWEEP_KW, runner=TrialRunner(jobs=1, journal=SweepJournal(tmp_path / "s"))
        )
        parallel = allreduce_sweep(
            VANILLA16, **SWEEP_KW, runner=TrialRunner(jobs=4, journal=SweepJournal(tmp_path / "p"))
        )
        assert serial.failed_points == parallel.failed_points == [
            "vanilla16-n256-s0",
            "vanilla16-n256-s1",
        ]
        assert np.isnan(parallel.mean_us[1]) and not np.isnan(parallel.mean_us[0])
        assert np.array_equal(serial.mean_us, parallel.mean_us, equal_nan=True)
        files = _journal_files(tmp_path / "p")
        assert _journal_files(tmp_path / "s") == files
        import json

        entry = json.loads(files["vanilla16-n256-s0.json"])
        assert entry["status"] == "failed" and "boom" in entry["reason"]

    @fork_only
    def test_injected_timeouts_identical_both_ways(self, tmp_path, monkeypatch):
        """The per-trial watchdog fires inside supervised workers too (SIGALRM
        on the worker's main thread) and journals the same record."""
        real = AllreduceSeriesModel.run_series

        def wedged(self, *a, **kw):
            if self.n == 256:
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    pass
            return real(self, *a, **kw)

        monkeypatch.setattr(AllreduceSeriesModel, "run_series", wedged)
        serial = allreduce_sweep(VANILLA16, **SWEEP_KW, runner=TrialRunner(
            jobs=1, journal=SweepJournal(tmp_path / "s"), trial_timeout_s=0.2
        ))
        parallel = allreduce_sweep(VANILLA16, **SWEEP_KW, runner=TrialRunner(
            jobs=2, journal=SweepJournal(tmp_path / "p"), trial_timeout_s=0.2
        ))
        assert serial.failed_points == parallel.failed_points == [
            "vanilla16-n256-s0",
            "vanilla16-n256-s1",
        ]
        assert _journal_files(tmp_path / "s") == _journal_files(tmp_path / "p")

    def test_parallel_resume_from_serial_journal(self, tmp_path):
        """A journal written serially resumes under --jobs N (and vice
        versa): everything already recorded is served from disk."""
        journal = SweepJournal(tmp_path)
        first = allreduce_sweep(PROTO16, **SWEEP_KW, runner=TrialRunner(jobs=1, journal=journal))
        resumed_journal = SweepJournal(tmp_path)
        resumed = allreduce_sweep(
            PROTO16, **SWEEP_KW, runner=TrialRunner(jobs=4, journal=resumed_journal)
        )
        assert resumed_journal.hits == 4  # every trial came from the journal
        assert np.array_equal(first.mean_us, resumed.mean_us)


class TestShardedJournal:
    """The runner-facing view of a legacy ``journal/shards/`` tree: what
    an older version's workers left behind is served (or retried) like
    any canonical entry once the journal is opened."""

    def test_merge_on_read_folds_shards(self, tmp_path):
        _legacy_entry(tmp_path, "w1", "k1", _ok({"mean_us": 1.0}))
        _legacy_entry(tmp_path, "w2", "k2", {"status": "failed", "reason": "boom",
                                             "taxonomy": None, "traceback": None})
        reader = SweepJournal(tmp_path)
        assert reader.lookup("k1") == {"mean_us": 1.0}
        assert reader.lookup("k2") is None  # failures retried, not served
        assert (tmp_path / "journal" / "k1.json").is_file()
        assert (tmp_path / "journal" / "k2.json").is_file()
        assert not (tmp_path / "journal" / "shards").exists()

    def test_merged_bytes_equal_direct_writes(self, tmp_path):
        _legacy_entry(tmp_path / "a", "w9", "k", _ok({"mean_us": 2.5}))
        SweepJournal(tmp_path / "b").record("k", {"mean_us": 2.5})
        merged = SweepJournal(tmp_path / "a")
        assert merged.entries() == SweepJournal(tmp_path / "b").entries()
        assert (tmp_path / "a" / "journal" / "k.json").read_bytes() == (
            tmp_path / "b" / "journal" / "k.json"
        ).read_bytes()

    def test_clear_removes_shards_too(self, tmp_path):
        _legacy_entry(tmp_path, "w1", "k1", _ok({"mean_us": 1.0}))
        journal = SweepJournal(tmp_path)
        journal.clear()
        assert journal.lookup("k1") is None
        assert list((tmp_path / "journal").glob("*.json")) == []
        assert not (tmp_path / "journal" / "shards").exists()
