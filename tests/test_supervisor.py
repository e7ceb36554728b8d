"""The supervised backend: heartbeats, crash/hang recovery, deterministic
retry/backoff, quarantine, harness chaos, graceful SIGINT drain, and the
parent as the journal's only writer (workers never create journal shards).

The headline contract these tests pin: a supervised campaign — *including
one whose workers are deliberately killed by harness chaos* — produces
results and journals byte-identical to a clean serial run, at any worker
count.
"""

import json
import logging
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.chaos.harness_faults import injection_for, plan_for
from repro.checkpoint.harness import SweepJournal
from repro.experiments.common import PROTO16, allreduce_sweep
from repro.experiments.runner import TrialRunner, TrialSpec
from repro.experiments.supervisor import SupervisorConfig
from repro.results import save_result
from tests.test_harness_resume import _legacy_entry, _legacy_shard_file, _ok
from tests.test_runner import _journal_files

SWEEP_KW = dict(proc_counts=(128, 256), n_calls=40, n_seeds=2)
#: The four trial keys SWEEP_KW produces for PROTO16, in spec order.
SWEEP_KEYS = [f"proto16-n{n}-s{s}" for n in (128, 256) for s in (0, 1)]
#: Chosen so the four keys' plans cover crash/pre, crash/mid AND hang
#: (asserted below) while every injected fault stays transient.
CHAOS_SEED = 7

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker-kill tests rely on the fork start method",
)


def fast_config(**overrides) -> SupervisorConfig:
    """Supervisor policy scaled down to test time: tight heartbeats so
    hang detection is fast, near-zero backoff so retries are cheap."""
    kw = dict(backoff_base_s=0.01, heartbeat_interval_s=0.05,
              heartbeat_timeout_s=1.0)
    kw.update(overrides)
    return SupervisorConfig(**kw)


def _double_trial(params):
    return {"twice": params["x"] * 2}


def _poison_trial(params):
    """Kills every worker that touches it — the quarantine case."""
    os._exit(1)


def _slow_trial(params):
    time.sleep(params["sleep_s"])
    return {"i": params["i"]}


def _shards_probe_trial(params):
    """Reports whether a journal shards directory exists mid-campaign."""
    return {"shards_exist": os.path.exists(params["shards"])}


def _specs(n, fn="tests.test_supervisor:_double_trial"):
    return [TrialSpec(f"t{i}", fn, {"x": i}) for i in range(n)]


class TestSupervisedCleanRuns:
    def test_stats_track_a_clean_campaign(self):
        runner = TrialRunner(jobs=2, supervisor=fast_config())
        outs = runner.run(_specs(6))
        assert [o.record["twice"] for o in outs] == [0, 2, 4, 6, 8, 10]
        assert all(o.retries == 0 and o.taxonomy is None for o in outs)
        assert runner.stats.canonical() == {
            "trials": 6,
            "retries": {},
            "backoffs": {},
            "fault_counts": {},
            "quarantined": [],
        }
        assert 1 <= runner.stats.spawned <= 2


class TestParentOnlyJournal:
    def test_workers_never_create_journal_shards(self, tmp_path):
        shards = tmp_path / "journal" / "shards"
        specs = [
            TrialSpec(f"t{i}", "tests.test_supervisor:_shards_probe_trial",
                      {"shards": str(shards)})
            for i in range(4)
        ]
        runner = TrialRunner(
            jobs=2, journal=SweepJournal(tmp_path), supervisor=fast_config()
        )
        outs = runner.run(specs)
        assert [o.record["shards_exist"] for o in outs] == [False] * 4
        assert len(_journal_files(tmp_path)) == 4


class TestQuarantine:
    @fork_only
    def test_poison_trial_quarantined_campaign_survives(self, tmp_path):
        """A spec that kills every worker it touches is retried
        max_retries times, then quarantined with a structured journal
        entry — and every other trial still completes."""
        journal = SweepJournal(tmp_path)
        specs = _specs(4)
        specs.insert(2, TrialSpec("poison", "tests.test_supervisor:_poison_trial", {}))
        runner = TrialRunner(
            jobs=2, journal=journal, supervisor=fast_config(max_retries=2)
        )
        outs = {o.key: o for o in runner.run(specs)}

        bad = outs["poison"]
        assert not bad.ok
        assert bad.taxonomy == "quarantined"
        assert bad.retries == 2
        assert "quarantined after 2 retries" in bad.error
        for i in range(4):
            assert outs[f"t{i}"].record == {"twice": i * 2}

        entry = journal.entries()["poison"]
        assert entry["status"] == "failed"
        assert entry["taxonomy"] == "quarantined"
        assert "worker crash" in entry["reason"]

        stats = runner.stats.canonical()
        assert stats["quarantined"] == ["poison"]
        assert stats["retries"] == {"poison": 3}  # attempts 0, 1, 2 all died
        assert stats["backoffs"] == {"poison": [0.01, 0.02]}
        assert stats["fault_counts"] == {"crash": 3}

    @fork_only
    def test_zero_retry_budget_quarantines_first_crash(self):
        runner = TrialRunner(jobs=2, supervisor=fast_config(max_retries=0))
        outs = {
            o.key: o
            for o in runner.run(
                [
                    TrialSpec("poison", "tests.test_supervisor:_poison_trial", {}),
                    TrialSpec("ok", "tests.test_supervisor:_double_trial", {"x": 5}),
                ]
            )
        }
        assert outs["ok"].record == {"twice": 10}
        assert outs["poison"].taxonomy == "quarantined"
        assert outs["poison"].retries == 0
        assert runner.stats.canonical()["backoffs"] == {}  # never re-dispatched


class TestHarnessChaosDeterminism:
    def test_seed_covers_every_fault_mode(self):
        """Sanity-pin the chosen seed: across the sweep's four keys the
        plans must exercise crash/pre, crash/mid and hang, and stay
        transient under the default retry budget."""
        plans = {k: plan_for(CHAOS_SEED, k) for k in SWEEP_KEYS}
        shapes = {
            (p.mode, p.point if p.mode == "crash" else None)
            for p in plans.values()
            if p.mode is not None
        }
        assert {("crash", "pre"), ("crash", "mid"), ("hang", None)} <= shapes
        assert all(p.kills <= 2 for p in plans.values())
        # And the injection schedule is exactly "first `kills` attempts
        # die, the next survives".
        for key, plan in plans.items():
            for attempt in range(plan.kills):
                assert injection_for(CHAOS_SEED, key, attempt) is not None
            assert injection_for(CHAOS_SEED, key, plan.kills) is None

    @fork_only
    def test_chaos_campaign_byte_identical_to_clean_serial(self, tmp_path):
        """The acceptance criterion: with harness chaos killing workers
        mid-campaign, results and journals still match a clean serial run
        byte for byte, at --jobs 2 and --jobs 4 alike — and the retry
        telemetry matches the pure-function fault plans exactly."""
        serial = allreduce_sweep(
            PROTO16, **SWEEP_KW, journal=SweepJournal(tmp_path / "serial"), jobs=1
        )
        save_result(tmp_path / "serial.json", serial)

        cfg = fast_config(chaos_seed=CHAOS_SEED)
        stats_by_jobs = {}
        for jobs in (2, 4):
            runner = TrialRunner(
                jobs=jobs, journal=SweepJournal(tmp_path / f"j{jobs}"),
                supervisor=cfg,
            )
            chaotic = allreduce_sweep(PROTO16, **SWEEP_KW, runner=runner)
            save_result(tmp_path / f"j{jobs}.json", chaotic)

            assert chaotic.failed_points == []
            assert np.array_equal(serial.mean_us, chaotic.mean_us)
            assert (tmp_path / f"j{jobs}.json").read_bytes() == (
                tmp_path / "serial.json"
            ).read_bytes()
            assert _journal_files(tmp_path / f"j{jobs}") == _journal_files(
                tmp_path / "serial"
            )
            stats_by_jobs[jobs] = runner.stats.canonical()

        # Worker count cannot change what was killed or retried...
        assert stats_by_jobs[2] == stats_by_jobs[4]
        # ... and what happened is exactly what the plans prescribed.
        plans = {k: plan_for(CHAOS_SEED, k) for k in SWEEP_KEYS}
        faulted = {k: p for k, p in plans.items() if p.mode is not None}
        assert stats_by_jobs[2]["retries"] == {
            k: p.kills for k, p in faulted.items()
        }
        assert stats_by_jobs[2]["backoffs"] == {
            k: [cfg.backoff_s(a) for a in range(p.kills)]
            for k, p in faulted.items()
        }
        expected_faults: dict[str, int] = {}
        for p in faulted.values():
            expected_faults[p.mode] = expected_faults.get(p.mode, 0) + p.kills
        assert stats_by_jobs[2]["fault_counts"] == expected_faults
        assert stats_by_jobs[2]["quarantined"] == []

    @fork_only
    def test_chaos_run_repeats_identically(self, tmp_path):
        """Same seed, same kill schedule: two chaos runs agree on journal
        bytes and on the full retry/backoff telemetry."""
        stats, journals = [], []
        for tag in ("a", "b"):
            runner = TrialRunner(
                jobs=2, journal=SweepJournal(tmp_path / tag),
                supervisor=fast_config(chaos_seed=CHAOS_SEED),
            )
            allreduce_sweep(PROTO16, **SWEEP_KW, runner=runner)
            stats.append(runner.stats.canonical())
            journals.append(_journal_files(tmp_path / tag))
        assert stats[0] == stats[1]
        assert journals[0] == journals[1]
        assert stats[0]["retries"]  # the seed really did kill workers


class TestCorruptShardMerge:
    """A legacy shard tree holding a worker's half-finished writes — a
    truncated entry, a temp spill — folds cleanly when a resumed
    campaign opens the journal."""

    def test_corrupt_entry_dropped_with_warning(self, tmp_path, caplog):
        _legacy_entry(tmp_path, "w1", "good", _ok({"mean_us": 1.0}))
        _legacy_shard_file(tmp_path, "w999", "torn.json", '{"status": "ok", "rec')
        with caplog.at_level(logging.WARNING, logger="repro.harness"):
            reader = SweepJournal(tmp_path)
        entries = reader.entries()
        assert "good" in entries and "torn" not in entries
        assert "dropping corrupt shard entry" in caplog.text
        assert "torn.json" in caplog.text
        assert not (tmp_path / "journal" / "shards").exists()

    def test_stale_tmp_spill_is_swept(self, tmp_path):
        _legacy_shard_file(tmp_path, "w7", ".k.json.abc123.tmp", '{"status": "ok"')
        _legacy_entry(tmp_path, "w7", "k", _ok({"mean_us": 1.0}))
        reader = SweepJournal(tmp_path)
        assert reader.lookup("k") == {"mean_us": 1.0}
        assert not (tmp_path / "journal" / ".k.json.abc123.tmp").exists()
        assert not (tmp_path / "journal" / "shards").exists()


_DRAIN_DRIVER = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {root!r})
from repro.checkpoint.harness import SweepJournal
from repro.experiments.runner import TrialRunner, TrialSpec
from repro.experiments.supervisor import SupervisorConfig

specs = [
    TrialSpec(f"t{{i:02d}}", "tests.test_supervisor:_slow_trial",
              {{"i": i, "sleep_s": 0.3}})
    for i in range({n_trials})
]
runner = TrialRunner(
    jobs=2, journal=SweepJournal({results!r}),
    supervisor=SupervisorConfig(backoff_base_s=0.01, heartbeat_interval_s=0.05),
)
print("READY", flush=True)
try:
    runner.run(specs)
    print("FINISHED", flush=True)
except KeyboardInterrupt:
    print("INTERRUPTED", flush=True)
    sys.exit(130)
"""


class TestGracefulShutdown:
    N_TRIALS = 30

    @fork_only
    def test_sigint_drains_journals_and_leaves_no_children(self, tmp_path):
        """SIGINT mid-campaign: in-flight trials finish and journal, every
        worker is gone with the parent, the exit code is 130, and the
        journal on disk resumes the remaining trials."""
        repo_root = Path(__file__).resolve().parent.parent
        script = _DRAIN_DRIVER.format(
            src=str(repo_root / "src"),
            root=str(repo_root),
            results=str(tmp_path),
            n_trials=self.N_TRIALS,
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,  # own process group, so we can prove it empty
        )
        try:
            assert proc.stdout.readline().strip() == "READY"
            time.sleep(2.0)  # let a handful of trials finish first
            os.kill(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()

        assert proc.returncode == 130, err
        assert "INTERRUPTED" in out and "FINISHED" not in out
        # The whole process group died with the parent: no orphan workers.
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)

        # The parent journaled every trial reported before the drain ended.
        done = _journal_files(tmp_path)
        assert 0 < len(done) < self.N_TRIALS
        assert all(
            json.loads(body)["status"] == "ok" for body in done.values()
        )

        # And the campaign resumes: journaled trials served, rest rerun.
        journal = SweepJournal(tmp_path)
        outs = TrialRunner(journal=journal).run(
            [
                TrialSpec(f"t{i:02d}", "tests.test_supervisor:_slow_trial",
                          {"i": i, "sleep_s": 0.0})
                for i in range(self.N_TRIALS)
            ]
        )
        assert journal.hits == len(done)
        assert all(o.ok for o in outs)


class TestCliValidation:
    def test_harness_chaos_requires_parallel_supervised(self, capsys):
        from repro.experiments import cli

        with pytest.raises(SystemExit):
            cli.main(["fig3", "--quick", "--harness-chaos", "7"])
        assert "--harness-chaos needs --jobs >= 2" in capsys.readouterr().err

    def test_backend_option_is_gone(self, capsys):
        from repro.experiments import cli

        for option in (["--backend", "pool"], ["--shards", "2"]):
            with pytest.raises(SystemExit):
                cli.main(["fig3", "--quick", "--jobs", "2", *option])
            assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["pdes", "--quick"], ["fig1", "--trial-timeout", "5"]],
        ids=["pdes", "fig1"],
    )
    def test_harness_chaos_without_supervised_trials_is_rejected(self, argv, capsys):
        from repro.experiments import cli

        with pytest.raises(SystemExit):
            cli.main([*argv, "--jobs", "2", "--harness-chaos", "7"])
        assert "--harness-chaos needs an experiment that runs supervised trials" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "argv", [["fig3", "--quick"], ["validate"]], ids=["fig3", "validate"]
    )
    def test_harness_chaos_with_supervised_trials_is_accepted(self, argv, monkeypatch):
        from repro.experiments import cli

        ran = []
        monkeypatch.setattr(cli, "_run_selected", lambda wanted, *_: ran.append(wanted) or 0)
        assert cli.main([*argv, "--jobs", "2", "--harness-chaos", "7"]) == 0
        assert ran == [argv[:1]]

    def test_retry_knobs_validated(self, capsys):
        from repro.experiments import cli

        with pytest.raises(SystemExit):
            cli.main(["fig3", "--quick", "--max-retries", "-1"])
        with pytest.raises(SystemExit):
            cli.main(["fig3", "--quick", "--backoff", "-0.5"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["resilience", "--quick", "--meanfield", "8"],
             "--meanfield needs the pdes experiment"),
            (["e14", "--quick", "--meanfield", "8"], "--meanfield needs the pdes experiment"),
            (["chaos", "--quick", "--digest-out", "d.txt"],
             "--digest-out needs the pdes experiment"),
            (["fig1", "--policy", "fair"], "--policy needs the policy or chaos experiment"),
            (["fig1", "--seeds", "3"], "--seeds needs the chaos experiment"),
            (["fig1", "--seed-base", "4"], "--seed-base needs the chaos experiment"),
            (["fig1", "--corpus-out", "DIR"], "--corpus-out needs the chaos experiment"),
            (["fig1", "--no-shrink"], "--no-shrink needs the chaos experiment"),
            (["fig1", "--shrink-budget", "5"], "--shrink-budget needs the chaos experiment"),
        ],
    )
    def test_flags_no_selected_experiment_reads_are_rejected(self, argv, message, capsys):
        from repro.experiments import cli

        with pytest.raises(SystemExit):
            cli.main(argv)
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fig3", "--quick", "--trial-timeout", "-1"], "--trial-timeout must be > 0"),
            (["fig3", "--quick", "--trial-timeout", "0"], "--trial-timeout must be > 0"),
            (["chaos", "--quick", "--seeds", "0"], "--seeds must be >= 1"),
            (["chaos", "--quick", "--seeds", "-3"], "--seeds must be >= 1"),
        ],
    )
    def test_out_of_range_values_are_rejected(self, argv, message, capsys):
        from repro.experiments import cli

        with pytest.raises(SystemExit):
            cli.main(argv)
        assert message in capsys.readouterr().err

    ALL = ["fig1", "fig3", "fig4", "fig5", "fig6", "tpn15", "speedup", "timers",
           "ale3d", "ablation", "multijob", "hw", "finegrain", "misalign",
           "resilience", "waitmode", "sensitivity", "granularity", "e9"]
    EXTENSIONS = ["multijob", "hw", "finegrain", "misalign", "resilience",
                  "waitmode", "sensitivity", "granularity"]

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["all"], ALL),
            (["extensions"], EXTENSIONS),
            (["all", "extensions"], ALL),
            (["all", "--quick"], ALL),
            (["chaos", "all"], ["chaos", *ALL]),
            (["validate", "all", "--quick"], ["validate", *ALL]),
            (["pdes", "extensions"], ["pdes", *EXTENSIONS]),
            (["chaos", "all", "--seeds", "3"], ["chaos", *ALL]),
            (["all", "validate"], [*ALL, "validate"]),
            (["hw", "extensions", "fig1", "hw"], ["hw", "multijob", *EXTENSIONS[2:], "fig1"]),
            (["fig6", "fig3", "fig6"], ["fig6", "fig3"]),
        ],
    )
    def test_groups_expand_in_place(self, argv, expected, monkeypatch):
        from repro.experiments import cli

        ran = []
        monkeypatch.setattr(cli, "_run_selected", lambda wanted, *_: ran.append(wanted) or 0)
        assert cli.main(argv) == 0
        assert ran == [expected]
