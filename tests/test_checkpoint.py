"""Checkpoint/restore: policy validation, atomic writes, retention, and
the round-trip determinism acceptance check (restore at T and continue →
bit-identical to never having stopped)."""

import pickle
import subprocess
import sys

import pytest

from repro.apps.aggregate_trace import AggregateTraceConfig, aggregate_trace_body
from repro.checkpoint.manager import CheckpointManager, RestoreMismatch, list_checkpoints
from repro.checkpoint.registry import audit_event_callbacks
from repro.checkpoint.snapshot import capture_state, state_fingerprint
from repro.config import (
    CheckpointPolicy,
    ClusterConfig,
    CoschedConfig,
    FaultConfig,
    MachineConfig,
    MpiConfig,
    NodeFaultSpec,
)
from repro.experiments.e9_resume import run_e9
from repro.system import System
from repro.units import ms

HORIZON = ms(400)
CHUNK = ms(20)


class MiniDriver:
    """Small checkpointable run: 2 nodes, cosched, optional node crash."""

    def __init__(self, seed: int, faults: bool) -> None:
        fc = FaultConfig()
        if faults:
            fc = FaultConfig(
                enabled=True,
                msg_drop_prob=0.02,
                node_faults=(
                    NodeFaultSpec(node=1, kind="crash", at_us=ms(30), duration_us=ms(20)),
                ),
            )
        cfg = ClusterConfig(
            machine=MachineConfig(n_nodes=2, cpus_per_node=4),
            cosched=CoschedConfig(enabled=True, period_us=ms(100)),
            mpi=MpiConfig(progress_threads_enabled=False),
            faults=fc,
            seed=seed,
        )
        self.system = System(cfg)
        self.sink: dict = {}
        # Sized so the job stays busy past HORIZON: checkpoints land in a
        # live simulation, not an idle one.
        app = AggregateTraceConfig(
            loops=20, calls_per_loop=16, trace_block=8, compute_between_us=ms(1)
        )
        self.job = self.system.launch(
            8, 4, aggregate_trace_body(app, self.sink, set()), name="mini"
        )


#: The builder reference the checkpoints of these tests store.
MINI = "tests.test_checkpoint:build_mini"


def build_mini(seed: int = 7, faults: bool = False) -> MiniDriver:
    return MiniDriver(seed, faults)


def drive(driver, to_us, mgr=None, start=0.0):
    t = start
    while t < to_us:
        t = min(to_us, t + CHUNK)
        driver.system.sim.run_until(t)
        if mgr is not None:
            mgr.tick()


class TestCheckpointPolicy:
    def test_enabled_requires_an_interval(self):
        assert not CheckpointPolicy().enabled
        assert CheckpointPolicy(interval_sim_us=ms(10)).enabled

    @pytest.mark.parametrize(
        "kw",
        [
            {"interval_sim_us": 0.0},
            {"interval_sim_us": -1.0},
            {"keep_last": 0},
        ],
    )
    def test_bad_values_raise(self, kw):
        with pytest.raises(ValueError):
            CheckpointPolicy(**kw)

    def test_disabled_manager_never_due(self, tmp_path):
        d = build_mini()
        mgr = CheckpointManager(d, MINI, {}, CheckpointPolicy(), tmp_path)
        drive(d, ms(50), mgr)
        assert not mgr.due() and mgr.written == []


class TestCalendarAudit:
    def test_mini_driver_calendar_is_rebuildable(self):
        """Every queued callback is a bound method a rebuild recreates —
        no closures, which a checkpoint could never restore."""
        d = build_mini()
        drive(d, ms(100))
        assert audit_event_callbacks(d.system.sim) == []

    def test_closure_callbacks_are_flagged(self):
        d = build_mini()

        def oops():
            pass

        d.system.sim.schedule(50.0, oops)
        offenders = audit_event_callbacks(d.system.sim)
        assert offenders and all("<locals>" in ref for ref in offenders)


class TestRoundTrip:
    @pytest.mark.parametrize("faults", [False, True])
    def test_restore_and_continue_is_bit_identical(self, tmp_path, faults):
        """The acceptance check: crash at 60 %, resume from the last
        checkpoint, run to the horizon — same fingerprint as a run that
        was never interrupted, with and without injected faults."""
        args = {"seed": 7, "faults": faults}
        policy = CheckpointPolicy(interval_sim_us=ms(80), keep_last=2)

        ref = build_mini(**args)
        drive(ref, HORIZON)
        fp_ref = state_fingerprint(capture_state(ref.system))

        victim = build_mini(**args)
        mgr = CheckpointManager(victim, MINI, args, policy, tmp_path)
        drive(victim, 0.6 * HORIZON, mgr)
        assert mgr.written  # at least one checkpoint landed before the "crash"
        del victim, mgr

        resumed = CheckpointManager.resume_latest(tmp_path, policy=policy)
        assert resumed is not None
        assert resumed.system.sim.now < HORIZON  # genuinely resumed mid-run
        drive(resumed.driver, HORIZON, resumed, start=resumed.system.sim.now)
        assert resumed.system.sim.events_processed == ref.system.sim.events_processed
        assert state_fingerprint(capture_state(resumed.system)) == fp_ref

    def test_resume_latest_empty_dir_returns_none(self, tmp_path):
        assert CheckpointManager.resume_latest(tmp_path) is None

    def test_e9_checkpoint_restores_in_a_fresh_interpreter(self, tmp_path):
        """A checkpoint E9 wrote restores in a process that imported only
        the checkpoint manager: the file names its builder by an importable
        ``"pkg.mod:fn"`` reference, not by a name some module registers."""
        ckpt_dir = tmp_path / "checkpoints"
        run_e9(quick=True, workdir=tmp_path)
        latest = list_checkpoints(ckpt_dir)[-1]
        code = (
            "from repro.checkpoint.manager import CheckpointManager\n"
            f"m = CheckpointManager.resume_latest({str(ckpt_dir)!r})\n"
            "print(m.system.sim.events_processed)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True, text=True
        ).stdout
        assert int(out) == int(latest.stem.removeprefix("ckpt-e"))


class TestWriteDiscipline:
    def test_atomic_writes_leave_no_temp_files(self, tmp_path):
        d = build_mini()
        policy = CheckpointPolicy(interval_sim_us=ms(40), keep_last=2)
        mgr = CheckpointManager(d, MINI, {}, policy, tmp_path)
        drive(d, ms(200), mgr)
        assert list(tmp_path.glob("*.tmp")) == []
        assert list(tmp_path.glob(".ckpt-*")) == []

    def test_keep_last_prunes_old_checkpoints(self, tmp_path):
        d = build_mini()
        policy = CheckpointPolicy(interval_sim_us=ms(40), keep_last=2)
        mgr = CheckpointManager(d, MINI, {}, policy, tmp_path)
        drive(d, ms(400), mgr)
        on_disk = list_checkpoints(tmp_path)
        assert len(on_disk) == 2
        # The newest two survive, in event order.
        assert on_disk == mgr.written

    def test_keep_last_holds_across_a_restore(self, tmp_path):
        policy = CheckpointPolicy(interval_sim_us=ms(40), keep_last=2)
        d = build_mini()
        drive(d, ms(200), CheckpointManager(d, MINI, {}, policy, tmp_path))
        resumed = CheckpointManager.resume_latest(tmp_path, policy=policy)
        drive(resumed.driver, ms(400), resumed, start=resumed.system.sim.now)
        on_disk = list_checkpoints(tmp_path)
        assert len(on_disk) == 2
        assert on_disk == resumed.written

    def test_cadence_respects_interval(self, tmp_path):
        d = build_mini()
        policy = CheckpointPolicy(interval_sim_us=ms(100), keep_last=10)
        mgr = CheckpointManager(d, MINI, {}, policy, tmp_path)
        drive(d, ms(400), mgr)
        # 400ms at a 100ms cadence: 4 checkpoints, ±1 for chunk phasing.
        assert 3 <= len(mgr.written) <= 5


class TestRestoreVerification:
    def test_tampered_fingerprint_is_rejected(self, tmp_path):
        d = build_mini()
        policy = CheckpointPolicy(interval_sim_us=ms(40))
        mgr = CheckpointManager(d, MINI, {}, policy, tmp_path)
        drive(d, ms(100), mgr)
        path = mgr.written[-1]
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        payload["fingerprint"] = "0" * 64
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)
        with pytest.raises(RestoreMismatch):
            CheckpointManager.restore(path)

    def test_wrong_builder_args_are_rejected(self, tmp_path):
        """A checkpoint whose builder args no longer reproduce the run
        (here: a different seed) must refuse to continue."""
        d = build_mini(seed=7)
        policy = CheckpointPolicy(interval_sim_us=ms(40))
        mgr = CheckpointManager(d, MINI, {"seed": 7}, policy, tmp_path)
        drive(d, ms(100), mgr)
        path = mgr.written[-1]
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        payload["args"] = {"seed": 8}
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)
        with pytest.raises(RestoreMismatch):
            CheckpointManager.restore(path)


class TestZeroOverhead:
    def test_monitoring_leaves_the_run_bit_identical(self, tmp_path):
        """Checkpointing + full invariant passes + the per-event sanitizer
        add zero events and perturb nothing: the monitored run's state
        fingerprint equals the plain run's."""
        plain = build_mini()
        drive(plain, ms(200))
        fp_plain = state_fingerprint(capture_state(plain.system))

        watched = build_mini()
        policy = CheckpointPolicy(interval_sim_us=ms(50), keep_last=3)
        mgr = CheckpointManager(watched, MINI, {}, policy, tmp_path)
        mgr.monitor.install_sanitizer()
        drive(watched, ms(200), mgr)
        assert mgr.written  # checkpoints (and invariant passes) happened
        assert watched.system.sim.events_processed == plain.system.sim.events_processed
        assert state_fingerprint(capture_state(watched.system)) == fp_plain
