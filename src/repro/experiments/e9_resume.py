"""E9: crash/restart — checkpoint a run mid-flight and resume bit-identically.

The robustness headline for a simulation campaign: kill the process in
the middle of a sweep (and inject a node crash in the middle of the
trial for good measure), resume, and end up with results
indistinguishable from a run that was never interrupted.  Two levels:

* **Mid-trial** — a DES run (the aggregate_trace benchmark under the
  co-scheduler, with an injected node crash) is checkpointed on a sim-time
  cadence, abandoned at ~60 % of its horizon as if the process died, then
  restored from the last checkpoint (replay + fingerprint verification)
  and driven to the same fixed horizon as an uninterrupted reference run.
  Acceptance: the full-state fingerprints — event calendar, RNG streams,
  every thread and run queue, the trace digests — match bit-for-bit.
* **Mid-sweep** — an analytic-model sweep journals each completed
  (count, seed) trial; the sweep is cut short, re-run against the same
  journal (finished trials served from disk), and compared against an
  uninterrupted sweep.  Acceptance: arrays exactly equal, with the
  expected number of journal hits.

Both the reference and the resumed DES runs advance to the same fixed
horizon rather than "until the job finishes", so their states are
comparable at an identical instant.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.apps.aggregate_trace import AggregateTraceConfig, aggregate_trace_body
from repro.checkpoint.harness import SweepJournal
from repro.checkpoint.manager import CheckpointManager
from repro.checkpoint.monitor import InvariantMonitor
from repro.checkpoint.snapshot import capture_state, state_fingerprint
from repro.config import CheckpointPolicy, FaultConfig, NodeFaultSpec
from repro.experiments.common import (
    PROTO16,
    allreduce_sweep,
    compressed_cosched_config,
)
from repro.experiments.reporting import text_table
from repro.experiments.runner import TrialRunner
from repro.results import register_result
from repro.system import System
from repro.trace.recorder import TraceRecorder
from repro.units import s

__all__ = ["E9Result", "E9Driver", "build_e9_driver", "run_e9", "format_e9"]

#: Time compression shared with E4/E8 so runs span several co-scheduler
#: periods at test scale.
TIME_COMPRESSION = 50.0


class E9Driver:
    """One checkpointable aggregate_trace run (built by :func:`build_e9_driver`).

    Exposes ``.system`` for the checkpoint layer and ``advance`` for the
    chunked drive loop; everything about its construction is a pure
    function of the (picklable) builder arguments, which is what makes
    replay-based restore exact.
    """

    def __init__(
        self,
        n_ranks: int,
        tpn: int,
        loops: int,
        calls_per_loop: int,
        seed: int,
        crash: bool,
    ) -> None:
        period = s(5) / TIME_COMPRESSION
        horizon = self.horizon_us = 4.0 * period
        faults = FaultConfig()
        if crash:
            # A node freeze mid-trial, spanning a window flip — the state
            # a checkpoint must capture faithfully (hog threads, frozen
            # runqueues, retransmit timers) to replay through it.
            faults = FaultConfig(
                enabled=True,
                node_faults=(
                    NodeFaultSpec(
                        node=1,
                        kind="crash",
                        at_us=1.4 * period,
                        duration_us=0.4 * period,
                    ),
                ),
                watchdog_interval_us=period / 2.0,
            )
        config = compressed_cosched_config(
            n_ranks, tpn, seed, TIME_COMPRESSION, faults=faults
        )
        self.system = System(config, trace=TraceRecorder(enabled=True))
        self.sink: dict = {}
        app = AggregateTraceConfig(
            loops=loops, calls_per_loop=calls_per_loop, trace_block=16
        )
        placement = self.system.cluster.place(n_ranks, tpn)
        node0 = {r for r in range(n_ranks) if placement.node_of(r) == 0}
        self.job = self.system.launch(
            n_ranks, tpn, aggregate_trace_body(app, self.sink, node0), name="e9"
        )

    def advance(self, to_us: float) -> None:
        """Drive the simulation to the given absolute time."""
        self.system.sim.run_until(to_us)

    @property
    def done(self) -> bool:
        return self.job.done


def build_e9_driver(
    n_ranks: int = 8,
    tpn: int = 4,
    loops: int = 2,
    calls_per_loop: int = 60,
    seed: int = 91,
    crash: bool = True,
) -> E9Driver:
    """Checkpoint builder: every argument is a picklable scalar."""
    return E9Driver(n_ranks, tpn, loops, calls_per_loop, seed, crash)


@register_result
@dataclass
class E9Result:
    """Outcome of the crash/restart round-trip and the journal resume."""

    horizon_us: float
    #: Events processed by the uninterrupted reference / the resumed run.
    events_reference: int
    events_resumed: int
    #: SHA-256 of the full state at the horizon, both paths.
    fingerprint_reference: str
    fingerprint_resumed: str
    n_checkpoints: int
    #: Invariant violations found at the horizon (must be 0).
    invariant_violations: int
    #: Journal hits when the cut-short sweep was resumed.
    journal_hits: int
    #: Resumed sweep arrays exactly equal the uninterrupted sweep's?
    journal_match: bool
    sweep_proc_counts: np.ndarray
    failed_points: list = field(default_factory=list)
    n_ranks: int = 8
    crash_injected: bool = True

    @property
    def fingerprint_match(self) -> bool:
        """Did the resumed run land bit-identical to the reference?"""
        return self.fingerprint_reference == self.fingerprint_resumed


def run_e9(quick: bool = False, workdir=None) -> E9Result:
    """Run the E9 crash/resume experiment (see the module docstring).

    *workdir* receives the checkpoints and the sweep journal; a temp
    directory is used (and discarded) when not given.
    """
    if workdir is None:
        with tempfile.TemporaryDirectory() as td:
            return _run_e9(quick, Path(td))
    return _run_e9(quick, Path(workdir))


def _run_e9(quick: bool, workdir: Path) -> E9Result:
    args = dict(
        n_ranks=8,
        tpn=4,
        loops=1 if quick else 2,
        calls_per_loop=40 if quick else 60,
        seed=91,
        crash=True,
    )

    # ---- mid-trial: reference run, uninterrupted ----------------------
    ref = build_e9_driver(**args)
    horizon = ref.horizon_us
    chunk = horizon / 20.0
    t = 0.0
    while t < horizon:
        t = min(horizon, t + chunk)
        ref.advance(t)
    fp_ref = state_fingerprint(capture_state(ref.system))
    events_ref = ref.system.sim.events_processed

    # ---- mid-trial: checkpointed run, "crashed" at 60 % ---------------
    ckpt_dir = workdir / "checkpoints"
    policy = CheckpointPolicy(interval_sim_us=horizon / 8.0, keep_last=2)
    victim = build_e9_driver(**args)
    mgr = CheckpointManager(
        victim, "repro.experiments.e9_resume:build_e9_driver", args, policy, ckpt_dir
    )
    t = 0.0
    while t < 0.6 * horizon:
        t += chunk
        victim.advance(t)
        mgr.tick()
    n_ckpts = len(mgr.written)
    del victim, mgr  # the process "dies" here

    # ---- resume from the last checkpoint and finish -------------------
    resumed = CheckpointManager.resume_latest(ckpt_dir, policy=policy)
    t = resumed.system.sim.now
    while t < horizon:
        t = min(horizon, t + chunk)
        resumed.system.sim.run_until(t)
        resumed.tick()
    report = InvariantMonitor(resumed.system).check()
    fp_res = state_fingerprint(capture_state(resumed.system))
    events_res = resumed.system.sim.events_processed

    # ---- mid-sweep: journaled trials resume bit-identically -----------
    # Each sweep gets its own runner and none gets a result store: the
    # uninterrupted reference must execute every trial, not be served
    # the records the resumed sweep just wrote.
    counts = (128, 256, 512) if quick else (128, 256, 512, 944)
    n_calls, n_seeds = (100, 2) if quick else (200, 2)
    sweep_dir = workdir / "sweep"
    allreduce_sweep(
        PROTO16, proc_counts=counts[:2], n_calls=n_calls, n_seeds=n_seeds,
        runner=TrialRunner(journal=SweepJournal(sweep_dir)),
    )  # ... and the campaign is killed here
    resumed_journal = SweepJournal(sweep_dir)
    resumed_sweep = allreduce_sweep(
        PROTO16, proc_counts=counts, n_calls=n_calls, n_seeds=n_seeds,
        runner=TrialRunner(journal=resumed_journal),
    )
    uninterrupted = allreduce_sweep(
        PROTO16, proc_counts=counts, n_calls=n_calls, n_seeds=n_seeds,
        runner=TrialRunner(),
    )
    journal_match = (
        np.array_equal(resumed_sweep.mean_us, uninterrupted.mean_us)
        and np.array_equal(resumed_sweep.run_std_us, uninterrupted.run_std_us)
        and np.array_equal(resumed_sweep.call_std_us, uninterrupted.call_std_us)
    )

    return E9Result(
        horizon_us=horizon,
        events_reference=events_ref,
        events_resumed=events_res,
        fingerprint_reference=fp_ref,
        fingerprint_resumed=fp_res,
        n_checkpoints=n_ckpts,
        invariant_violations=len(report.violations),
        journal_hits=resumed_journal.hits,
        journal_match=journal_match,
        sweep_proc_counts=np.asarray(counts, dtype=int),
        failed_points=list(resumed_sweep.failed_points),
        n_ranks=args["n_ranks"],
        crash_injected=args["crash"],
    )


def format_e9(res: E9Result) -> str:
    """Render the E9 verdict table."""
    rows = [
        ("events processed (reference)", res.events_reference, ""),
        ("events processed (crash+resume)", res.events_resumed, ""),
        ("state fingerprints match", res.fingerprint_match,
         res.fingerprint_reference[:16]),
        ("checkpoints written before crash", res.n_checkpoints, ""),
        ("invariant violations at horizon", res.invariant_violations, ""),
        ("journal hits on sweep resume", res.journal_hits, ""),
        ("resumed sweep == uninterrupted", res.journal_match,
         f"{len(res.sweep_proc_counts)} counts"),
    ]
    table = text_table(
        ["check", "value", "detail"],
        rows,
        title=(
            "E9: kill -9 mid-campaign, resume from checkpoint + journal "
            f"(node crash injected: {res.crash_injected})"
        ),
    )
    verdict = "PASS" if (
        res.fingerprint_match
        and res.journal_match
        and res.invariant_violations == 0
        and res.events_reference == res.events_resumed
    ) else "FAIL"
    return f"{table}\nverdict: {verdict}\n"
