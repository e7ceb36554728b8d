"""Oracles: judge one chaos run for liveness, safety, and determinism.

A randomized fault schedule has no hand-written expected value, so the
verdict has to come from properties any correct run must satisfy:

* **liveness** — the job completes within an analytic-model-derived time
  bound.  The bound starts from :class:`~repro.analytic.model.
  AllreduceSeriesModel`'s prediction for the same config/shape (the same
  model the validation anchors check against the DES) and adds explicit,
  generous allowances per fault entry (crash durations, watchdog
  detection latency, worst-case retransmit backoff chains, the
  uncoordinated-baseline blow-up after timesync loss).  A run that needs
  more than that is not "slow": it is a deadlocked collective, a lost
  wakeup, or a resilience path that never converged.
* **safety** — the full :class:`~repro.checkpoint.monitor.
  InvariantMonitor` pass is clean at end of run (run-queue discipline,
  CPU-time conservation, message conservation under retransmit,
  transport sequence accounting, co-scheduler window/priority
  bookkeeping), and every completed Allreduce produced the correct
  value.
* **determinism** — replaying the same schedule yields a bit-identical
  :func:`~repro.checkpoint.snapshot.state_fingerprint` (which folds in
  the trace digests and every RNG stream) and the same event count.

The run is E8's: the machine
:func:`~repro.experiments.common.compressed_cosched_config` builds, with
the schedule's faults and policy, driven by
:func:`~repro.apps.aggregate_trace.run_aggregate_trace` with the
liveness bound as its horizon.  It stops at the job's finish (or at the
bound), so the counters and the fingerprint describe the job, not a
post-finish tail.

Oracles never mutate the run and draw no randomness, so judging a
schedule is itself deterministic — the property the campaign's
byte-identical-journal contract rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analytic.model import AllreduceSeriesModel
from repro.apps.aggregate_trace import AggregateTraceConfig, run_aggregate_trace
from repro.checkpoint.monitor import InvariantMonitor
from repro.checkpoint.snapshot import capture_state, state_fingerprint
from repro.chaos.schedule import ChaosSchedule, ChaosWorkload
from repro.experiments.common import compressed_cosched_config
from repro.mpi.world import JobIncompleteError
from repro.system import System
from repro.trace.recorder import TraceRecorder

__all__ = [
    "ORACLES",
    "OracleReport",
    "ChaosRunResult",
    "analytic_call_us",
    "liveness_bound_us",
    "run_schedule",
    "judge",
]

#: Oracle names, in reporting order.
ORACLES = ("liveness", "safety", "determinism")

#: Headroom multiplier on the analytic prediction: covers DES-vs-model
#: calibration error and co-scheduler startup transients.  A deadlock is
#: not a factor-of-N slowdown, so generosity costs only simulated time.
_SLACK = 6.0


def analytic_call_us(workload: ChaosWorkload, seed: int = 0) -> float:
    """Model-predicted mean Allreduce latency (µs) for the fault-free
    system — the anchor every liveness bound is derived from."""
    w = workload
    cfg = compressed_cosched_config(w.n_ranks, w.tasks_per_node, seed, w.time_compression)
    model = AllreduceSeriesModel(cfg, w.n_ranks, w.tasks_per_node, seed)
    series = model.run_series(min(w.calls, 64), compute_between_us=w.compute_between_us)
    return series.mean_us


def _retransmit_chain_us(cfg: FaultConfig) -> float:
    """Worst-case serial backoff before the forced path delivers (µs)."""
    total, timeout = 0.0, cfg.retransmit_timeout_us
    for _ in range(cfg.retransmit_max_attempts):
        total += timeout
        timeout = min(timeout * cfg.retransmit_backoff, cfg.retransmit_max_timeout_us)
    return total


def liveness_bound_us(schedule: ChaosSchedule) -> float:
    """Analytic completion bound for *schedule* (µs).

    ``_SLACK × model prediction`` plus explicit per-entry allowances; see
    the module docstring.  Deliberately generous — a false liveness alarm
    would poison the corpus, while a real deadlock exceeds *any* finite
    bound.
    """
    w = schedule.workload
    cfg = schedule.fault_config()
    period = w.period_us
    base = w.calls * (w.compute_between_us + analytic_call_us(w, schedule.seed))
    bound = _SLACK * base + 4.0 * period

    wd_detect = cfg.watchdog_interval_us * (1.0 + cfg.watchdog_staleness_periods)
    rounds = math.ceil(math.log2(w.n_ranks)) + 2  # fold + doubling + unfold
    for e in schedule.entries:
        kind = e["kind"]
        if kind == "node":
            bound += 2.0 * e["duration_us"]
        elif kind == "cosched":
            bound += wd_detect + 2.0 * period + e.get("duration_us", 0.0)
        elif kind == "timesync":
            # Graceful degradation lands near the uncoordinated baseline,
            # which the coordinated model underestimates badly.
            bound += 4.0 * base
        elif kind == "pipe":
            bound += 2.0 * period
        elif kind == "policy":
            # A priority-blind policy defeats the co-scheduler's favored
            # windows, so the coordinated model's prediction no longer
            # anchors the run; allow the uncoordinated-baseline blow-up,
            # same as timesync loss.
            bound += 4.0 * base
        elif kind == "net":
            # Sound window argument: while the fault window is open the
            # job progresses >= 0 where the clean run progresses
            # (hi - lo); after it closes, only chains already in flight
            # (<= one call's rounds, forced-path-guaranteed) remain.  So
            # the storm costs at most the window length plus one call's
            # worst-case serial backoff tail, regardless of probability.
            chain = _retransmit_chain_us(cfg) + e.get("delay_us", 0.0)
            lo_w, hi_w = e.get("window_us", (0.0, float("inf")))
            window = max(0.0, min(hi_w, _SLACK * base) - lo_w)
            bound += window + rounds * chain
    return bound


@dataclass
class ChaosRunResult:
    """Everything one driven run exposes to the oracles."""

    completed: bool
    elapsed_us: float  # job elapsed when completed, else the bound
    bound_us: float
    values_ok: bool  # reduction correctness (True when nothing finished)
    violations: tuple  # stringified invariant violations
    fingerprint: str
    events_processed: int
    counters: dict  # resilience activity, for diagnosis


def run_schedule(schedule: ChaosSchedule) -> ChaosRunResult:
    """Build the system, run the workload until the job finishes or the
    liveness bound passes, and collect the oracle inputs."""
    w = schedule.workload
    bound = liveness_bound_us(schedule)
    system = System(
        compressed_cosched_config(
            w.n_ranks, w.tasks_per_node, schedule.seed, w.time_compression,
            faults=schedule.fault_config(), policy=schedule.policy_spec(),
        ),
        trace=TraceRecorder(enabled=True),
    )
    app = AggregateTraceConfig(
        calls_per_loop=w.calls, compute_between_us=w.compute_between_us,
        trace_block=32,
    )
    try:
        res = run_aggregate_trace(
            system, w.n_ranks, w.tasks_per_node, app, horizon_us=bound
        )
    except JobIncompleteError:
        res = None  # a liveness failure; any other exception fails the trial
    report = InvariantMonitor(system).check()
    return ChaosRunResult(
        completed=res is not None,
        elapsed_us=bound if res is None else res.elapsed_us,
        bound_us=bound,
        values_ok=True if res is None else res.values_ok,
        violations=tuple(str(v) for v in report.violations),
        fingerprint=state_fingerprint(capture_state(system)),
        events_processed=system.sim.events_processed,
        counters=system.fault_counters(system.jobs[0]),
    )


@dataclass
class OracleReport:
    """Verdict of the oracle suite on one schedule."""

    failed: tuple  # subset of ORACLES, in ORACLES order
    details: dict  # JSON-able diagnosis (bound, counters, violations, …)

    @property
    def ok(self) -> bool:
        return not self.failed


def judge(
    schedule: ChaosSchedule, *, check_determinism: bool = True
) -> OracleReport:
    """Run the oracle suite on *schedule*.

    ``check_determinism=False`` skips the replay run — the shrinker uses
    it when minimizing a liveness/safety failure, halving the cost of
    every ddmin probe.
    """
    first = run_schedule(schedule)
    failed = []
    if not first.completed:
        failed.append("liveness")
    if first.violations or not first.values_ok:
        failed.append("safety")
    details = {
        "bound_us": first.bound_us,
        "elapsed_us": first.elapsed_us,
        "completed": first.completed,
        "values_ok": first.values_ok,
        "violations": list(first.violations),
        "events_processed": first.events_processed,
        "counters": first.counters,
        "fingerprint": first.fingerprint,
    }
    if check_determinism:
        second = run_schedule(schedule)
        if (
            second.fingerprint != first.fingerprint
            or second.events_processed != first.events_processed
        ):
            failed.append("determinism")
            details["replay_fingerprint"] = second.fingerprint
            details["replay_events_processed"] = second.events_processed
    return OracleReport(failed=tuple(f for f in ORACLES if f in failed), details=details)
