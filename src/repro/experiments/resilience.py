"""E8: resilience — graceful degradation under injected faults.

The paper's coordination argument read backwards: the co-scheduler's
benefit exists only while its inputs (timesync, the control pipe, the
daemon itself) stay healthy.  This experiment injects the failure modes
and checks that the resilience layer (:mod:`repro.faults`) keeps the
system inside the envelope the paper itself measured:

* **timesync loss** — the switch clock register dies mid-run, node clocks
  jump apart and free-drift, the daemons detect the loss and degrade to
  free-running windows.  The run must land *between* the healthy
  co-scheduled run and the uncoordinated (unsynced-windows) baseline —
  the paper's own pathology, reached gracefully instead of hung.
* **message loss** — a lossy fabric under the retransmit layer: the run
  completes (no collective deadlock, the acceptance criterion) at a
  latency premium paid in retransmits.
* **daemon death** — the co-scheduler is killed on every job node; the
  watchdog restarts it and re-registers the tasks, so coordination
  resumes instead of silently decaying to the baseline.

Scale note: runs on the DES at reduced scale with the same time
compression machinery as E4 (misalignment); each run spans several
co-scheduler periods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.aggregate_trace import AggregateTraceConfig, run_aggregate_trace
from repro.config import CoschedFaultSpec, FaultConfig
from repro.experiments.extensions import compressed_cosched_config
from repro.experiments.reporting import text_table
from repro.experiments.runner import TrialRunner, TrialSpec
from repro.system import System
from repro.units import ms, s

__all__ = ["ResilienceResult", "run_resilience", "format_resilience"]

#: Message-drop probability of the lossy-fabric scenario.
DROP_PROB = 0.01


@dataclass
class ResilienceResult:
    """Mean Allreduce latency per scenario plus resilience counters."""

    healthy_us: float
    degraded_us: float
    uncoordinated_us: float
    drop_us: float
    death_us: float
    drop_prob: float
    #: Retransmit-layer counters from the message-loss run.
    drop_retransmits: int
    drop_forced: int
    drop_duplicates_dropped: int
    drop_net_drops: int
    #: Watchdog restarts and daemons degraded to free-running.
    death_restarts: int
    degradation_events: int
    n_ranks: int
    time_compression: float

    @property
    def degradation_ratio(self) -> float:
        """Timesync-loss run vs healthy (≥ ~1: coordination was lost)."""
        return self.degraded_us / self.healthy_us

    @property
    def vs_baseline_ratio(self) -> float:
        """Timesync-loss run vs the uncoordinated baseline (≈ 1 is the
        graceful-degradation target; ≫ 1 would mean the fault handling
        itself made things worse than never coordinating at all)."""
        return self.degraded_us / self.uncoordinated_us


def _resilience_trial(params: dict) -> dict:
    """Run one named resilience scenario on its own identically seeded
    system and return the mean latency plus that scenario's resilience
    counters.

    Each scenario is one serial DES run of E4's co-scheduled machine
    (:func:`~repro.experiments.extensions.compressed_cosched_config`)
    with the scenario's fault plane.  Top-level so
    :class:`~repro.experiments.runner.TrialRunner` workers can resolve it
    by name; the five scenarios are independent DES runs, so they
    parallelise like any other trial list.
    """
    scenario = params["scenario"]
    n_ranks = params["n_ranks"]
    tpn = params["tpn"]
    calls = params["calls"]
    seed = params["seed"]
    time_compression = params["time_compression"]

    period = s(5) / time_compression
    # Watchdog cadence scaled to the compressed co-scheduler period.
    wd_interval = period / 2.0

    def run(faults: FaultConfig, sync: bool = True, n_calls: int = calls):
        """Run the scenario; returns (mean_us, counters): rank 0's mean
        Allreduce latency and :meth:`~repro.system.System.fault_counters`."""
        system = System(
            compressed_cosched_config(n_ranks, tpn, seed, time_compression, sync, faults)
        )
        res = run_aggregate_trace(
            system, n_ranks, tpn,
            AggregateTraceConfig(
                calls_per_loop=n_calls, trace_block=32, compute_between_us=200.0
            ),
        )
        if not res.values_ok:
            raise RuntimeError(f"resilience {scenario!r} run produced bad values")
        return res.mean_us, system.fault_counters(system.jobs[0])

    if scenario == "healthy":
        # Healthy co-scheduled run (no faults installed at all).
        return {"mean_us": run(FaultConfig())[0]}

    if scenario == "uncoordinated":
        # Uncoordinated baseline: windows never aligned (E4's pathology).
        return {"mean_us": run(FaultConfig(), sync=False)[0]}

    if scenario == "degraded":
        # Timesync loss mid-run: clocks jump up to a full period apart and
        # free-drift.  Injected inside the first favored window, so each
        # daemon computes exactly one boundary from the broken grid (the
        # scatter) before detecting the loss at its next cycle start and
        # locking into free-running windows at its scattered phase.
        mean, counters = run(FaultConfig(
            enabled=True,
            timesync_loss_at_us=1.25 * period,
            clock_jump_us=period,
            clock_drift_rate=1e-4,
            watchdog_interval_us=wd_interval,
        ))
        return {"mean_us": mean, "degradation_events": counters["degradation_events"]}

    if scenario == "drop":
        # Message loss with retransmit: must complete (no deadlock).
        mean, counters = run(
            FaultConfig(
                enabled=True,
                msg_drop_prob=DROP_PROB,
                retransmit_timeout_us=ms(2),
                retransmit_max_timeout_us=ms(16),
                watchdog_interval_us=wd_interval,
            ),
            n_calls=max(100, calls // 3),
        )
        return {
            "mean_us": mean,
            "retransmits": counters["retransmits"],
            "forced": counters["forced"],
            "duplicates_dropped": counters["duplicates_dropped"],
            "net_drops": counters["net_drops"],
        }

    if scenario == "death":
        # Daemon death on every job node, timed just after the unfavor
        # flip — the worst case: tasks stuck at the unfavored priority
        # until the watchdog restarts the daemon.
        mean, counters = run(FaultConfig(
            enabled=True,
            cosched_faults=tuple(
                CoschedFaultSpec(node=n, at_us=1.95 * period, kind="die")
                for n in range(-(-n_ranks // tpn))
            ),
            watchdog_interval_us=wd_interval,
        ))
        return {"mean_us": mean, "restarts": counters["watchdog_restarts"]}

    raise ValueError(f"unknown resilience scenario {scenario!r}")


#: Scenario order of the E8 report.
_SCENARIOS = ("healthy", "uncoordinated", "degraded", "drop", "death")


def run_resilience(
    n_ranks: int = 32,
    tpn: int = 8,
    calls: int = 1500,
    seed: int = 31,
    time_compression: float = 50.0,
    journal=None,
    trial_timeout_s: Optional[float] = None,
    jobs: int = 1,
) -> ResilienceResult:
    """Run the five scenarios (healthy, timesync loss, uncoordinated
    baseline, message loss, daemon death) on identically seeded systems.

    Scale matches E4 (misalignment): each run must span several
    co-scheduler periods, or the co-scheduler never engages and the
    comparison measures tick-phase artifacts instead of coordination.
    Each scenario is one :class:`~repro.experiments.runner.TrialSpec`, so
    ``jobs=5`` runs them concurrently with identical results.
    """
    runner = TrialRunner(jobs=jobs, journal=journal, trial_timeout_s=trial_timeout_s)
    specs = [
        TrialSpec(
            key=f"resilience-{name}-n{n_ranks}-s{seed}",
            fn="repro.experiments.resilience:_resilience_trial",
            params=dict(
                scenario=name,
                n_ranks=n_ranks,
                tpn=tpn,
                calls=calls,
                seed=seed,
                time_compression=time_compression,
            ),
        )
        for name in _SCENARIOS
    ]
    records = {
        spec.params["scenario"]: outcome.require()
        for spec, outcome in zip(specs, runner.run(specs))
    }
    return ResilienceResult(
        healthy_us=records["healthy"]["mean_us"],
        degraded_us=records["degraded"]["mean_us"],
        uncoordinated_us=records["uncoordinated"]["mean_us"],
        drop_us=records["drop"]["mean_us"],
        death_us=records["death"]["mean_us"],
        drop_prob=DROP_PROB,
        drop_retransmits=records["drop"]["retransmits"],
        drop_forced=records["drop"]["forced"],
        drop_duplicates_dropped=records["drop"]["duplicates_dropped"],
        drop_net_drops=records["drop"]["net_drops"],
        death_restarts=records["death"]["restarts"],
        degradation_events=records["degraded"]["degradation_events"],
        n_ranks=n_ranks,
        time_compression=time_compression,
    )


def format_resilience(res: ResilienceResult) -> str:
    """Render the E8 table."""
    rows = [
        ("healthy cosched", res.healthy_us, ""),
        ("timesync lost mid-run", res.degraded_us,
         f"{res.degradation_events} daemons degraded"),
        ("uncoordinated baseline", res.uncoordinated_us, ""),
        (f"{res.drop_prob:.0%} message drop + retransmit", res.drop_us,
         f"{res.drop_net_drops} drops, {res.drop_retransmits} retx, "
         f"{res.drop_forced} forced"),
        ("daemon killed on every node", res.death_us,
         f"{res.death_restarts} watchdog restarts"),
    ]
    table = text_table(
        ["scenario", "mean allreduce_us", "resilience activity"],
        rows,
        title=(
            f"E8: fault injection & resilience, {res.n_ranks} ranks "
            f"(compressed {res.time_compression:.0f}x)"
        ),
        floatfmt="{:.1f}",
    )
    return table + (
        f"timesync loss costs {res.degradation_ratio:.2f}x vs healthy, landing at "
        f"{res.vs_baseline_ratio:.2f}x the uncoordinated baseline —\n"
        "coordination degrades to the paper's no-cosched pathology instead of "
        "hanging; lossy runs complete (no collective deadlock);\n"
        "dead daemons are restarted and re-registered by the watchdog.\n"
    )
