"""Extension experiments: beyond the paper's tables (DESIGN.md §4, paper §7).

* **E1 multijob** — two fine-grain jobs co-located on one machine:
  uncoordinated timesharing vs gang scheduling (the related-work baseline
  of §6, category 1).  Shows why dedicated-usage centers care about
  coordination at *some* granularity, and why the paper still needed
  finer-than-gang treatment for the single-job case.
* **E2 hw_collectives** — the paper's §7 "hardware assisted collectives"
  future-work item: switch-combined Allreduce vs the software tree under
  the same noise, at paper scale.
* **E3 fine_grain** — §7's "mechanism for parallel applications to
  establish when they are entering and exiting fine-grain regions":
  region-scoped boosting avoids the ALE3D I/O starvation *without* the
  per-daemon priority tuning of T4.
* **E4 misalignment** — why the switch-clock synchronisation matters (and
  why "NTP must be turned off"): the same co-scheduler with unsynchronised
  node clocks loses most of its benefit because the favored windows no
  longer coincide across nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analytic.model import AllreduceSeriesModel
from repro.apps.aggregate_trace import (
    AggregateTraceConfig,
    aggregate_trace_body,
    run_aggregate_trace,
)
from repro.apps.ale3d import Ale3dConfig, run_ale3d
from repro.config import (
    ClusterConfig,
    CoschedConfig,
    FaultConfig,
    KernelConfig,
    MachineConfig,
    MpiConfig,
)
from repro.cosched.gang import GangConfig, GangScheduler
from repro.daemons.catalog import scale_noise, standard_noise
from repro.experiments.common import PROTO16, VANILLA16, make_config
from repro.experiments.reporting import text_table
from repro.machine import Cluster
from repro.mpi.world import MpiJob, run_jobs
from repro.system import System
from repro.units import ms, s

__all__ = [
    "MultijobResult",
    "run_multijob",
    "format_multijob",
    "HwCollectivesResult",
    "run_hw_collectives",
    "format_hw_collectives",
    "FineGrainResult",
    "run_fine_grain",
    "format_fine_grain",
    "MisalignmentResult",
    "compressed_cosched_config",
    "run_misalignment",
    "format_misalignment",
]


# ======================================================================
# E1: multi-job — uncoordinated timesharing vs gang scheduling
# ======================================================================
@dataclass
class MultijobResult:
    """Three coordination regimes over the same co-located job pair:
    none, demand-based (message-driven boosting, the NOW lineage), and
    gang (slotted, the dedicated-center lineage)."""

    uncoordinated_allreduce_us: float
    demand_allreduce_us: float
    gang_allreduce_us: float
    uncoordinated_makespan_us: float
    demand_makespan_us: float
    gang_makespan_us: float
    #: Gap between the two jobs' finish times — the fairness axis on which
    #: the regimes differ (demand-based boosting converges to de-facto
    #: serial batching: superb per-op latency, worst-case turnaround for
    #: whoever loses the race; gang slots share the machine evenly).
    uncoordinated_finish_spread_us: float
    demand_finish_spread_us: float
    gang_finish_spread_us: float
    n_ranks_per_job: int
    slot_us: float

    @property
    def per_op_improvement(self) -> float:
        return self.uncoordinated_allreduce_us / self.gang_allreduce_us

    @property
    def demand_improvement(self) -> float:
        return self.uncoordinated_allreduce_us / self.demand_allreduce_us


def _run_pair(cluster: Cluster, n_ranks: int, tpn: int, calls: int, mode: str, slot_us: float):
    """Launch two identical Allreduce jobs sharing the same CPUs under the
    given coordination regime ('none' | 'demand' | 'gang')."""
    from repro.cosched.demand import DemandConfig, DemandCoscheduler

    sinks = []
    jobs = []
    placement = cluster.place(n_ranks, tpn)
    for j in range(2):
        sink: dict = {}
        sinks.append(sink)
        body = aggregate_trace_body(
            AggregateTraceConfig(calls_per_loop=calls, compute_between_us=200.0),
            sink,
            node0_ranks=set(),
        )
        jobs.append(
            MpiJob(cluster, placement, body, config=cluster.config.mpi, name=f"job{j}")
        )
    if mode == "gang":
        GangScheduler(cluster, jobs, GangConfig(slot_us=slot_us))
    elif mode == "demand":
        for job in jobs:
            DemandCoscheduler(cluster, job, DemandConfig())
    run_jobs(jobs, horizon_us=s(600))
    means = [float(np.mean(sink[0][0])) for sink in sinks]
    finishes = [job.finish_time for job in jobs]
    return float(np.mean(means)), max(finishes), max(finishes) - min(finishes)


def run_multijob(
    n_ranks: int = 16,
    tpn: int = 8,
    calls: int = 200,
    slot_us: float = ms(200),
    seed: int = 17,
) -> MultijobResult:
    """Run the co-located pair under none / demand / gang coordination."""
    def fresh_cluster():
        return Cluster(
            ClusterConfig(
                machine=MachineConfig(n_nodes=-(-n_ranks // tpn), cpus_per_node=tpn),
                mpi=MpiConfig(progress_threads_enabled=False),
                kernel=KernelConfig(),
                seed=seed,
            )
        )

    un_mean, un_makespan, un_spread = _run_pair(fresh_cluster(), n_ranks, tpn, calls, "none", slot_us)
    d_mean, d_makespan, d_spread = _run_pair(fresh_cluster(), n_ranks, tpn, calls, "demand", slot_us)
    g_mean, g_makespan, g_spread = _run_pair(fresh_cluster(), n_ranks, tpn, calls, "gang", slot_us)
    return MultijobResult(
        un_mean, d_mean, g_mean,
        un_makespan, d_makespan, g_makespan,
        un_spread, d_spread, g_spread,
        n_ranks, slot_us,
    )


def format_multijob(res: MultijobResult) -> str:
    """Render the E1 three-regime table."""
    rows = [
        ("uncoordinated timeshare", res.uncoordinated_allreduce_us,
         res.uncoordinated_makespan_us / 1e6, res.uncoordinated_finish_spread_us / 1e6),
        ("demand-based cosched [Sobalvarro97]", res.demand_allreduce_us,
         res.demand_makespan_us / 1e6, res.demand_finish_spread_us / 1e6),
        (f"gang scheduled ({res.slot_us/1e3:.0f} ms slots)", res.gang_allreduce_us,
         res.gang_makespan_us / 1e6, res.gang_finish_spread_us / 1e6),
    ]
    table = text_table(
        ["two co-located jobs", "mean allreduce_us", "makespan_s", "finish_spread_s"],
        rows,
        title=f"E1: 2 x {res.n_ranks_per_job}-rank fine-grain jobs sharing the CPUs",
        floatfmt="{:.3f}",
    )
    return table + (
        f"demand-based improvement: {res.demand_improvement:.1f}x;  "
        f"gang improvement: {res.per_op_improvement:.1f}x\n"
        "Demand boosting self-organises into serial batching: superb per-op\n"
        "latency but one job waits out the other (finish spread) — the\n"
        "throughput-vs-turnaround tension behind the paper's category split.\n"
    )


# ======================================================================
# E2: hardware-assisted collectives (paper §7)
# ======================================================================
@dataclass
class HwCollectivesResult:
    proc_counts: np.ndarray
    software_us: np.ndarray
    hardware_us: np.ndarray

    def ratio_at_max(self) -> float:
        """software/hardware latency ratio at the largest processor count."""
        return float(self.software_us[-1] / self.hardware_us[-1])


def run_hw_collectives(
    proc_counts=(128, 512, 944, 1728), n_calls: int = 300, seed: int = 19
) -> HwCollectivesResult:
    """Sweep software vs hardware Allreduce at paper scales."""
    sw, hw = [], []
    for n in proc_counts:
        base = make_config(VANILLA16, n, seed=seed)
        m_sw = AllreduceSeriesModel(base, n, 16, seed=seed + n)
        sw.append(m_sw.run_series(n_calls, 200.0).mean_us)
        hw_cfg = base.replace(mpi=MpiConfig(algorithm="hardware"))
        m_hw = AllreduceSeriesModel(hw_cfg, n, 16, seed=seed + n)
        hw.append(m_hw.run_series(n_calls, 200.0).mean_us)
    return HwCollectivesResult(
        np.asarray(proc_counts), np.asarray(sw), np.asarray(hw)
    )


def format_hw_collectives(res: HwCollectivesResult) -> str:
    """Render the E2 table."""
    rows = [
        (int(n), float(s_), float(h), float(s_ / h))
        for n, s_, h in zip(res.proc_counts, res.software_us, res.hardware_us)
    ]
    table = text_table(
        ["procs", "software_us", "hardware_us", "ratio"],
        rows,
        title="E2: software tree vs switch-combined Allreduce (vanilla noise)",
    )
    return table + (
        "Hardware collectives remove the log-depth cascade but keep the\n"
        "slowest-deposit sensitivity — they complement, not replace,\n"
        "co-scheduling (as the paper's future work anticipates).\n"
    )


# ======================================================================
# E3: fine-grain region hints (paper §7)
# ======================================================================
@dataclass
class FineGrainResult:
    vanilla_us: float
    always_on_us: float
    fine_grain_us: float
    vanilla_io_us: float
    always_on_io_us: float
    fine_grain_io_us: float
    n_ranks: int
    time_compression: float

    @property
    def fine_grain_gain_percent(self) -> float:
        return 100.0 * (1.0 - self.fine_grain_us / self.vanilla_us)


def run_fine_grain(
    n_ranks: int = 32,
    seed: int = 23,
    time_compression: float = 25.0,
    timesteps: int = 40,
) -> FineGrainResult:
    """ALE3D with an *untuned* favored priority (30, better than the I/O
    daemons): always-on co-scheduling starves I/O (T4's fiasco); region
    hints confine the boost to the collective sections, so I/O drains
    behind compute at normal priority — no per-daemon tuning needed."""
    noise = scale_noise(standard_noise(include_cron=False), time_compression)
    period = s(5) / time_compression
    big_tick = max(1, int(round(25 / time_compression)))

    def run(cosched: CoschedConfig | None, hints: bool):
        scenario = PROTO16 if cosched else VANILLA16
        cfg = make_config(scenario, n_ranks, seed=seed, noise=noise).replace(
            cosched=cosched if cosched else CoschedConfig(enabled=False)
        )
        if cfg.kernel.big_tick_multiplier > 1:
            cfg = cfg.replace(kernel=cfg.kernel.with_options(big_tick_multiplier=big_tick))
        system = System(cfg, with_io=True, io_priority=40)
        app = Ale3dConfig(timesteps=timesteps, use_fine_grain_hints=hints)
        res = run_ale3d(system, n_ranks, 16, app, horizon_us=s(600))
        return res.elapsed_us, res.io_time_us

    vanilla, vanilla_io = run(None, hints=False)
    naive = CoschedConfig(enabled=True, period_us=period, duty_cycle=0.90,
                          favored_priority=30, unfavored_priority=100)
    always, always_io = run(naive, hints=False)
    fg = CoschedConfig(enabled=True, period_us=period, duty_cycle=0.90,
                       favored_priority=30, unfavored_priority=100,
                       fine_grain_only=True)
    fine, fine_io = run(fg, hints=True)
    return FineGrainResult(
        vanilla, always, fine, vanilla_io, always_io, fine_io, n_ranks, time_compression
    )


def format_fine_grain(res: FineGrainResult) -> str:
    """Render the E3 table."""
    rows = [
        ("vanilla (no cosched)", res.vanilla_us / 1e6, res.vanilla_io_us / 1e6),
        ("cosched always-on (fav 30)", res.always_on_us / 1e6, res.always_on_io_us / 1e6),
        ("cosched fine-grain-only (fav 30)", res.fine_grain_us / 1e6, res.fine_grain_io_us / 1e6),
    ]
    table = text_table(
        ["configuration", "elapsed_s", "io_s"],
        rows,
        title=(
            f"E3: ALE3D with fine-grain region hints, {res.n_ranks} ranks "
            f"(compressed {res.time_compression:.0f}x)"
        ),
        floatfmt="{:.3f}",
    )
    return table + (
        f"fine-grain hints vs vanilla: {res.fine_grain_gain_percent:.0f}% gain, "
        f"with the untuned favored priority that starves I/O when always-on\n"
    )


# ======================================================================
# E4: clock misalignment (why the switch clock + NTP-off matter)
# ======================================================================
@dataclass
class MisalignmentResult:
    synced_us: float
    unsynced_us: float
    n_ranks: int
    time_compression: float

    @property
    def degradation(self) -> float:
        return self.unsynced_us / self.synced_us


def compressed_cosched_config(
    n_ranks: int,
    tpn: int,
    seed: int,
    time_compression: float,
    sync: bool = True,
    faults: FaultConfig = FaultConfig(),
) -> ClusterConfig:
    """The co-scheduled machine of E4 and E8, in compressed time.

    Prototype kernel with the big tick, co-scheduler period and daemon
    noise all compressed *time_compression*-fold (period ``s(5)`` and
    big tick 25 at 1x), 90 % duty, long polling without progress
    threads, *tpn* CPUs per node.  *sync* is the co-scheduler's switch
    clock; *faults* is E8's fault plane.
    """
    kernel = KernelConfig.prototype(big_tick=max(1, int(round(25 / time_compression))))
    if not sync:
        # Without synchronised clocks, cluster-wide tick alignment is
        # fictional too.
        kernel = kernel.with_options(align_ticks_to_global_time=False)
    return ClusterConfig(
        machine=MachineConfig(n_nodes=-(-n_ranks // tpn), cpus_per_node=tpn),
        kernel=kernel,
        cosched=CoschedConfig(
            enabled=True, period_us=s(5) / time_compression, duty_cycle=0.90, sync_clock=sync
        ),
        mpi=MpiConfig.with_long_polling(progress_threads_enabled=False),
        noise=scale_noise(standard_noise(include_cron=False), time_compression),
        faults=faults,
        seed=seed,
    )


def run_misalignment(
    n_ranks: int = 32,
    tpn: int = 8,
    calls: int = 1500,
    seed: int = 29,
    n_seeds: int = 2,
    time_compression: float = 50.0,
) -> MisalignmentResult:
    """Runs must span several co-scheduler periods, or the comparison just
    samples where one window happened to land; with the compression below,
    each run covers ~5 periods and results are averaged over seeds."""

    def run(sync: bool) -> float:
        means = []
        for k in range(n_seeds):
            cfg = compressed_cosched_config(n_ranks, tpn, seed + k, time_compression, sync)
            res = run_aggregate_trace(
                System(cfg), n_ranks, tpn,
                AggregateTraceConfig(calls_per_loop=calls, compute_between_us=200.0),
            )
            means.append(res.mean_us)
        return float(np.mean(means))

    return MisalignmentResult(run(True), run(False), n_ranks, time_compression)


def format_misalignment(res: MisalignmentResult) -> str:
    """Render the E4 table."""
    rows = [
        ("switch-clock synced", res.synced_us),
        ("unsynced (NTP drift)", res.unsynced_us),
    ]
    table = text_table(
        ["co-scheduler clocks", "mean allreduce_us"],
        rows,
        title=(
            f"E4: window alignment, {res.n_ranks} ranks "
            f"(compressed {res.time_compression:.0f}x)"
        ),
    )
    return table + (
        f"misaligned windows cost {res.degradation:.2f}x — the paper's §4 "
        f"synchronisation (and NTP-off rule) is load-bearing\n"
    )
