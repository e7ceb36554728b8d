"""Workload-shape experiments: E5 wait-mode tradeoff, E6 noise sensitivity.

* **E5 waitmode** — MP_WAIT_MODE poll vs block.  Polling holds the CPU
  (fast completion, exposed to preemption by daemons); blocking frees it
  (daemons execute in the gaps for free) but pays syscall + interrupt +
  wakeup on *every* message.  Quiet machines favour poll; heavily noisy,
  fully-populated nodes can favour block — the tradeoff behind IBM's
  default and the paper's co-scheduling being worth building at all.
* **E6 sensitivity** — Allreduce-dominated vs wavefront-pipelined
  workloads under identical noise.  The collective-heavy code amplifies
  interference (one laggard blocks everyone at every call); the wavefront
  absorbs part of it in pipeline slack — so parallel-aware scheduling
  buys most where the paper's applications live.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.analytic.model import AllreduceSeriesModel
from repro.apps.aggregate_trace import AggregateTraceConfig, run_aggregate_trace
from repro.apps.sweep import SweepConfig, run_sweep
from repro.config import (
    ClusterConfig,
    KernelConfig,
    MachineConfig,
    MpiConfig,
    NoiseConfig,
)
from repro.daemons.catalog import scale_noise, standard_noise
from repro.experiments.common import PROTO16, VANILLA16, make_config
from repro.experiments.reporting import text_table
from repro.results import register_result
from repro.system import System
from repro.units import s


def _config(n_ranks: int, tpn: int, noise, mpi: MpiConfig, seed: int) -> ClusterConfig:
    return ClusterConfig(
        machine=MachineConfig(n_nodes=-(-n_ranks // tpn), cpus_per_node=tpn),
        kernel=KernelConfig(),
        mpi=mpi,
        noise=noise if noise is not None else NoiseConfig(),
        seed=seed,
    )

__all__ = [
    "WaitModeResult",
    "run_waitmode",
    "format_waitmode",
    "SensitivityResult",
    "run_sensitivity",
    "format_sensitivity",
    "GranularityResult",
    "run_granularity",
    "format_granularity",
]


# ======================================================================
# E5: MP_WAIT_MODE poll vs block
# ======================================================================
@register_result
@dataclass
class WaitModeResult:
    quiet_poll_us: float
    quiet_block_us: float
    noisy_poll_us: float
    noisy_block_us: float
    n_ranks: int
    time_compression: float

    @property
    def quiet_poll_advantage(self) -> float:
        return self.quiet_block_us / self.quiet_poll_us

    @property
    def noisy_block_advantage(self) -> float:
        return self.noisy_poll_us / self.noisy_block_us


def run_waitmode(
    n_ranks: int = 32,
    tpn: int = 16,
    calls: int = 300,
    seed: int = 31,
    time_compression: float = 60.0,
) -> WaitModeResult:
    """Run the 2x2 poll/block x quiet/noisy comparison."""
    noisy = scale_noise(standard_noise(include_cron=False), time_compression)
    results = {}
    for noise_label, noise in (("quiet", None), ("noisy", noisy)):
        for mode in ("poll", "block"):
            cfg = _config(
                n_ranks, tpn, noise,
                MpiConfig(progress_threads_enabled=False, wait_mode=mode),
                seed,
            )
            system = System(cfg)
            res = run_aggregate_trace(
                system, n_ranks, tpn,
                AggregateTraceConfig(calls_per_loop=calls, compute_between_us=200.0),
            )
            results[(noise_label, mode)] = res.mean_us
    return WaitModeResult(
        quiet_poll_us=results[("quiet", "poll")],
        quiet_block_us=results[("quiet", "block")],
        noisy_poll_us=results[("noisy", "poll")],
        noisy_block_us=results[("noisy", "block")],
        n_ranks=n_ranks,
        time_compression=time_compression,
    )


def format_waitmode(res: WaitModeResult) -> str:
    """Render the E5 table and advantage lines."""
    rows = [
        ("quiet machine", res.quiet_poll_us, res.quiet_block_us),
        (f"noisy machine ({res.time_compression:.0f}x compressed)",
         res.noisy_poll_us, res.noisy_block_us),
    ]
    table = text_table(
        ["environment", "poll_us", "block_us"],
        rows,
        title=f"E5: MP_WAIT_MODE on {res.n_ranks} fully-populated ranks",
    )
    return table + (
        f"poll advantage when quiet : {res.quiet_poll_advantage:.2f}x\n"
        f"block advantage when noisy: {res.noisy_block_advantage:.2f}x\n"
    )


# ======================================================================
# E6: workload noise sensitivity
# ======================================================================
@register_result
@dataclass
class SensitivityResult:
    collective_quiet_us: float
    collective_noisy_us: float
    wavefront_quiet_us: float
    wavefront_noisy_us: float
    n_ranks: int
    time_compression: float

    @property
    def collective_slowdown(self) -> float:
        return self.collective_noisy_us / self.collective_quiet_us

    @property
    def wavefront_slowdown(self) -> float:
        return self.wavefront_noisy_us / self.wavefront_quiet_us


def run_sensitivity(
    n_ranks: int = 32,
    tpn: int = 16,
    seed: int = 37,
    time_compression: float = 60.0,
) -> SensitivityResult:
    """Run collective-heavy vs wavefront workloads under identical noise."""
    noisy = scale_noise(standard_noise(include_cron=False), time_compression)

    def build(noise):
        return System(
            _config(n_ranks, tpn, noise, MpiConfig(progress_threads_enabled=False), seed)
        )

    atc = AggregateTraceConfig(calls_per_loop=400, compute_between_us=200.0)
    swc = SweepConfig(sweeps=12, planes=12)

    coll_q = run_aggregate_trace(build(NoiseConfig()), n_ranks, tpn, atc).elapsed_us
    coll_n = run_aggregate_trace(build(noisy), n_ranks, tpn, atc).elapsed_us
    wave_q = run_sweep(build(NoiseConfig()), n_ranks, tpn, swc).elapsed_us
    wave_n = run_sweep(build(noisy), n_ranks, tpn, swc).elapsed_us
    return SensitivityResult(coll_q, coll_n, wave_q, wave_n, n_ranks, time_compression)


# ======================================================================
# E7: granularity — how cycle length gates the damage (paper §2)
# ======================================================================
@dataclass
class GranularityResult:
    """Bulk-synchronous efficiency vs computation-phase length.

    Paper §2: "The importance of these collective synchronizing operations
    is dependent on the duration of computation and communication periods.
    Typical cycles last anywhere from a few milliseconds to many seconds."
    Short cycles synchronise constantly and feel every interruption; long
    cycles amortise them.
    """

    compute_us: np.ndarray
    vanilla_efficiency: np.ndarray
    prototype_efficiency: np.ndarray
    n_ranks: int


def run_granularity(
    n_ranks: int = 944,
    compute_grid=(500.0, 2_000.0, 8_000.0, 32_000.0, 128_000.0),
    n_calls: int = 200,
    seed: int = 41,
) -> GranularityResult:
    """Model one Allreduce per cycle of varying compute length; efficiency
    is ideal cycle time over measured cycle time."""
    # Zero-noise baseline for the ideal collective cost.
    quiet = make_config(VANILLA16, n_ranks, seed=seed).replace(
        noise=NoiseConfig(), mpi=MpiConfig.with_long_polling()
    )
    base = AllreduceSeriesModel(quiet, n_ranks, 16, seed=seed).run_series(30).mean_us

    out = {}
    for scenario in (VANILLA16, PROTO16):
        effs = []
        for g in compute_grid:
            cfg = make_config(scenario, n_ranks, seed=seed)
            model = AllreduceSeriesModel(cfg, n_ranks, scenario.tasks_per_node, seed=seed + int(g))
            measured = model.run_series(n_calls, compute_between_us=g).mean_us
            effs.append((g + base) / (g + measured))
        out[scenario.name] = np.asarray(effs)
    return GranularityResult(
        np.asarray(compute_grid), out["vanilla16"], out["proto16"], n_ranks
    )


def format_granularity(res: GranularityResult) -> str:
    """Render the E7 efficiency table."""
    rows = [
        (f"{g / 1e3:.1f}", float(v), float(p))
        for g, v, p in zip(res.compute_us, res.vanilla_efficiency, res.prototype_efficiency)
    ]
    table = text_table(
        ["cycle compute (ms)", "vanilla eff.", "prototype eff."],
        rows,
        title=f"E7: BSP efficiency vs granularity at {res.n_ranks} ranks (1 Allreduce/cycle)",
        floatfmt="{:.3f}",
    )
    return table + (
        "Fine-grain cycles feel every interruption; co-scheduling recovers\n"
        "most of the loss exactly where the paper's applications live.\n"
    )


def format_sensitivity(res: SensitivityResult) -> str:
    """Render the E6 table."""
    rows = [
        ("allreduce-dominated (aggregate)", res.collective_quiet_us / 1e3,
         res.collective_noisy_us / 1e3, res.collective_slowdown),
        ("wavefront-pipelined (sweep)", res.wavefront_quiet_us / 1e3,
         res.wavefront_noisy_us / 1e3, res.wavefront_slowdown),
    ]
    table = text_table(
        ["workload", "quiet_ms", "noisy_ms", "slowdown"],
        rows,
        title=(
            f"E6: noise sensitivity by communication shape, {res.n_ranks} ranks "
            f"(noise compressed {res.time_compression:.0f}x)"
        ),
        floatfmt="{:.2f}",
    )
    return table + (
        "Synchronising collectives amplify interference; pipelined\n"
        "wavefronts absorb part of it — the paper's co-scheduling matters\n"
        "most at the collective-heavy end.\n"
    )
