"""T4: the ALE3D I/O starvation episode and its priority-placement fix.

Paper §5.3: "The first tests of ALE3D were very disappointing: the
co-scheduler actually slowed it down.  Profiling revealed that slower I/O
was the cause … limiting I/O daemons to just 10 % of a 5 second window
starved them.  To fix this problem we adjusted the favored priority to
just above that of key I/O daemons."  With the fix, the full treatment
cut the run time 24 % (1315 s → 1152 s at 944 processors).

Three DES runs of the ALE3D proxy (reduced scale; co-scheduler period and
noise compressed by a stated factor so several windows fit in the run):

1. **vanilla** — standard kernel, no co-scheduler;
2. **naive cosched** — favored priority 30, *better* than the I/O worker
   (40): I/O phases starve in the favored window → slower than vanilla;
3. **tuned cosched** — favored priority 41, just *worse* than the I/O
   worker: I/O daemons preempt the app when needed → fastest.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.ale3d import Ale3dConfig, run_ale3d
from repro.config import CoschedConfig
from repro.daemons.catalog import scale_noise, standard_noise
from repro.experiments.common import PROTO16, VANILLA16, make_config
from repro.experiments.reporting import text_table
from repro.results import register_result
from repro.system import System
from repro.units import ms, s

__all__ = ["Ale3dIoResult", "run_ale3d_io", "format_ale3d_io"]

#: I/O worker (mmfsd service path) priority — between the naive and tuned
#: favored values, which is the whole story.
IO_PRIORITY = 40


@register_result
@dataclass
class Ale3dIoResult:
    vanilla_us: float
    naive_cosched_us: float
    tuned_cosched_us: float
    vanilla_io_us: float
    naive_io_us: float
    tuned_io_us: float
    n_ranks: int
    time_compression: float

    @property
    def naive_slowdown(self) -> float:
        """Naive co-scheduling vs vanilla (>1 = slower, the paper's fiasco)."""
        return self.naive_cosched_us / self.vanilla_us

    @property
    def tuned_improvement_percent(self) -> float:
        """Run-time reduction of the tuned setup vs vanilla (paper: 24%)."""
        return 100.0 * (1.0 - self.tuned_cosched_us / self.vanilla_us)


def run_ale3d_io(
    n_ranks: int = 32,
    seed: int = 9,
    time_compression: float = 25.0,
    timesteps: int = 40,
) -> Ale3dIoResult:
    """Run the three ALE3D configurations (vanilla / naive / tuned)."""
    noise = scale_noise(standard_noise(include_cron=False), time_compression)
    app = Ale3dConfig(timesteps=timesteps)
    period = s(5) / time_compression
    # The co-scheduler's window flips are tick-quantised; with the period
    # compressed below the prototype's 250 ms big tick, compress the tick
    # multiplier alongside so the configured duty cycle stays meaningful.
    big_tick = max(1, int(round(25 / time_compression)))

    def run(kernel_scenario, cosched: CoschedConfig):
        cfg = make_config(kernel_scenario, n_ranks, seed=seed, noise=noise).replace(
            cosched=cosched
        )
        if cfg.kernel.big_tick_multiplier > 1:
            cfg = cfg.replace(kernel=cfg.kernel.with_options(big_tick_multiplier=big_tick))
        system = System(cfg, with_io=True, io_priority=IO_PRIORITY)
        res = run_ale3d(system, n_ranks, 16, app, horizon_us=s(600))
        return res.elapsed_us, res.io_time_us

    vanilla_us, vanilla_io = run(VANILLA16, CoschedConfig(enabled=False))
    naive = CoschedConfig(
        enabled=True, period_us=period, duty_cycle=0.90,
        favored_priority=30, unfavored_priority=100,
    )
    naive_us, naive_io = run(PROTO16, naive)
    tuned = CoschedConfig(
        enabled=True, period_us=period, duty_cycle=0.90,
        favored_priority=IO_PRIORITY + 1, unfavored_priority=100,
    )
    tuned_us, tuned_io = run(PROTO16, tuned)
    return Ale3dIoResult(
        vanilla_us, naive_us, tuned_us,
        vanilla_io, naive_io, tuned_io,
        n_ranks, time_compression,
    )


def format_ale3d_io(res: Ale3dIoResult) -> str:
    """Render the T4 table and the paper comparison lines."""
    rows = [
        ("vanilla (no cosched)", res.vanilla_us / 1e6, res.vanilla_io_us / 1e6, 1.0),
        ("naive cosched (fav 30 < io 40)", res.naive_cosched_us / 1e6,
         res.naive_io_us / 1e6, res.naive_cosched_us / res.vanilla_us),
        ("tuned cosched (fav 41 > io 40)", res.tuned_cosched_us / 1e6,
         res.tuned_io_us / 1e6, res.tuned_cosched_us / res.vanilla_us),
    ]
    table = text_table(
        ["configuration", "elapsed_s", "io_s", "vs vanilla"],
        rows,
        title=(
            f"T4: ALE3D proxy, {res.n_ranks} ranks "
            f"(noise/schedule time-compressed {res.time_compression:.0f}x)"
        ),
        floatfmt="{:.3f}",
    )
    return table + (
        f"naive co-scheduling slowdown : {res.naive_slowdown:.2f}x (paper: slower than vanilla)\n"
        f"tuned co-scheduling gain     : {res.tuned_improvement_percent:.0f}% "
        f"(paper: 24% — 1315 s -> 1152 s)\n"
    )
