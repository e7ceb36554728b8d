"""T3: MPI timer ("progress engine") thread interference and the
``MP_POLLING_INTERVAL`` remedy.

Paper §5.3: auxiliary threads of the user processes — the MPI timer
threads, running every 400 ms — disrupted tightly synchronised Allreduces
even at that long period ("in the case of one Allreduce that took 6.7
msec, the auxiliary threads consumed 4.5 msec of run time spread over
several nodes").  Setting ``MP_POLLING_INTERVAL`` to ~400 seconds removed
the interference.

Both layers demonstrate it:

* DES (mechanism): a quiet cluster — no daemons, only timer threads —
  still shows Allreduce outliers that vanish with the long polling
  interval.
* Vectorised model (scale): the timer threads alone bend the scaling
  curve at paper processor counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analytic.model import AllreduceSeriesModel
from repro.apps.aggregate_trace import AggregateTraceConfig, run_aggregate_trace
from repro.config import MpiConfig, NoiseConfig
from repro.experiments.common import VANILLA16, make_config
from repro.experiments.reporting import text_table
from repro.results import register_result
from repro.system import System
from repro.units import ms, s

__all__ = ["TimerThreadsResult", "run_timer_threads", "format_timer_threads"]


@register_result
@dataclass
class TimerThreadsResult:
    # DES (small scale, timer period compressed so hits land in-window).
    des_mean_default_us: float
    des_max_default_us: float
    des_mean_fixed_us: float
    des_max_fixed_us: float
    des_n_ranks: int
    des_timer_period_us: float
    # Model (paper scale).
    model_mean_default_us: float
    model_mean_fixed_us: float
    model_n_ranks: int

    @property
    def des_tail_reduction(self) -> float:
        return self.des_max_default_us / self.des_max_fixed_us

    @property
    def model_improvement(self) -> float:
        return self.model_mean_default_us / self.model_mean_fixed_us


def run_timer_threads(
    des_ranks: int = 32,
    n_calls: int = 400,
    model_ranks: int = 944,
    seed: int = 5,
    des_timer_period_us: float = ms(20),
) -> TimerThreadsResult:
    """Run the DES (mechanism) and model (scale) timer-thread studies."""
    # ---- DES: quiet cluster, timer threads the only noise --------------
    quiet = NoiseConfig()
    des_stats = {}
    for label, mpi in (
        ("default", MpiConfig(progress_interval_us=des_timer_period_us)),
        ("fixed", MpiConfig.with_long_polling()),
    ):
        cfg = make_config(VANILLA16, des_ranks, seed=seed, noise=quiet).replace(mpi=mpi)
        system = System(cfg)
        res = run_aggregate_trace(
            system,
            des_ranks,
            16,
            AggregateTraceConfig(calls_per_loop=n_calls, compute_between_us=150.0),
            horizon_us=s(60),
        )
        des_stats[label] = (res.mean_us, res.max_us)

    # ---- model: paper scale, true 400 ms period -------------------------
    model_stats = {}
    for label, mpi in (("default", MpiConfig()), ("fixed", MpiConfig.with_long_polling())):
        cfg = make_config(VANILLA16, model_ranks, seed=seed, noise=quiet).replace(mpi=mpi)
        model = AllreduceSeriesModel(cfg, model_ranks, 16, seed=seed)
        model_stats[label] = model.run_series(n_calls, compute_between_us=200.0).mean_us

    return TimerThreadsResult(
        des_mean_default_us=des_stats["default"][0],
        des_max_default_us=des_stats["default"][1],
        des_mean_fixed_us=des_stats["fixed"][0],
        des_max_fixed_us=des_stats["fixed"][1],
        des_n_ranks=des_ranks,
        des_timer_period_us=des_timer_period_us,
        model_mean_default_us=model_stats["default"],
        model_mean_fixed_us=model_stats["fixed"],
        model_n_ranks=model_ranks,
    )


def format_timer_threads(res: TimerThreadsResult) -> str:
    """Render both T3 tables."""
    des = text_table(
        ["MP_POLLING_INTERVAL", "mean_us", "max_us"],
        [
            (f"{res.des_timer_period_us / 1000:.0f} ms (compressed default)",
             res.des_mean_default_us, res.des_max_default_us),
            ("400 s (the fix)", res.des_mean_fixed_us, res.des_max_fixed_us),
        ],
        title=f"T3 (DES, {res.des_n_ranks} ranks, no daemons — timer threads only)",
    )
    model = text_table(
        ["MP_POLLING_INTERVAL", "mean_us"],
        [
            ("400 ms (default)", res.model_mean_default_us),
            ("400 s (the fix)", res.model_mean_fixed_us),
        ],
        title=f"T3 (model, {res.model_n_ranks} ranks)",
    )
    return (
        des
        + f"tail reduction: {res.des_tail_reduction:.1f}x\n\n"
        + model
        + f"mean improvement at scale: {res.model_improvement:.2f}x\n"
    )
