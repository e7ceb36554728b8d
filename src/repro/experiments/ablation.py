"""A1: which modification buys what.

Cumulative build-up from vanilla to the full prototype at a fixed
processor count, mirroring the order the paper introduces the pieces:

1. vanilla (16/node, stock everything)
2. + MP_POLLING_INTERVAL fix (silence the MPI timer threads, §5.3)
3. + big ticks (×25, §3.1.1)
4. + simultaneous cluster-aligned ticks (§3.2.1/§4)
5. + co-scheduler (priority cycling, §4) — still without the RT fixes,
   so priority flips are noticed at tick boundaries
6. + real-time scheduling with reverse-preemption and multi-IPI fixes
   (§3) = the full prototype

Also reports the collective-algorithm ablation (recursive doubling vs
binomial reduce+broadcast) from DESIGN.md §4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analytic.model import AllreduceSeriesModel
from repro.config import CoschedConfig, KernelConfig, MpiConfig
from repro.experiments.common import PROTO16, VANILLA16, make_config
from repro.experiments.reporting import text_table
from repro.experiments.runner import TrialRunner, TrialSpec
from repro.results import register_result

__all__ = ["AblationResult", "run_ablation", "format_ablation"]


@register_result
@dataclass
class AblationResult:
    n_ranks: int
    #: (step label, mean Allreduce µs, improvement vs vanilla)
    steps: list


def _step_configs():
    """(label, kernel, mpi, cosched) per cumulative step."""
    vanilla_k = KernelConfig.vanilla()
    mpi_fix = MpiConfig.with_long_polling()
    steps = [
        ("1 vanilla", vanilla_k, MpiConfig(), CoschedConfig(enabled=False)),
        ("2 +polling fix", vanilla_k, mpi_fix, CoschedConfig(enabled=False)),
        (
            "3 +big ticks",
            vanilla_k.with_options(big_tick_multiplier=25),
            mpi_fix,
            CoschedConfig(enabled=False),
        ),
        (
            "4 +aligned ticks",
            vanilla_k.with_options(
                big_tick_multiplier=25,
                tick_phase="aligned",
                align_ticks_to_global_time=True,
            ),
            mpi_fix,
            CoschedConfig(enabled=False),
        ),
        (
            "5 +cosched (no RT fixes)",
            vanilla_k.with_options(
                big_tick_multiplier=25,
                tick_phase="aligned",
                align_ticks_to_global_time=True,
                daemons_global_queue=True,
            ),
            mpi_fix,
            CoschedConfig(enabled=True),
        ),
        (
            "6 +RT sched fixes (= prototype)",
            PROTO16.kernel(),
            mpi_fix,
            CoschedConfig(enabled=True),
        ),
    ]
    return steps


def _ablation_trial(params: dict) -> dict:
    """One (cumulative step, seed) trial; the step index is pure data and
    the configs rebuild identically in any process (see
    :mod:`repro.experiments.runner`)."""
    _label, kernel, mpi, cosched = _step_configs()[params["step"]]
    n_ranks = params["n_ranks"]
    cfg = make_config(VANILLA16, n_ranks, seed=params["seed"]).replace(
        kernel=kernel, mpi=mpi, cosched=cosched
    )
    model = AllreduceSeriesModel(cfg, n_ranks, 16, seed=params["model_seed"])
    series = model.run_series(params["n_calls"], compute_between_us=200.0)
    return {"mean_us": series.mean_us}


def run_ablation(
    n_ranks: int = 944,
    n_calls: int = 400,
    seed: int = 21,
    n_seeds: int = 3,
    runner: Optional[TrialRunner] = None,
) -> AblationResult:
    """Run the cumulative ablation at *n_ranks*, averaging seeds.

    The 6 steps × *n_seeds* trials are independent and run on *runner*
    (:class:`~repro.experiments.runner.TrialRunner`: workers, journal
    resume, per-trial watchdog, result store; ``None`` runs serially).
    """
    runner = runner or TrialRunner()
    steps = _step_configs()
    specs = [
        TrialSpec(
            key=f"ablation-n{n_ranks}-step{i}-s{k}",
            fn="repro.experiments.ablation:_ablation_trial",
            params=dict(
                step=i,
                n_ranks=n_ranks,
                seed=seed + k,
                model_seed=seed + 31 * k,
                n_calls=n_calls,
            ),
        )
        for i in range(len(steps))
        for k in range(n_seeds)
    ]
    by_key = {o.key: o for o in runner.run(specs)}
    rows = []
    baseline = None
    for i, (label, *_cfgs) in enumerate(steps):
        means = [
            by_key[f"ablation-n{n_ranks}-step{i}-s{k}"].require()["mean_us"]
            for k in range(n_seeds)
        ]
        mean = float(np.mean(means))
        if baseline is None:
            baseline = mean
        rows.append((label, mean, baseline / mean))
    return AblationResult(n_ranks, rows)


def format_ablation(res: AblationResult) -> str:
    """Render the ablation table."""
    return text_table(
        ["step", "allreduce_us", "vs vanilla"],
        [(l, m, f"{r:.2f}x") for l, m, r in res.steps],
        title=f"A1: cumulative ablation at {res.n_ranks} ranks",
    )
