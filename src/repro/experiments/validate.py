"""Self-validation: quick checks that the calibrated system still
reproduces its anchors (EXPERIMENTS.md "Calibration provenance").

`repro-experiments validate` runs in under a minute and reports PASS/FAIL
per anchor — the thing to run after touching the daemon catalog, the
scheduler, or the network parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.analytic.fits import compare_fits
from repro.analytic.model import AllreduceSeriesModel
from repro.apps.aggregate_trace import AggregateTraceConfig, run_aggregate_trace
from repro.config import ClusterConfig, KernelConfig, MachineConfig, MpiConfig, NoiseConfig
from repro.daemons.catalog import standard_noise
from repro.experiments.common import PROTO16, VANILLA16, allreduce_sweep, make_config
from repro.experiments.reporting import text_table
from repro.experiments.runner import TrialRunner, TrialSpec
from repro.system import System

__all__ = ["ValidationCheck", "run_validation", "format_validation"]


@dataclass
class ValidationCheck:
    name: str
    passed: bool
    detail: str


def _check_noise_budget(_runner: Optional[TrialRunner] = None) -> ValidationCheck:
    """Anchor 1: total system overhead 0.2%-1.1% of each CPU."""
    frac = standard_noise(include_cron=False).total_cpu_fraction(16)
    tick = KernelConfig().tick_cost_us / KernelConfig().tick_period_us
    total = frac + tick
    return ValidationCheck(
        "noise budget in paper envelope",
        0.002 <= total <= 0.011,
        f"daemons {100 * frac:.3f}% + ticks {100 * tick:.3f}% per CPU",
    )


def _check_base_latency(_runner: Optional[TrialRunner] = None) -> ValidationCheck:
    """Anchor 2: zero-noise Allreduce near the paper's ~350 us model."""
    cfg = make_config(VANILLA16, 944, seed=0).replace(
        noise=NoiseConfig(), mpi=MpiConfig.with_long_polling()
    )
    mean = AllreduceSeriesModel(cfg, 944, 16, seed=0).run_series(20).mean_us
    return ValidationCheck(
        "zero-noise base near paper model",
        150.0 <= mean <= 600.0,
        f"{mean:.0f} us at 944 ranks (paper model: ~350 us)",
    )


def _check_vanilla_slope(runner: Optional[TrialRunner] = None) -> ValidationCheck:
    """Anchor 3: vanilla Figure-3 slope near the paper's 0.70 us/CPU."""
    sweep = allreduce_sweep(
        VANILLA16,
        proc_counts=(128, 512, 944, 1360, 1728),
        n_calls=200,
        n_seeds=2,
        runner=runner,
    )
    lin, _log, winner = compare_fits(sweep.proc_counts, sweep.mean_us)
    ok = winner == "linear" and 0.4 <= lin.slope <= 1.1
    return ValidationCheck(
        "vanilla scaling linear, slope near 0.70",
        ok,
        f"{lin} (best fit: {winner})",
    )


def _check_prototype_factor(runner: Optional[TrialRunner] = None) -> ValidationCheck:
    """Anchor 4: prototype beats vanilla by roughly the paper's factor."""
    runner = runner or TrialRunner()
    specs = [
        TrialSpec(
            key=f"validate-factor-{scenario.name}-s{k}",
            fn="repro.experiments.common:_allreduce_trial",
            params=dict(
                scenario=scenario,
                n_ranks=944,
                seed=50 + k,
                model_seed=60 + k,
                n_calls=200,
                compute_between_us=200.0,
            ),
        )
        for scenario in (VANILLA16, PROTO16)
        for k in range(2)
    ]
    by_key = {o.key: o for o in runner.run(specs)}
    means = {
        scenario.name: float(
            np.mean(
                [
                    by_key[f"validate-factor-{scenario.name}-s{k}"].require()["mean_us"]
                    for k in range(2)
                ]
            )
        )
        for scenario in (VANILLA16, PROTO16)
    }
    ratio = means["vanilla16"] / means["proto16"]
    return ValidationCheck(
        "prototype factor at 944 CPUs",
        1.7 <= ratio <= 5.0,
        f"{ratio:.2f}x (paper: ~3x)",
    )


def _check_des_model_agreement(_runner: Optional[TrialRunner] = None) -> ValidationCheck:
    """Anchor 5: DES and vectorised model agree on a quiet base case."""
    cfg = ClusterConfig(
        machine=MachineConfig(n_nodes=2, cpus_per_node=8),
        mpi=MpiConfig(progress_threads_enabled=False),
        noise=NoiseConfig(),
        seed=1,
    )
    des = run_aggregate_trace(
        System(cfg), 16, 8, AggregateTraceConfig(calls_per_loop=64, compute_between_us=0.0)
    ).median_us
    model = AllreduceSeriesModel(cfg, 16, 8, seed=1).run_series(64).median_us
    ratio = des / model
    return ValidationCheck(
        "DES vs model base-latency agreement",
        0.6 <= ratio <= 1.6,
        f"DES {des:.0f} us vs model {model:.0f} us (ratio {ratio:.2f})",
    )


CHECKS: tuple[Callable[[Optional[TrialRunner]], ValidationCheck], ...] = (
    _check_noise_budget,
    _check_base_latency,
    _check_vanilla_slope,
    _check_prototype_factor,
    _check_des_model_agreement,
)


def run_validation(runner: Optional[TrialRunner] = None) -> list[ValidationCheck]:
    """Run every calibration anchor check; heavy anchors run their trials
    on *runner* (``None``: serially, with no journal and no store)."""
    runner = runner or TrialRunner()
    return [check(runner) for check in CHECKS]


def format_validation(checks: list[ValidationCheck]) -> str:
    """Render the PASS/FAIL table with a verdict line."""
    rows = [
        ("PASS" if c.passed else "FAIL", c.name, c.detail) for c in checks
    ]
    table = text_table(["status", "anchor", "detail"], rows, title="Calibration validation")
    n_fail = sum(1 for c in checks if not c.passed)
    verdict = "all anchors hold" if n_fail == 0 else f"{n_fail} anchor(s) FAILED"
    return table + verdict + "\n"
