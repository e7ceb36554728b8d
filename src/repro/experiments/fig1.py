"""Figure 1: random vs co-scheduled system activity on an 8-way node.

The paper's motivating picture: with the *same total amount* of system
activity (red), purely random placement leaves few windows in which all
eight CPUs are simultaneously free for the application (green), while
overlapped placement leaves large ones.  This experiment quantifies the
picture: generate identical noise budgets with random vs aligned phasing
and measure the all-CPUs-free fraction of the timeline.

For K noise bursts of length d per CPU over horizon T, random phasing
gives an all-free fraction near ``(1 - Kd/T)^P`` (independent thinning per
CPU), while perfect overlap gives ``1 - Kd/T`` — the analytic curves the
measurement is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.reporting import text_table
from repro.results import register_result
from repro.units import ms, s

__all__ = ["Fig1Result", "run_fig1", "format_fig1"]


@register_result
@dataclass
class Fig1Result:
    n_cpus: int
    noise_fraction_per_cpu: float
    green_random: float
    green_overlapped: float
    theory_random: float
    theory_overlapped: float

    @property
    def improvement(self) -> float:
        """How much more all-CPU time co-scheduling yields."""
        return self.green_overlapped / self.green_random


def _all_free_fraction(starts: np.ndarray, duration: float, horizon: float) -> float:
    """Fraction of [0, horizon) with no burst active, via event sweep.

    ``starts`` has shape (cpus, bursts); a point is green iff no burst on
    any CPU covers it.
    """
    edges = np.concatenate([starts.ravel(), np.minimum(starts.ravel() + duration, horizon)])
    deltas = np.concatenate([np.ones(starts.size), -np.ones(starts.size)])
    order = np.argsort(edges, kind="stable")
    edges, deltas = edges[order], deltas[order]
    busy = 0.0
    depth = 0
    prev = 0.0
    for t, d in zip(edges, deltas):
        if depth > 0:
            busy += t - prev
        depth += int(d)
        prev = t
    return 1.0 - busy / horizon


def run_fig1(
    n_cpus: int = 8,
    bursts_per_cpu: int = 200,
    burst_us: float = ms(2),
    horizon_us: float = s(4),
    seed: int = 0,
) -> Fig1Result:
    """Measure all-CPUs-free fractions for random vs overlapped noise."""
    rng = np.random.default_rng(seed)
    frac = bursts_per_cpu * burst_us / horizon_us
    # Random phasing: each CPU draws independent burst times.
    random_starts = rng.uniform(0, horizon_us - burst_us, size=(n_cpus, bursts_per_cpu))
    # Overlapped: one schedule shared by every CPU (co-scheduled daemons).
    shared = rng.uniform(0, horizon_us - burst_us, size=bursts_per_cpu)
    overlapped_starts = np.tile(shared, (n_cpus, 1))
    green_r = _all_free_fraction(random_starts, burst_us, horizon_us)
    green_o = _all_free_fraction(overlapped_starts, burst_us, horizon_us)
    return Fig1Result(
        n_cpus=n_cpus,
        noise_fraction_per_cpu=frac,
        green_random=green_r,
        green_overlapped=green_o,
        theory_random=float((1.0 - frac) ** n_cpus),
        theory_overlapped=float(1.0 - frac),
    )


def format_fig1(res: Fig1Result) -> str:
    """Render the Figure 1 table and improvement line."""
    rows = [
        ("random", res.green_random, res.theory_random),
        ("overlapped", res.green_overlapped, res.theory_overlapped),
    ]
    table = text_table(
        ["phasing", "all-CPUs-free fraction", "theory"],
        rows,
        title=(
            f"Figure 1 analogue: {res.n_cpus}-way node, "
            f"{100 * res.noise_fraction_per_cpu:.1f}% noise per CPU"
        ),
        floatfmt="{:.4f}",
    )
    return table + f"overlap improvement: {res.improvement:.2f}x more all-CPU time\n"
