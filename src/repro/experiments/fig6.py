"""Figures 3, 5 and 6 (+ the 15-tasks/node baseline, T1).

* **Figure 3** — Allreduce µs vs processor count, 16 tasks/node, standard
  kernel: linear (not logarithmic) with large variability.
* **Figure 5** — same sweep, prototype kernel + co-scheduler: improved and
  far less variable, still linear.
* **Figure 6** — both sweeps with fitted lines; the paper reports
  ``y_vanilla = 0.70·x + 166`` vs ``y_prototype = 0.22·x + 210`` (~3×
  slope ratio).
* **T1** — the 15 tasks/node community workaround: better than 16/node
  vanilla, still linear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analytic.fits import FitResult, compare_fits
from repro.experiments.common import (
    PAPER_PROC_COUNTS,
    PROTO16,
    SweepResult,
    VANILLA15,
    VANILLA16,
    allreduce_sweep,
)
from repro.experiments.reporting import ascii_chart, format_taxonomy, text_table
from repro.experiments.runner import TrialRunner

__all__ = [
    "Fig6Result",
    "run_fig3",
    "run_fig5",
    "run_tpn15",
    "run_fig6",
    "format_sweep",
    "format_fig6",
]

#: Paper's fitted lines for reference in reports.
PAPER_VANILLA_FIT = (0.70, 166.0)
PAPER_PROTOTYPE_FIT = (0.22, 210.0)


def run_fig3(
    proc_counts: Sequence[int] = PAPER_PROC_COUNTS, n_calls: int = 400, n_seeds: int = 3,
    runner: Optional[TrialRunner] = None,
) -> SweepResult:
    """Vanilla kernel, 16 tasks/node (Figure 3).

    *runner* (:class:`~repro.experiments.runner.TrialRunner`) carries the
    execution policy — workers, journal, trial timeout, result store — to
    :func:`allreduce_sweep`; ``None`` runs serially with no journal and
    no store.  Same for the other sweep runners below.
    """
    return allreduce_sweep(VANILLA16, proc_counts, n_calls, n_seeds, runner=runner)


def run_fig5(
    proc_counts: Sequence[int] = PAPER_PROC_COUNTS, n_calls: int = 400, n_seeds: int = 3,
    runner: Optional[TrialRunner] = None,
) -> SweepResult:
    """Prototype kernel + co-scheduler, 16 tasks/node (Figure 5)."""
    return allreduce_sweep(PROTO16, proc_counts, n_calls, n_seeds, runner=runner)


def run_tpn15(
    proc_counts: Sequence[int] = PAPER_PROC_COUNTS, n_calls: int = 400, n_seeds: int = 3,
    runner: Optional[TrialRunner] = None,
) -> SweepResult:
    """Vanilla kernel, 15 tasks/node (T1 baseline)."""
    counts15 = [15 * (-(-n // 16)) for n in proc_counts]  # same node counts
    return allreduce_sweep(VANILLA15, counts15, n_calls, n_seeds, runner=runner)


@dataclass
class Fig6Result:
    vanilla: SweepResult
    prototype: SweepResult
    vanilla_fit: FitResult
    prototype_fit: FitResult
    vanilla_winner: str   # "linear", "log" or "none" (too few finite points)
    prototype_winner: str

    @property
    def slope_ratio(self) -> float:
        return self.vanilla_fit.slope / self.prototype_fit.slope

    def mean_ratio_at(self, n: int) -> float:
        """Predicted vanilla/prototype mean-latency ratio at n CPUs."""
        return float(self.vanilla_fit.predict([n])[0] / self.prototype_fit.predict([n])[0])


def run_fig6(
    proc_counts: Sequence[int] = PAPER_PROC_COUNTS, n_calls: int = 400, n_seeds: int = 3,
    runner: Optional[TrialRunner] = None,
) -> Fig6Result:
    """Run both sweeps on *runner* and fit the scaling lines (Figure 6)."""
    van = run_fig3(proc_counts, n_calls, n_seeds, runner)
    pro = run_fig5(proc_counts, n_calls, n_seeds, runner)
    vlin, _vlog, vwin = compare_fits(van.proc_counts, van.mean_us)
    plin, _plog, pwin = compare_fits(pro.proc_counts, pro.mean_us)
    return Fig6Result(van, pro, vlin, plin, vwin, pwin)


def format_sweep(res: SweepResult, title: str) -> str:
    """Render one sweep with its linear and log fits."""
    lin, log, winner = compare_fits(res.proc_counts, res.mean_us)
    table = text_table(
        ["procs", "mean_us", "run_std_us", "call_std_us"],
        res.rows(),
        title=title,
    )
    failed = ""
    if res.failed_points:
        failed = (
            f"failed points: {len(res.failed_points)} "
            f"({format_taxonomy(res.failure_taxonomy)})\n"
        )
    if not lin.fitted:
        return table + failed + f"fits       : {lin}\n"
    return (
        table
        + failed
        + f"linear fit : {lin}\n"
        + f"log fit    : {log}\n"
        + f"better fit : {winner} (paper: linear once noise dominates)\n"
    )


def format_fig6(res: Fig6Result) -> str:
    """Render the vanilla-vs-prototype comparison, chart and fits."""
    rows = []
    for (n, vm, *_), (_, pm, *_rest) in zip(res.vanilla.rows(), res.prototype.rows()):
        rows.append((n, vm, pm, vm / pm))
    table = text_table(
        ["procs", "vanilla_us", "prototype_us", "ratio"],
        rows,
        title="Figure 6 analogue: vanilla vs prototype Allreduce scaling",
    )
    chart = ascii_chart(
        res.vanilla.proc_counts,
        {"vanilla": res.vanilla.mean_us, "prototype": res.prototype.mean_us},
        title="Allreduce mean latency vs processor count",
        x_label="CPUs",
        y_label="us",
    )
    return (
        table
        + chart
        + f"vanilla fit   : {res.vanilla_fit}   (paper: y = 0.70x + 166)\n"
        + f"prototype fit : {res.prototype_fit}   (paper: y = 0.22x + 210)\n"
        + f"slope ratio   : {res.slope_ratio:.2f}x   (paper: ~3.2x, 'over 300% speedup')\n"
        + f"mean ratio @944 CPUs: {res.mean_ratio_at(944):.2f}x\n"
    )
