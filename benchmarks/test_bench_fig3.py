"""Figure 3: Allreduce vs processor count, 16 tasks/node, vanilla kernel.

Paper shape: linear (not logarithmic) scaling with large variability.
"""

from repro.analytic.fits import compare_fits
from repro.experiments.fig6 import format_sweep, run_fig3


def test_bench_fig3_vanilla_scaling(show):
    res = run_fig3(n_calls=300, n_seeds=3)
    show(format_sweep(res, "Figure 3: vanilla kernel, 16 tasks/node"))
    lin, log, winner = compare_fits(res.proc_counts, res.mean_us)
    assert winner == "linear"
    assert lin.slope > 0.3  # paper: 0.70 us per CPU
    # "extreme variability": the call-to-call spread at scale is of the
    # order of the mean itself.
    assert res.call_std_us[-1] > 0.3 * res.mean_us[-1]
