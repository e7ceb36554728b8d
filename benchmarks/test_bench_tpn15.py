"""T1: the 15-tasks-per-node community workaround.

Paper: "absolute performance is improved and there is much less
variability using 15 tasks per node.  In spite of the improved
performance, the scaling is still linear rather than logarithmic."
"""

from repro.analytic.fits import compare_fits
from repro.experiments.fig6 import format_sweep, run_fig3, run_tpn15


def test_bench_tpn15_workaround(show):
    res = run_tpn15(n_calls=300, n_seeds=3)
    show(format_sweep(res, "T1: vanilla kernel, 15 tasks/node"))
    lin, log, winner = compare_fits(res.proc_counts, res.mean_us)
    assert winner == "linear"  # still linear, as the paper stresses
    vanilla = run_fig3(n_calls=150, n_seeds=2)
    # Compare at matched node counts (59 nodes: 944 vs 885 ranks).
    v944 = float(vanilla.mean_us[list(vanilla.proc_counts).index(944)])
    f885 = float(res.mean_us[list(res.proc_counts).index(885)])
    assert f885 < v944  # improved absolute performance
