"""Figure 5: prototype kernel + co-scheduler, 16 tasks/node.

Paper shape: much faster than vanilla and far less variable, still linear.
"""

from repro.analytic.fits import fit_linear
from repro.experiments.fig6 import format_sweep, run_fig3, run_fig5


def test_bench_fig5_prototype_scaling(show):
    res = run_fig5(n_calls=300, n_seeds=3)
    show(format_sweep(res, "Figure 5: prototype kernel + co-scheduler"))
    vanilla = run_fig3(proc_counts=tuple(res.proc_counts), n_calls=150, n_seeds=2)
    # Prototype is faster at every plotted count...
    assert all(p < v for p, v in zip(res.mean_us, vanilla.mean_us))
    # ...and dramatically less variable at scale.
    assert res.call_std_us[-1] < 0.5 * vanilla.call_std_us[-1]
    # Still grows with N (the residual interference floor).
    assert fit_linear(res.proc_counts, res.mean_us).slope > 0.0
