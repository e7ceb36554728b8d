"""Figure 6: fitted scaling lines, vanilla vs prototype.

Paper: y_vanilla = 0.70x + 166, y_prototype = 0.22x + 210; slope ratio
~3.2x, headline "over 300% speedup on synchronizing collectives".
"""

from repro.experiments.fig6 import format_fig6, run_fig6


def test_bench_fig6_fitted_lines(show):
    res = run_fig6(n_calls=300, n_seeds=3)
    show(format_fig6(res))
    # Vanilla slope lands near the paper's 0.70 (calibrated ecology).
    assert 0.35 <= res.vanilla_fit.slope <= 1.2
    # The prototype wins by at least the paper's factor-3 on slope.
    assert res.slope_ratio > 3.0
    # And by roughly the paper's factor at the paper's scale.
    assert res.mean_ratio_at(944) > 1.8
    assert res.vanilla_winner == "linear"
