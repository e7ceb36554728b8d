"""Figure 4: sorted Allreduce times from one node; outlier attribution.

Paper shape: fastest within ~10% of the model, median ~25% above the
fastest, mean several times the model, the slowest call (the 15-minute
cron job) alone a large share of total time.
"""

from repro.experiments.fig4 import format_fig4, run_fig4


def test_bench_fig4_sorted_outliers(show):
    res = run_fig4()
    show(format_fig4(res))
    assert res.min_us <= 1.35 * res.model_prediction_us          # fastest near model
    assert 1.05 <= res.median_us / res.min_us <= 2.5             # median modestly above
    assert res.mean_us > 3.0 * res.model_prediction_us           # mean blown up (paper: ~6x)
    assert res.slowest_share > 0.2                               # slowest dominates (paper: >0.5)
    assert res.slowest_culprit == "cron_health"                  # named by the trace
