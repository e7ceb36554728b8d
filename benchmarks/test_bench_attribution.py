"""T5: trace-based outlier attribution.

Paper §5.3: the slowest Allreduce was caused by the administrative cron
job; other outliers were attributed to syncd/mmfsd/hatsd-class daemons and
interrupt handlers via AIX traces.
"""

from repro.experiments.fig4 import run_fig4


def test_bench_outlier_attribution(show):
    res = run_fig4(n_ranks=944, n_calls=448, des_ranks=32)
    lines = ["T5: top DES outliers and their culprits"]
    for idx, dur, top in res.outlier_attribution[:8]:
        culprits = ", ".join(f"{n} ({c:.0f}us)" for n, c in top)
        lines.append(f"  call {idx:4d}: {dur:9.0f} us  <- {culprits}")
    show("\n".join(lines))
    assert res.outlier_attribution, "no outliers found to attribute"
    # Every reported outlier has a named culprit.
    assert all(top for _, _, top in res.outlier_attribution)
    # The worst one is the cron job, as in the paper.
    assert res.slowest_culprit == "cron_health"
    # The daemon ecology shows up across outliers.
    names = {n for _, _, top in res.outlier_attribution for n, _ in top}
    assert len(names & {"syncd", "mmfsd", "hatsd", "hats_nim", "mld",
                        "LoadL_startd", "inetd", "hostmibd"}) >= 2
