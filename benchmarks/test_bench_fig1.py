"""Figure 1: random vs co-scheduled interference on an 8-way node."""

from repro.experiments.fig1 import format_fig1, run_fig1


def test_bench_fig1_overlap(show):
    res = run_fig1(n_cpus=8, bursts_per_cpu=300, seed=1)
    show(format_fig1(res))
    # Paper's Figure 1 message: same total noise, far more all-CPU time
    # when overlapped; with 8 CPUs the gap is large.
    assert res.green_overlapped > res.green_random * 1.5
    assert res.green_overlapped > 0.8
