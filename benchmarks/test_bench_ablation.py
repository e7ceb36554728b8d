"""A1: cumulative ablation of the paper's modifications (DESIGN.md §4)."""

from repro.experiments.ablation import format_ablation, run_ablation


def test_bench_ablation_cumulative(show):
    res = run_ablation(n_ranks=944, n_calls=300, n_seeds=3)
    show(format_ablation(res))
    means = {label: m for label, m, _ in res.steps}
    vanilla = means["1 vanilla"]
    polling = means["2 +polling fix"]
    cosched = means["5 +cosched (no RT fixes)"]
    full = means["6 +RT sched fixes (= prototype)"]
    # Each major stage helps; co-scheduling is the big lever.
    assert polling <= vanilla * 1.05
    assert cosched < vanilla * 0.6
    assert full <= cosched * 1.1
    assert full < vanilla / 2.0
