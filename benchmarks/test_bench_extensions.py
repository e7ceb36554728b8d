"""E1–E4: extension benchmarks (paper §6 baseline, §7 future work,
DESIGN.md §4 design-choice ablations)."""

from repro.experiments.extensions import (
    format_fine_grain,
    format_hw_collectives,
    format_misalignment,
    format_multijob,
    run_fine_grain,
    run_hw_collectives,
    run_misalignment,
    run_multijob,
)


def test_bench_multijob_gang_vs_uncoordinated(show):
    """E1: co-located fine-grain jobs need coordination; gang shares the
    machine in slots, demand-based boosting self-organises into serial
    batching (best per-op, worst turnaround fairness)."""
    res = run_multijob()
    show(format_multijob(res))
    assert res.per_op_improvement > 1.5
    assert res.demand_improvement > 1.5
    assert res.gang_makespan_us < res.uncoordinated_makespan_us
    # The fairness tension: demand's finish spread is a large share of its
    # makespan (one job waits the other out); gang's is proportionally small.
    assert res.demand_finish_spread_us / res.demand_makespan_us > 0.3
    assert res.gang_finish_spread_us / res.gang_makespan_us < 0.3


def test_bench_hardware_collectives(show):
    """E2: switch-combined Allreduce under the vanilla noise ecology."""
    res = run_hw_collectives(n_calls=200)
    show(format_hw_collectives(res))
    # Hardware wins at every count, more at scale, but does not reach
    # zero sensitivity (the slowest deposit still gates the combine).
    assert all(h < s_ for h, s_ in zip(res.hardware_us, res.software_us))
    assert res.ratio_at_max() > 1.3


def test_bench_fine_grain_hints(show):
    """E3: region-scoped boosting avoids the T4 I/O starvation without
    per-daemon priority tuning."""
    res = run_fine_grain()
    show(format_fine_grain(res))
    # Always-on with the untuned priority is the T4 fiasco...
    assert res.always_on_us > res.vanilla_us
    # ...while fine-grain-only beats vanilla with the same priority.
    assert res.fine_grain_us < res.vanilla_us
    assert res.fine_grain_io_us < res.always_on_io_us / 2


def test_bench_clock_misalignment(show):
    """E4: the co-scheduler without switch-clock sync loses its edge."""
    res = run_misalignment()
    show(format_misalignment(res))
    assert res.degradation > 1.1


def test_bench_waitmode_tradeoff(show):
    """E5: poll wins quiet, block wins under heavy full-occupancy noise."""
    from repro.experiments.workloads import format_waitmode, run_waitmode

    res = run_waitmode()
    show(format_waitmode(res))
    assert res.quiet_poll_advantage > 1.3
    assert res.noisy_block_advantage > 1.1


def test_bench_workload_sensitivity(show):
    """E6: collective-heavy codes amplify noise more than wavefronts."""
    from repro.experiments.workloads import format_sensitivity, run_sensitivity

    res = run_sensitivity()
    show(format_sensitivity(res))
    assert res.collective_slowdown > res.wavefront_slowdown
    assert res.collective_slowdown > 1.5


def test_bench_granularity(show):
    """E7: efficiency falls as cycles shrink; the prototype recovers most
    of the fine-grain loss (paper §2's framing, quantified)."""
    import numpy as np

    from repro.experiments.workloads import format_granularity, run_granularity

    res = run_granularity()
    show(format_granularity(res))
    # Efficiency improves monotonically-ish with granularity for vanilla.
    assert res.vanilla_efficiency[0] < res.vanilla_efficiency[-1]
    # The prototype dominates vanilla at every granularity...
    assert np.all(res.prototype_efficiency > res.vanilla_efficiency)
    # ...and the gap is biggest at the fine-grain end.
    gaps = res.prototype_efficiency - res.vanilla_efficiency
    assert gaps[0] > gaps[-1]
