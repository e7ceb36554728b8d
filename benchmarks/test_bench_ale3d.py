"""T4: ALE3D — naive co-scheduling hurts (I/O starvation); the tuned
priority placement wins.

Paper: naive co-scheduling "actually slowed it down" (starved I/O
daemons); with the favored priority just above the I/O daemons, run time
dropped 24% (1315 s -> 1152 s at 944 processors).
"""

from repro.experiments.ale3d_io import format_ale3d_io, run_ale3d_io


def test_bench_ale3d_io_priorities(show):
    res = run_ale3d_io()
    show(format_ale3d_io(res))
    # The fiasco: favored above the I/O daemons is SLOWER than no
    # co-scheduling at all, and the loss is in I/O time.
    assert res.naive_slowdown > 1.0
    assert res.naive_io_us > 2.0 * res.vanilla_io_us
    # The fix: favored just below the I/O daemons beats vanilla by
    # roughly the paper's 24%.
    assert 10.0 <= res.tuned_improvement_percent <= 45.0
