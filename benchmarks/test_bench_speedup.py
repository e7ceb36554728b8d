"""T2: 100 prototype nodes fully populated vs 100 vanilla nodes at 15/node.

Paper: "a 154% speedup" (time ratio 1.54, in the paper's percentage
convention where the ~3.2x slope ratio reads "over 300%").
"""

from repro.experiments.speedup import format_speedup, run_speedup154


def test_bench_speedup154(show):
    res = run_speedup154(n_calls=300, n_seeds=3)
    show(format_speedup(res))
    # Prototype wins despite carrying the extra (noisier) 16th task.
    assert res.proto_allreduce_us < res.baseline_allreduce_us
    # Roughly the paper's factor: 154% +/- a band.
    assert 115.0 <= res.speedup_percent <= 260.0
