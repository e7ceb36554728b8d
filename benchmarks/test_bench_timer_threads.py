"""T3: MPI timer ("progress engine") threads and MP_POLLING_INTERVAL.

Paper: the 400 ms timer threads disrupted tightly synchronised Allreduces;
raising the polling interval to ~400 s removed the interference.
"""

from repro.experiments.timer_threads import format_timer_threads, run_timer_threads


def test_bench_timer_thread_interference(show):
    res = run_timer_threads()
    show(format_timer_threads(res))
    # DES: the fix kills the tail the timer threads create.
    assert res.des_max_default_us > 1.3 * res.des_max_fixed_us
    assert res.des_mean_default_us > res.des_mean_fixed_us
    # Model at paper scale: means improve too.
    assert res.model_mean_default_us > res.model_mean_fixed_us
