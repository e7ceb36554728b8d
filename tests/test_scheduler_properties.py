"""Property-based scheduler invariants under randomised workloads.

The dispatcher is the substrate every result rests on; these tests drive
it with arbitrary thread mixes (priorities, affinities, burst/sleep
patterns, random external priority changes) and assert the invariants
that must survive any interleaving:

* structural sanity — a CPU runs at most one thread, a RUNNING thread is
  on exactly one CPU, READY threads are queued;
* liveness — every compute-only thread finishes, given time;
* work conservation — CPU time credited equals work requested (plus
  bounded dispatch overheads);
* determinism — identical inputs give identical schedules.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import KernelConfig
from repro.kernel.thread import Compute, Sleep, ThreadState
from repro.units import ms, s
from tests.conftest import make_harness

# One random thread: (priority, affinity, allow_steal, [bursts], [sleeps])
thread_spec = st.tuples(
    st.integers(min_value=10, max_value=120),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    st.lists(st.floats(min_value=1.0, max_value=20_000.0), min_size=1, max_size=4),
    st.lists(st.floats(min_value=0.0, max_value=30_000.0), min_size=0, max_size=3),
)

kernel_options = st.fixed_dictionaries(
    {
        "realtime_scheduling": st.booleans(),
        "fix_reverse_preemption": st.booleans(),
        "fix_multi_ipi": st.booleans(),
        "big_tick_multiplier": st.sampled_from([1, 5, 25]),
        "tick_phase": st.sampled_from(["staggered", "aligned"]),
        "daemons_global_queue": st.booleans(),
    }
)


def build_workload(specs, kernel_kwargs):
    h = make_harness(n_cpus=4, kernel=KernelConfig(context_switch_us=2.0, **kernel_kwargs))
    threads = []
    for i, (prio, cpu, steal, bursts, sleeps) in enumerate(specs):
        def body(bursts=bursts, sleeps=sleeps):
            for j, b in enumerate(bursts):
                yield Compute(b)
                if j < len(sleeps):
                    yield Sleep(sleeps[j])

        t = h.spawn(
            body(), name=f"t{i}", priority=prio, cpu=cpu, allow_steal=steal,
            use_global_queue=(i % 3 == 0),
        )
        threads.append(t)
    return h, threads


class TestRandomWorkloads:
    @settings(max_examples=40, deadline=None)
    @given(specs=st.lists(thread_spec, min_size=1, max_size=12), kernel_kwargs=kernel_options)
    def test_liveness_and_conservation(self, specs, kernel_kwargs):
        h, threads = build_workload(specs, kernel_kwargs)
        h.run(s(10))
        ipi_allowance = h.config.ipi_cost_us * h.sched.ipis_sent
        for t, (prio, cpu, steal, bursts, sleeps) in zip(threads, specs):
            assert t.state is ThreadState.FINISHED, f"{t!r} never finished"
            requested = sum(bursts)
            # CPU time = requested work + dispatch overheads: context
            # switches, double-charged remainders at preemptions, and IPI
            # handler costs (charged to whoever was running on arrival).
            overhead_allowance = (
                2.0 * (t.stats.dispatches + t.stats.preemptions + 1) + ipi_allowance
            )
            assert t.stats.cpu_time_us >= requested - 1e-6
            assert t.stats.cpu_time_us <= requested + overhead_allowance + 1.0

    @settings(max_examples=25, deadline=None)
    @given(specs=st.lists(thread_spec, min_size=2, max_size=10), kernel_kwargs=kernel_options)
    def test_structural_invariants_sampled(self, specs, kernel_kwargs):
        h, threads = build_workload(specs, kernel_kwargs)
        violations = []

        def probe():
            seen_cpus = {}
            for t in threads:
                if t.state is ThreadState.RUNNING:
                    if t.cpu is None:
                        violations.append(f"{t} RUNNING without a CPU")
                    elif t.cpu in seen_cpus:
                        violations.append(f"cpu {t.cpu} double-booked")
                    else:
                        seen_cpus[t.cpu] = t
                    if h.sched.cpus[t.cpu].thread is not t:
                        violations.append(f"cpu record mismatch for {t}")
                elif t.state is ThreadState.READY:
                    if t.rq_entry is None or not t.rq_entry.live:
                        violations.append(f"{t} READY but not queued")
                elif t.state in (ThreadState.BLOCKED, ThreadState.SLEEPING):
                    if t.cpu is not None:
                        violations.append(f"{t} blocked while on a CPU")
            if h.sim.now < ms(200):
                h.sim.schedule(137.0, probe)

        h.sim.schedule(0.0, probe)
        h.run(s(10))
        assert violations == []

    @settings(max_examples=20, deadline=None)
    @given(specs=st.lists(thread_spec, min_size=1, max_size=8), kernel_kwargs=kernel_options)
    def test_deterministic_replay(self, specs, kernel_kwargs):
        h1, t1 = build_workload(specs, kernel_kwargs)
        h1.run(s(10))
        h2, t2 = build_workload(specs, kernel_kwargs)
        h2.run(s(10))
        for a, b in zip(t1, t2):
            assert a.stats.cpu_time_us == b.stats.cpu_time_us
            assert a.stats.dispatches == b.stats.dispatches
            assert a.stats.preemptions == b.stats.preemptions

    @settings(max_examples=20, deadline=None)
    @given(
        specs=st.lists(thread_spec, min_size=2, max_size=8),
        kernel_kwargs=kernel_options,
        flips=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=50_000.0),
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=10, max_value=120),
            ),
            max_size=6,
        ),
    )
    def test_external_priority_fuzz(self, specs, kernel_kwargs, flips):
        """Random renices at random times (the co-scheduler's tool) must
        never wedge or corrupt the dispatcher."""
        h, threads = build_workload(specs, kernel_kwargs)
        for when, idx, prio in flips:
            if idx < len(threads):
                def flip(t=threads[idx], p=prio):
                    if t.state is not ThreadState.FINISHED:
                        h.sched.set_priority(t, p)

                h.sim.schedule_at(when, flip)
        h.run(s(10))
        assert all(t.state is ThreadState.FINISHED for t in threads)

    @settings(max_examples=15, deadline=None)
    @given(specs=st.lists(thread_spec, min_size=1, max_size=10), kernel_kwargs=kernel_options)
    def test_cpu_busy_accounting_consistent(self, specs, kernel_kwargs):
        """Aggregate CPU busy time equals aggregate thread CPU time plus
        spin/tick slack — and never exceeds capacity."""
        h, threads = build_workload(specs, kernel_kwargs)
        h.run(s(10))
        busy = sum(c.busy_us for c in h.sched.cpus)
        thread_time = sum(t.stats.cpu_time_us for t in threads)
        assert busy <= 4 * s(10) + 1e-6
        # Busy wall time covers at least the credited CPU work.
        assert busy >= thread_time - 1e-6
