"""Dispatcher fundamentals: compute, sleep, block, priorities, stealing."""

import pytest

from repro.config import KernelConfig
from repro.kernel.thread import (
    Block,
    Compute,
    SetPriority,
    Sleep,
    SleepUntil,
    ThreadState,
    YieldCpu,
)
from tests.conftest import make_harness


class TestCompute:
    def test_single_compute_runs_to_completion(self, harness):
        t = harness.spawn(harness.worker("a", [100.0]))
        harness.run(1000.0)
        assert t.state is ThreadState.FINISHED
        assert harness.times("a") == [100.0]

    def test_sequential_computes_accumulate(self, harness):
        harness.spawn(harness.worker("a", [100.0, 50.0, 25.0]))
        harness.run(1000.0)
        assert harness.times("a") == [100.0, 150.0, 175.0]

    def test_zero_compute_is_free(self, harness):
        harness.spawn(harness.worker("a", [0.0, 10.0]))
        harness.run(1000.0)
        assert harness.times("a") == [0.0, 10.0]

    def test_two_threads_two_cpus_parallel(self, harness):
        harness.spawn(harness.worker("a", [100.0]), cpu=0)
        harness.spawn(harness.worker("b", [100.0]), cpu=1)
        harness.run(1000.0)
        assert harness.times("a") == [100.0]
        assert harness.times("b") == [100.0]

    def test_two_threads_one_cpu_serialize(self, harness):
        harness.spawn(harness.worker("a", [100.0]), cpu=0)
        harness.spawn(harness.worker("b", [100.0]), cpu=0, allow_steal=False)
        # CPU 1 idle but b is bound... allow_steal False keeps it on cpu 0.
        harness.run(1000.0)
        assert harness.times("a") == [100.0]
        assert harness.times("b") == [200.0]

    def test_cpu_time_accounted(self, harness):
        t = harness.spawn(harness.worker("a", [100.0, 200.0]))
        harness.run(1000.0)
        assert t.stats.cpu_time_us == pytest.approx(300.0)

    def test_context_switch_charged(self):
        h = make_harness(kernel=KernelConfig(context_switch_us=5.0))
        h.spawn(h.worker("a", [100.0]))
        h.run(1000.0)
        assert h.times("a") == [105.0]


class TestSleepAndBlock:
    def test_sleep_quantized_to_tick(self, harness):
        # Sleep wakes snap to the CPU's tick boundary at/after the deadline.
        def body():
            yield Sleep(3_000.0)
            harness.mark("woke")

        harness.spawn(body(), cpu=0)
        harness.run(50_000.0)
        (when,) = harness.times("woke")
        assert when >= 3_000.0
        assert harness.ticks.is_boundary(0, when)

    def test_sleep_unquantized_exact(self, harness):
        def body():
            yield Sleep(3_000.0)
            harness.mark("woke")

        harness.spawn(body(), tick_quantized=False)
        harness.run(50_000.0)
        assert harness.times("woke") == [3_000.0]

    def test_sleep_until_past_wakes_immediately(self, harness):
        def body():
            yield Compute(50.0)
            yield SleepUntil(10.0)  # already passed
            harness.mark("woke")

        harness.spawn(body(), tick_quantized=False)
        harness.run(1000.0)
        assert harness.times("woke") == [50.0]

    def test_sleep_releases_cpu(self, harness):
        def sleeper():
            yield Sleep(10_000.0)

        harness.spawn(sleeper(), cpu=0)
        harness.spawn(harness.worker("b", [100.0]), cpu=0)
        harness.run(1000.0)
        assert harness.times("b") == [100.0]

    def test_block_until_woken(self, harness):
        def body():
            got = yield Block()
            harness.mark(f"woke:{got}")

        t = harness.spawn(body())
        harness.run(500.0)
        assert t.state is ThreadState.BLOCKED
        harness.sim.schedule(0.0, harness.sched.wake, t, "payload")
        harness.run(600.0)
        assert harness.log[-1][1] == "woke:payload"

    def test_wake_non_blocked_raises(self, harness):
        t = harness.spawn(harness.worker("a", [10_000.0]))
        with pytest.raises(RuntimeError):
            harness.sched.wake(t)


class TestPriorities:
    def test_better_priority_dispatched_first(self, harness):
        # Queue two on one busy CPU; the better one runs first when free.
        harness.spawn(harness.worker("run", [50.0]), cpu=0)
        harness.spawn(harness.worker("lo", [10.0]), priority=90, cpu=0, allow_steal=False)
        harness.spawn(harness.worker("hi", [10.0]), priority=30, cpu=0, allow_steal=False)
        harness.run(10_000.0)
        assert harness.times("hi")[0] < harness.times("lo")[0]

    def test_set_priority_syscall_on_self(self, harness):
        def body():
            yield SetPriority(40)
            harness.mark("after")
            yield Compute(10.0)

        t = harness.spawn(body())
        harness.run(100.0)
        assert t.priority == 40

    def test_set_priority_validates(self, harness):
        t = harness.spawn(harness.worker("a", [10.0]))
        with pytest.raises(ValueError):
            harness.sched.set_priority(t, 200)

    def test_priority_change_callback_fires(self, harness):
        calls = []
        t = harness.spawn(harness.worker("a", [10_000.0]))
        t.on_priority_change = lambda th, old, new: calls.append((old, new))
        harness.sched.set_priority(t, 30)
        assert calls == [(60, 30)]

    def test_ready_thread_reprioritised_repositions(self, harness):
        harness.spawn(harness.worker("run", [1_000.0]), cpu=0)
        a = harness.spawn(harness.worker("a", [10.0]), priority=80, cpu=0, allow_steal=False)
        b = harness.spawn(harness.worker("b", [10.0]), priority=70, cpu=0, allow_steal=False)
        harness.sched.set_priority(a, 50)  # a should now beat b
        harness.run(20_000.0)
        assert harness.times("a")[0] < harness.times("b")[0]


class TestStealing:
    def test_idle_cpu_steals_ready_work(self, harness):
        harness.spawn(harness.worker("busy", [1_000.0]), cpu=0)
        harness.spawn(harness.worker("d", [50.0]), cpu=0, allow_steal=True)
        harness.run(5_000.0)
        # The stealable thread migrates to idle CPU 1 and finishes early.
        assert harness.times("d") == [50.0]

    def test_bound_thread_waits_for_home_cpu(self, harness):
        harness.spawn(harness.worker("busy", [1_000.0]), cpu=0)
        harness.spawn(harness.worker("bound", [50.0]), cpu=0, allow_steal=False)
        harness.run(5_000.0)
        assert harness.times("bound") == [1_050.0]


class TestYield:
    def test_yield_rotates_equals(self, harness):
        order = []

        def body(tag, n):
            for _ in range(n):
                yield Compute(10.0)
                order.append(tag)
                yield YieldCpu()

        harness.spawn(body("a", 3), cpu=0)
        harness.spawn(body("b", 3), cpu=0, allow_steal=False)
        # Force both onto cpu 0: make cpu 1 busy.
        harness.spawn(harness.worker("busy", [10_000.0]), cpu=1)
        harness.run(20_000.0)
        assert order[:4] == ["a", "b", "a", "b"]

    def test_finished_thread_state(self, harness):
        t = harness.spawn(harness.worker("a", [10.0]))
        harness.run(100.0)
        assert t.finished
        assert t.gen is None

    def test_on_finish_callback(self, harness):
        done = []
        t = harness.spawn(harness.worker("a", [10.0]))
        t.on_finish = lambda th: done.append(th.tid)
        harness.run(100.0)
        assert done == [t.tid]


class TestSpawnValidation:
    def test_bad_affinity_raises(self, harness):
        with pytest.raises(ValueError):
            harness.spawn(harness.worker("a", [1.0]), cpu=99)

    def test_deferred_start(self, harness):
        t = harness.spawn(harness.worker("a", [10.0]), start=False)
        assert t.state is ThreadState.NEW
        harness.sched.start(t)
        harness.run(100.0)
        assert t.finished

    def test_start_twice_raises(self, harness):
        t = harness.spawn(harness.worker("a", [10.0]), start=False)
        harness.sched.start(t)
        with pytest.raises(RuntimeError):
            harness.sched.start(t)

    def test_idle_cpus_reporting(self, harness):
        assert harness.sched.idle_cpus() == 2
        harness.spawn(harness.worker("a", [1_000.0]))
        assert harness.sched.idle_cpus() == 1
