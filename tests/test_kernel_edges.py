"""Kernel edge cases: self-renice preemption, zero sleeps, yields, spin races."""

import pytest

from repro.config import ClusterConfig, KernelConfig, MachineConfig, MpiConfig, NoiseConfig
from repro.kernel.thread import Block, Compute, SetPriority, Sleep, SleepUntil, SpinWait, ThreadState, YieldCpu
from repro.units import ms, s
from tests.conftest import make_harness


def kernel(**kw):
    base = dict(context_switch_us=0.0, tick_cost_us=0.0)
    base.update(kw)
    return KernelConfig(**base)


class TestSelfRenicePreemption:
    def test_lowering_own_priority_yields_to_waiter_mid_body(self):
        """A thread that renices itself below a waiter is preempted at the
        syscall boundary and its generator resumes later — the
        resume_advance continuation path."""
        h = make_harness(n_cpus=1, kernel=kernel())
        order = []

        def selfless():
            yield Compute(100.0)
            order.append("selfless-before")
            yield SetPriority(90)  # below the waiter: preempted right here
            order.append("selfless-after")
            yield Compute(50.0)
            order.append("selfless-done")

        def waiter():
            yield Compute(200.0)
            order.append("waiter-done")

        t = h.spawn(selfless(), priority=30, cpu=0)
        h.spawn(waiter(), priority=60, cpu=0, allow_steal=False)
        h.run(ms(50))
        assert order == ["selfless-before", "waiter-done", "selfless-after", "selfless-done"]
        assert t.priority == 90
        assert t.finished

    def test_raising_own_priority_keeps_cpu(self):
        h = make_harness(n_cpus=1, kernel=kernel())
        order = []

        def riser():
            yield Compute(100.0)
            yield SetPriority(10)
            yield Compute(100.0)
            order.append("riser-done")

        def other():
            yield Compute(50.0)
            order.append("other-done")

        h.spawn(riser(), priority=60, cpu=0)
        h.spawn(other(), priority=60, cpu=0, allow_steal=False)
        h.run(ms(50))
        assert order == ["riser-done", "other-done"]


class TestDegenerateRequests:
    def test_zero_sleep_rounds_to_boundary(self):
        h = make_harness(n_cpus=1, kernel=kernel())
        done = []

        def body():
            yield Sleep(0.0)
            done.append(h.sim.now)

        h.spawn(body(), tick_quantized=False)
        h.run(ms(1))
        assert done == [0.0]

    def test_sleep_until_now(self):
        h = make_harness(n_cpus=1, kernel=kernel())
        done = []

        def body():
            yield Compute(10.0)
            yield SleepUntil(5.0)  # already past
            done.append(h.sim.now)

        h.spawn(body(), tick_quantized=False)
        h.run(ms(1))
        assert done == [10.0]

    def test_yield_with_empty_queue_continues(self):
        h = make_harness(n_cpus=1, kernel=kernel())
        done = []

        def body():
            yield Compute(10.0)
            yield YieldCpu()
            yield Compute(10.0)
            done.append(h.sim.now)

        h.spawn(body())
        h.run(ms(1))
        assert done == [20.0]

    def test_repeated_yields_bounded_events(self):
        h = make_harness(n_cpus=1, kernel=kernel())

        def body():
            for _ in range(100):
                yield YieldCpu()
            yield Compute(1.0)

        h.spawn(body())
        h.run(ms(1))  # must not blow the event budget or recurse
        assert h.sim.events_processed < 2_000

    def test_empty_generator_finishes_immediately(self):
        h = make_harness(kernel=kernel())

        def body():
            if False:
                yield Compute(1.0)

        t = h.spawn(body())
        assert t.finished


class TestNaNDurations:
    @pytest.mark.parametrize("request_cls", [Compute, Sleep])
    def test_nan_duration_rejected(self, request_cls):
        with pytest.raises(ValueError):
            request_cls(float("nan"))

    @pytest.mark.parametrize("request_cls", [Compute, Sleep])
    def test_negative_duration_rejected(self, request_cls):
        with pytest.raises(ValueError):
            request_cls(-1.0)


class TestSpinRaces:
    def test_double_spinner_same_key_rejected(self):
        """The MPI layer guarantees one waiter per key; the guard raises."""
        from repro.machine import Cluster
        from repro.mpi.world import MpiWorld

        cfg = ClusterConfig(
            machine=MachineConfig(n_nodes=1, cpus_per_node=2),
            mpi=MpiConfig(progress_threads_enabled=False),
            noise=NoiseConfig(),
        )
        cluster = Cluster(cfg)
        from repro.machine.cluster import Placement

        world = MpiWorld(cluster, Placement(2, 2), cfg.mpi)
        reg = world._make_spin_register((0, 1, "t"))

        class FakeThread:
            pass

        assert reg(FakeThread()) is None
        with pytest.raises(RuntimeError, match="second spinner"):
            reg(FakeThread())

    def test_spin_deliver_on_non_spinner_raises(self, harness):
        t = harness.spawn(harness.worker("a", [1000.0]))
        with pytest.raises(RuntimeError):
            harness.sched.spin_deliver(t, 1)


class TestSelfMessaging:
    def test_rank_can_send_to_itself(self):
        from repro.machine import Cluster
        from repro.mpi.world import MpiJob

        cfg = ClusterConfig(
            machine=MachineConfig(n_nodes=1, cpus_per_node=2),
            mpi=MpiConfig(progress_threads_enabled=False),
            noise=NoiseConfig(),
        )
        cluster = Cluster(cfg)
        got = {}

        def body(rank, api):
            yield from api.send(rank, "self", rank * 7)
            got[rank] = yield from api.recv(rank, "self")

        job = MpiJob(cluster, cluster.place(2, 2), body, config=cfg.mpi)
        job.run(horizon_us=s(1))
        assert got == {0: 0, 1: 7}
