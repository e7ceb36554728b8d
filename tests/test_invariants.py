"""Invariant monitor: a clean system passes, and each corruption class is
caught by the check named for it.

Corruptions are injected by mutating live scheduler/transport state
directly — the monitor must find planted bugs, not just bless healthy
runs.
"""

import pytest

from repro.checkpoint.monitor import InvariantError, InvariantMonitor
from repro.checkpoint.snapshot import capture_state, state_fingerprint
from repro.config import NetworkConfig
from repro.mpi.messages import Message, ReliableTransport
from repro.net.fabric import Fabric
from repro.sim.core import Simulator
from repro.units import ms

from tests.test_checkpoint import build_mini, drive


def checked(system):
    return InvariantMonitor(system).check()


def violations(system, check):
    return [v for v in checked(system).violations if v.check == check]


class TestCleanSystem:
    def test_mid_run_system_is_clean(self):
        d = build_mini(faults=False)
        drive(d, ms(150))
        report = checked(d.system)
        assert report.ok, report.summary()
        assert report.checks_run == 6

    def test_faulted_system_is_clean(self):
        """Node crash + message drops stress the transport and watchdog
        paths; the invariants must still hold at every boundary."""
        d = build_mini(faults=True)
        for stop in (ms(40), ms(80), ms(150), ms(250)):
            drive(d, stop, start=d.system.sim.now)
            report = checked(d.system)
            assert report.ok, report.summary()

    def test_check_or_raise_passes_clean(self):
        d = build_mini()
        drive(d, ms(50))
        InvariantMonitor(d.system).check_or_raise()

    def test_queued_threads_pass_the_runqueue_checks(self):
        """Preempted ranks wait on the run queues while daemons run; every
        queue entry the checks walk must be consistent."""
        system, _ = contended_system()
        monitor = InvariantMonitor(system)
        sched = system.cluster.nodes[0].scheduler
        stops_with_queued = 0
        for i in range(1, 300):
            system.sim.run_until(i * 137.0)
            queued = sum(len(q) for q in [*sched.local_queues, sched.global_queue])
            stops_with_queued += queued > 0
            report = monitor.check()
            assert report.ok, report.summary()
        assert stops_with_queued > 50


class TestSanitizer:
    def test_sanitized_run_is_bit_identical(self):
        plain = build_mini()
        drive(plain, ms(150))
        fp_plain = state_fingerprint(capture_state(plain.system))

        watched = build_mini()
        mon = InvariantMonitor(watched.system)
        mon.install_sanitizer()
        drive(watched, ms(150))
        mon.uninstall()
        assert watched.system.sim.events_processed == plain.system.sim.events_processed
        assert state_fingerprint(capture_state(watched.system)) == fp_plain

    def test_sanitizer_catches_past_event(self):
        d = build_mini()
        drive(d, ms(50))
        mon = InvariantMonitor(d.system)
        mon.install_sanitizer()
        ev = d.system.sim.schedule(ms(5), lambda: None)
        ev.time = d.system.sim.now - ms(1)  # plant a past-dated event
        with pytest.raises(InvariantError, match="heap.monotonic"):
            d.system.sim.run_until(d.system.sim.now + ms(10))


def contended_system():
    """Two ranks on a 2-CPU node under 50x compressed noise: daemons and
    interrupt handlers keep preempting them onto the run queues."""
    from repro.config import ClusterConfig, MachineConfig, MpiConfig
    from repro.daemons.catalog import scale_noise, standard_noise
    from repro.system import System

    system = System(ClusterConfig(
        machine=MachineConfig(n_nodes=1, cpus_per_node=2),
        mpi=MpiConfig(progress_threads_enabled=False),
        noise=scale_noise(standard_noise(), 50.0),
        seed=5,
    ))

    def body(rank, api):
        for _ in range(40):
            yield from api.compute(ms(3))
            yield from api.allreduce(1.0)

    return system, system.launch(2, 2, body)


def run_until_queued(system):
    """Advance until some run queue holds a thread; return that thread."""
    sched = system.cluster.nodes[0].scheduler
    while True:
        system.sim.run_until(system.sim.now + 137.0)
        for q in [*sched.local_queues, sched.global_queue]:
            if q:
                return q.peek()


class TestCorruptions:
    """Each planted bug is flagged by exactly the check built for it."""

    def test_queued_thread_without_backlink(self):
        system, _ = contended_system()
        t = run_until_queued(system)
        t.rq_entry = None
        assert violations(system, "runqueue.backlink")
        assert violations(system, "thread.ready")

    def test_queued_thread_not_ready(self):
        from repro.kernel.thread import ThreadState

        system, _ = contended_system()
        t = run_until_queued(system)
        t.state = ThreadState.BLOCKED
        assert violations(system, "runqueue.state")

    def test_queued_thread_on_a_cpu(self):
        system, _ = contended_system()
        t = run_until_queued(system)
        t.cpu = 0
        assert violations(system, "runqueue.cpu")

    def test_thread_on_two_runqueues(self):
        from repro.kernel.thread import ThreadState

        d = build_mini()
        drive(d, ms(50))
        sched = d.system.cluster.nodes[0].scheduler
        t = sched.threads[0]
        # Plant the bug: enqueue the same thread on two distinct queues
        # (clearing the backlink between pushes, as a double-enqueue bug
        # inside the scheduler effectively would).
        sched.local_queues[0].push(t)
        t.rq_entry = None
        sched.local_queues[1].push(t)
        t.state = ThreadState.READY
        t.cpu = None
        assert violations(d.system, "runqueue.unique")

    def test_cpu_busy_beyond_elapsed(self):
        d = build_mini()
        drive(d, ms(50))
        d.system.cluster.nodes[0].scheduler.cpus[0].busy_us = 1e12
        assert violations(d.system, "cputime.cpu")

    def test_thread_cpu_time_beyond_elapsed(self):
        d = build_mini()
        drive(d, ms(50))
        t = d.system.cluster.nodes[0].scheduler.threads[0]
        t.stats.cpu_time_us = 1e12
        assert violations(d.system, "cputime.thread")

    def test_event_scheduled_in_the_past(self):
        d = build_mini()
        drive(d, ms(50))
        ev = d.system.sim.schedule(ms(5), lambda: None)
        ev.time = -1.0
        assert violations(d.system, "heap.monotonic")

    def test_running_thread_without_cpu(self):
        d = build_mini()
        drive(d, ms(50))
        sched = d.system.cluster.nodes[0].scheduler
        t = next(t for t in sched.threads if t.cpu is not None)
        sched.cpus[t.cpu].thread = None
        assert violations(d.system, "thread.running")

    def test_transport_attempt_and_backoff_overrun(self):
        d = build_mini(faults=True)  # faults enable the reliable transport
        drive(d, ms(100))
        rel = d.system.jobs[0].world.reliability
        assert rel is not None
        msg = Message(src=0, dst=1, tag=1, payload=None, nbytes=8)
        seq = rel._next_seq.get(0, 0)
        rel._next_seq[0] = seq + 1
        rel._inflight[(0, seq)] = [
            0, 1, msg, rel.max_attempts + 3, rel.max_timeout_us * 4.0, None,
        ]
        assert violations(d.system, "transport.attempts")
        assert violations(d.system, "transport.backoff")

    def test_transport_lost_sequence_number(self):
        d = build_mini(faults=True)
        drive(d, ms(100))
        rel = d.system.jobs[0].world.reliability
        # A seq that is neither in-flight nor delivered.
        rel._next_seq[0] = rel._next_seq.get(0, 0) + 1
        assert violations(d.system, "transport.complete")

    def test_cosched_heartbeat_from_the_future(self):
        d = build_mini()
        drive(d, ms(50))
        nc = next(iter(d.system.coscheds[0].node_coscheds.values()))
        nc.heartbeat = d.system.sim.now + 1e6
        assert violations(d.system, "cosched.heartbeat")

    def test_cosched_priority_outside_window(self):
        d = build_mini()
        drive(d, ms(50))
        jc = d.system.coscheds[0]
        nc = next(
            nc for nc in jc.node_coscheds.values()
            if nc.window != "idle" and nc.tasks
        )
        nc.tasks[0].priority = 99
        assert violations(d.system, "cosched.priority")


class TestTransportStandalone:
    def test_clean_transport_has_consistent_sequence_space(self):
        sim = Simulator()
        fabric = Fabric(sim, NetworkConfig())
        delivered = []
        rel = ReliableTransport(
            sim, fabric, lambda m: delivered.append(m),
            timeout_us=10.0, backoff=2.0, max_timeout_us=40.0, max_attempts=4,
        )
        for i in range(5):
            rel.send(0, 1, Message(src=0, dst=1, tag=i, payload=i, nbytes=8))
        sim.run(max_events=10_000)
        assert len(delivered) == 5
        assert rel._delivered == {(0, i) for i in range(5)}
        assert not rel._inflight
