"""Fault injection & resilience: primitives, reliable transport, watchdog
recovery, graceful degradation, and the zero-overhead / determinism
invariants the subsystem promises."""

import numpy as np
import pytest

from repro.apps.aggregate_trace import AggregateTraceConfig, run_aggregate_trace
from repro.config import (
    ClusterConfig,
    CoschedConfig,
    CoschedFaultSpec,
    FaultConfig,
    KernelConfig,
    MachineConfig,
    MpiConfig,
    NodeFaultSpec,
    NoiseConfig,
)
from repro.daemons.catalog import scale_noise, standard_noise
from repro.faults.injector import NetFaultPlane
from repro.kernel.thread import Compute, ThreadState
from repro.net.fabric import MessageStats
from repro.sim.core import Simulator
from repro.system import System
from repro.trace.analysis import attribute_faults, fault_summary
from repro.trace.recorder import TraceRecorder
from repro.units import ms, s


def build_system(
    n_nodes=2,
    cpn=4,
    faults=None,
    cosched=None,
    kernel=None,
    noise=None,
    seed=7,
    trace=None,
):
    cfg = ClusterConfig(
        machine=MachineConfig(n_nodes=n_nodes, cpus_per_node=cpn),
        kernel=kernel if kernel is not None else KernelConfig(),
        noise=noise if noise is not None else NoiseConfig(),
        mpi=MpiConfig(progress_threads_enabled=False),
        cosched=cosched if cosched is not None else CoschedConfig(enabled=False),
        faults=faults if faults is not None else FaultConfig(),
        seed=seed,
    )
    return System(cfg, trace=trace)


def allreduce_job(system, n_ranks=8, tpn=4, calls=4, compute_us=200.0, horizon=s(60)):
    """Launch a compute+allreduce loop; return (elapsed, per-rank results)."""
    results = []

    def body(rank, api):
        acc = 0
        for _ in range(calls):
            yield from api.compute(compute_us)
            acc = yield from api.allreduce(1)
        results.append(acc)

    job = system.launch(n_ranks, tpn, body)
    elapsed = job.run(horizon_us=horizon)
    return elapsed, results


def compute_job(system, duration_us, n_ranks=4, tpn=4, horizon=s(60)):
    """Launch a pure-compute job; return elapsed µs."""

    def body(rank, api):
        yield from api.compute(duration_us)

    job = system.launch(n_ranks, tpn, body)
    return job.run(horizon_us=horizon)


def normalized_intervals(trace):
    """Trace stream with tids renumbered by first appearance (the tid
    counter is process-global, so raw tids differ between runs)."""
    remap = {}
    out = []
    for iv in trace.intervals:
        tid = remap.setdefault(iv.tid, len(remap))
        out.append((iv.node, iv.cpu, tid, iv.name, iv.category, iv.t0, iv.t1))
    return out


class FixedRng:
    """Deterministic stand-in for an rng stream; proves draw counts too."""

    def __init__(self, values=()):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


# ----------------------------------------------------------------------
# Configuration validation
# ----------------------------------------------------------------------
class TestFaultConfigValidation:
    def test_defaults_disabled_and_clean(self):
        fc = FaultConfig()
        assert not fc.enabled and not fc.any_net_faults

    def test_any_net_faults(self):
        assert FaultConfig(msg_drop_prob=0.1).any_net_faults
        assert FaultConfig(msg_dup_prob=0.1).any_net_faults
        assert FaultConfig(msg_delay_prob=0.1).any_net_faults

    @pytest.mark.parametrize(
        "kw",
        [
            {"msg_drop_prob": 1.5},
            {"pipe_loss_prob": -0.1},
            {"net_window_us": (10.0, 5.0)},
            {"retransmit_timeout_us": 0.0},
            {"retransmit_backoff": 0.5},
            {"retransmit_max_attempts": 0},
            {"watchdog_interval_us": 0.0},
            {"clock_drift_rate": -1e-4},
        ],
    )
    def test_bad_values_raise(self, kw):
        with pytest.raises(ValueError):
            FaultConfig(**kw)

    def test_node_fault_spec_validation(self):
        with pytest.raises(ValueError):
            NodeFaultSpec(node=0, at_us=0.0, duration_us=1.0, kind="melt")
        with pytest.raises(ValueError):
            NodeFaultSpec(node=0, at_us=0.0, duration_us=0.0)
        with pytest.raises(ValueError):
            NodeFaultSpec(node=0, at_us=0.0, duration_us=1.0, kind="slowdown", fraction=1.5)

    def test_cosched_fault_spec_validation(self):
        with pytest.raises(ValueError):
            CoschedFaultSpec(node=0, at_us=0.0, kind="sulk")
        with pytest.raises(ValueError):
            CoschedFaultSpec(node=0, at_us=0.0, kind="hang", duration_us=0.0)

    @pytest.mark.parametrize(
        "kw",
        [
            {"net_window_us": (-1.0, 5.0)},
            {"timesync_loss_at_us": -1.0},
        ],
    )
    def test_negative_times_raise(self, kw):
        with pytest.raises(ValueError):
            FaultConfig(**kw)

    def test_unknown_node_targets_rejected(self):
        fc = FaultConfig(
            node_faults=(NodeFaultSpec(node=5, at_us=0.0, duration_us=1.0),),
            cosched_faults=(CoschedFaultSpec(node=7, at_us=0.0, kind="die"),),
        )
        with pytest.raises(ValueError, match=r"unknown node\(s\) \[5, 7\]"):
            fc.validate_targets(2)
        fc.validate_targets(8)  # all targets in range: accepted

    def test_system_rejects_fault_on_missing_node_at_construction(self):
        faults = FaultConfig(
            enabled=True,
            node_faults=(NodeFaultSpec(node=9, at_us=0.0, duration_us=1.0),),
        )
        with pytest.raises(ValueError, match="unknown node"):
            build_system(n_nodes=2, faults=faults)

    def test_injector_refuses_disabled_config(self):
        from repro.faults.injector import FaultInjector

        sysm = build_system()
        with pytest.raises(ValueError):
            FaultInjector(sysm.cluster, FaultConfig())

    def test_disabled_faults_install_nothing(self):
        sysm = build_system(faults=FaultConfig(enabled=False, msg_drop_prob=0.9))
        assert sysm.injector is None
        assert sysm.cluster.fabric.fault_plane is None


# ----------------------------------------------------------------------
# Network fault plane (unit)
# ----------------------------------------------------------------------
class _OneStreamFactory:
    """Stream factory stub handing every named stream the same scripted
    rng — unit tests drive one fault type on one link at a time, so a
    single shared script keeps the draws explicit."""

    def __init__(self, rng):
        self.rng = rng

    def stream(self, name):
        return self.rng


class TestNetFaultPlane:
    def _plane(self, cfg, rng):
        return NetFaultPlane(Simulator(), cfg, _OneStreamFactory(rng), MessageStats())

    def test_clean_when_no_draw_hits(self):
        cfg = FaultConfig(enabled=True, msg_drop_prob=0.1)
        assert self._plane(cfg, FixedRng([0.9])).plan(0, 1, 64) == (0.0,)

    def test_drop(self):
        cfg = FaultConfig(enabled=True, msg_drop_prob=1.0)
        plane = self._plane(cfg, FixedRng([0.5]))
        assert plane.plan(0, 1, 64) == ()
        assert plane.drops == 1 and plane.stats.dropped == 1

    def test_delay(self):
        cfg = FaultConfig(enabled=True, msg_delay_prob=1.0, msg_delay_us=700.0)
        plane = self._plane(cfg, FixedRng([0.0]))
        assert plane.plan(0, 1, 64) == (700.0,)
        assert plane.delays == 1

    def test_duplicate(self):
        cfg = FaultConfig(enabled=True, msg_dup_prob=1.0, msg_delay_us=300.0)
        plane = self._plane(cfg, FixedRng([0.0]))
        assert plane.plan(0, 1, 64) == (0.0, 300.0)
        assert plane.dups == 1

    def test_same_node_never_faulted(self):
        cfg = FaultConfig(enabled=True, msg_drop_prob=1.0)
        # Empty rng: any draw would raise, proving none happens.
        assert self._plane(cfg, FixedRng()).plan(2, 2, 64) == (0.0,)

    def test_outside_window_never_faulted(self):
        cfg = FaultConfig(
            enabled=True, msg_drop_prob=1.0, net_window_us=(ms(10), ms(20))
        )
        assert self._plane(cfg, FixedRng()).plan(0, 1, 64) == (0.0,)


# ----------------------------------------------------------------------
# Network fault plane: stream-ordering properties (hypothesis)
# ----------------------------------------------------------------------
class TestNetFaultPlaneStreamProperties:
    """Pins the per-link, per-type stream contract in NetFaultPlane's
    docstring: a config replays identically, enabling one fault type
    never reshuffles another type's draws, and traffic on one link never
    reshuffles another link's draws (the shard-stability contract)."""

    N_MSGS = 60

    @staticmethod
    def _plane(seed, drop, delay, dup):
        from repro.rng import StreamFactory

        cfg = FaultConfig(
            enabled=True,
            msg_drop_prob=drop,
            msg_delay_prob=delay,
            msg_dup_prob=dup,
            msg_delay_us=500.0,
        )
        return NetFaultPlane(Simulator(), cfg, StreamFactory(seed), MessageStats())

    @staticmethod
    def _decisions(seed, drop, delay, dup):
        """Run N inter-node messages through a fresh plane; return the
        per-message plan tuples (the complete observable behaviour)."""
        plane = TestNetFaultPlaneStreamProperties._plane(seed, drop, delay, dup)
        return [
            plane.plan(0, 1, 64) for _ in range(TestNetFaultPlaneStreamProperties.N_MSGS)
        ]

    def test_replay_is_deterministic(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        prob = st.floats(0.0, 1.0, allow_nan=False)

        @settings(deadline=None, max_examples=40)
        @given(seed=st.integers(0, 2**31 - 1), drop=prob, delay=prob, dup=prob)
        def check(seed, drop, delay, dup):
            a = self._decisions(seed, drop, delay, dup)
            b = self._decisions(seed, drop, delay, dup)
            assert a == b

        check()

    def test_fault_types_draw_from_independent_streams(self):
        """Turning dup/delay on or off must not move which messages get
        dropped, and turning dup on or off must not move which get
        delayed — each type owns its stream."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        prob = st.floats(0.01, 0.99, allow_nan=False)

        @settings(deadline=None, max_examples=40)
        @given(seed=st.integers(0, 2**31 - 1), drop=prob, delay=prob, dup=prob)
        def check(seed, drop, delay, dup):
            full = self._decisions(seed, drop, delay, dup)
            drop_only = self._decisions(seed, drop, 0.0, 0.0)
            no_dup = self._decisions(seed, drop, delay, 0.0)
            dropped = [i for i, p in enumerate(full) if p == ()]
            assert dropped == [i for i, p in enumerate(drop_only) if p == ()]
            assert dropped == [i for i, p in enumerate(no_dup) if p == ()]
            delayed = [i for i, p in enumerate(full) if p and p[0] > 0.0]
            assert delayed == [i for i, p in enumerate(no_dup) if p and p[0] > 0.0]

        check()

    def test_links_draw_from_independent_streams(self):
        """Interleaving traffic on other links must not move a link's own
        decision sequence — the property that makes the fault plane
        shard-stable: a shard draws only for links whose source node it
        owns, in that node's local event order, and still reproduces the
        serial run's per-link decisions."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        prob = st.floats(0.05, 0.95, allow_nan=False)

        @settings(deadline=None, max_examples=40)
        @given(seed=st.integers(0, 2**31 - 1), drop=prob, dup=prob)
        def check(seed, drop, dup):
            n = TestNetFaultPlaneStreamProperties.N_MSGS
            alone = TestNetFaultPlaneStreamProperties._plane(seed, drop, 0.0, dup)
            solo = [alone.plan(0, 1, 64) for _ in range(n)]
            mixed = TestNetFaultPlaneStreamProperties._plane(seed, drop, 0.0, dup)
            interleaved = []
            for _ in range(n):
                mixed.plan(0, 2, 64)   # other dst
                interleaved.append(mixed.plan(0, 1, 64))
                mixed.plan(3, 1, 64)   # other src, same dst
            assert interleaved == solo

        check()


# ----------------------------------------------------------------------
# Reliable transport under a lossy fabric
# ----------------------------------------------------------------------
class TestReliableTransport:
    def test_total_drop_does_not_deadlock(self):
        """At msg_drop_prob=1 every attempt is eaten until the forced
        link-level path fires — collectives must still complete."""
        faults = FaultConfig(
            enabled=True,
            msg_drop_prob=1.0,
            retransmit_timeout_us=ms(1),
            retransmit_backoff=2.0,
            retransmit_max_timeout_us=ms(4),
            retransmit_max_attempts=3,
        )
        sysm = build_system(faults=faults)
        _, results = allreduce_job(sysm, calls=3)
        assert results == [8] * 8  # reduction semantics survive the chaos
        plane = sysm.injector.net_plane
        assert plane.drops > 0
        assert sysm.cluster.fabric.stats.dropped == plane.drops

    def test_forced_path_and_retransmit_counters(self):
        faults = FaultConfig(
            enabled=True,
            msg_drop_prob=1.0,
            retransmit_timeout_us=ms(1),
            retransmit_max_timeout_us=ms(4),
            retransmit_max_attempts=3,
        )
        sysm = build_system(faults=faults)
        job = sysm.launch(8, 4, lambda rank, api: api.allreduce(1))
        job.run(horizon_us=s(60))
        rel = job.world.reliability
        assert rel.forced > 0 and rel.retransmits >= rel.forced

    def test_duplicates_suppressed(self):
        faults = FaultConfig(enabled=True, msg_dup_prob=1.0, msg_delay_us=50.0)
        sysm = build_system(faults=faults)
        job = sysm.launch(8, 4, lambda rank, api: api.allreduce(1))
        job.run(horizon_us=s(60))
        # The run stops at the last rank's finish; duplicate copies still
        # in flight land afterwards.
        sysm.cluster.run_for(ms(1))
        assert job.world.reliability.duplicates_dropped > 0
        assert sysm.injector.net_plane.dups > 0

    def test_delay_slows_but_completes(self):
        clean_sys = build_system()
        clean, _ = allreduce_job(clean_sys, calls=4)
        faults = FaultConfig(enabled=True, msg_delay_prob=1.0, msg_delay_us=ms(1))
        slow_sys = build_system(faults=faults)
        slow, results = allreduce_job(slow_sys, calls=4)
        assert results == [8] * 8
        assert slow > clean
        assert slow_sys.injector.net_plane.delays > 0

    def test_backoff_cap_reached_exactly_at_retry_limit(self):
        """Edge case: the timeout hits max_timeout_us on the very retry
        that is also the last before the forced path.  The cap must apply
        (not overshoot), and the forced attempt must carry no timer.

        Timeline (timeout 10, backoff 2, cap 40, max_attempts 4):
        t=10 attempt 2 → timeout 20; t=30 attempt 3 → timeout 40 == cap;
        t=70 attempt 4 == limit → link-guaranteed path, no timer.
        """
        from repro.config import NetworkConfig
        from repro.mpi.messages import Message, ReliableTransport
        from repro.net.fabric import Fabric

        class DropAll:
            def plan(self, src, dst, nbytes):
                return ()  # every faultable copy is eaten

        sim = Simulator()
        fabric = Fabric(sim, NetworkConfig())
        fabric.fault_plane = DropAll()
        delivered = []
        rel = ReliableTransport(
            sim, fabric, delivered.append,
            timeout_us=10.0, backoff=2.0, max_timeout_us=40.0, max_attempts=4,
        )
        rel.send(0, 1, Message(src=0, dst=1, tag=0, payload="p", nbytes=8))
        entry = rel._inflight[(0, 0)]
        assert (entry[3], entry[4]) == (1, 10.0)

        sim.run_until(11.0)
        assert (entry[3], entry[4]) == (2, 20.0)
        sim.run_until(31.0)
        assert (entry[3], entry[4]) == (3, 40.0)  # capped exactly, not 80
        assert entry[4] == rel.max_timeout_us
        sim.run_until(71.0)
        # Final attempt == max_attempts: forced path, timer slot cleared.
        assert entry[3] == rel.max_attempts
        assert entry[5] is None
        assert rel.forced == 1 and rel.retransmits == 3
        assert not delivered  # still on the wire

        sim.run(max_events=100)
        assert [m.payload for m in delivered] == ["p"]
        # The forced copy's ack retires the in-flight entry.
        assert rel._delivered == {(0, 0)} and not rel._inflight


# ----------------------------------------------------------------------
# Node-level fault primitives
# ----------------------------------------------------------------------
class TestNodeFaults:
    WORK = ms(30)
    FREEZE = ms(50)

    def _elapsed(self, faults=None, trace=None):
        sysm = build_system(n_nodes=1, faults=faults, trace=trace)
        return compute_job(sysm, self.WORK), sysm

    def test_crash_stalls_the_node(self):
        clean, _ = self._elapsed()
        crash = FaultConfig(
            enabled=True,
            node_faults=(NodeFaultSpec(node=0, at_us=ms(10), duration_us=self.FREEZE),),
        )
        frozen, sysm = self._elapsed(crash)
        assert frozen >= clean + 0.9 * self.FREEZE
        assert [ev.kind for ev in sysm.injector.events] == ["node_crash"]

    def test_slowdown_is_between_clean_and_crash(self):
        clean = self._elapsed()[0]
        slow_cfg = FaultConfig(
            enabled=True,
            node_faults=(
                NodeFaultSpec(
                    node=0,
                    at_us=ms(10),
                    duration_us=self.FREEZE,
                    kind="slowdown",
                    fraction=0.5,
                    period_us=ms(2),
                ),
            ),
        )
        slow = self._elapsed(slow_cfg)[0]
        crash_cfg = FaultConfig(
            enabled=True,
            node_faults=(NodeFaultSpec(node=0, at_us=ms(10), duration_us=self.FREEZE),),
        )
        frozen = self._elapsed(crash_cfg)[0]
        assert clean < slow < frozen

    def test_fault_events_reach_the_trace(self):
        crash = FaultConfig(
            enabled=True,
            node_faults=(NodeFaultSpec(node=0, at_us=ms(10), duration_us=ms(5)),),
        )
        trace = TraceRecorder()
        _, sysm = self._elapsed(crash, trace=trace)
        assert fault_summary(trace) == {"node_crash": 1}
        assert trace.faults[0].time == ms(10)


# ----------------------------------------------------------------------
# Clock faults
# ----------------------------------------------------------------------
class TestClockFaults:
    def test_local_global_inverse_under_drift(self):
        node = build_system().cluster.nodes[0]
        node.jump_clock(123.4)
        node.set_clock_drift(5e-5, 1000.0)
        for t in (1000.0, 5_000.0, 1e6, 3.7e7):
            assert node.global_time(node.local_time(t)) == pytest.approx(t, abs=1e-6)

    def test_jump_clock_shifts_local_time(self):
        node = build_system().cluster.nodes[0]
        before = node.local_time(500.0)
        node.jump_clock(42.0)
        assert node.local_time(500.0) == pytest.approx(before + 42.0)

    def test_timesync_loss_degrades_daemons_to_free_running(self):
        faults = FaultConfig(
            enabled=True,
            timesync_loss_at_us=ms(300),
            clock_jump_us=ms(50),
            clock_drift_rate=1e-4,
            watchdog_interval_us=ms(100),
        )
        cos = CoschedConfig(enabled=True, period_us=ms(200), duty_cycle=0.9, sync_clock=True)
        sysm = build_system(
            faults=faults, cosched=cos, kernel=KernelConfig.prototype(big_tick=2)
        )
        compute_job(sysm, ms(700), n_ranks=8)
        assert sysm.cluster.switch.failed
        jc = sysm.coscheds[0]
        assert all(nc.free_running for nc in jc.node_coscheds.values())
        kinds = [ev.kind for ev in sysm.injector.events]
        assert kinds.count("timesync_lost") == 1
        assert kinds.count("timesync_degraded") == len(jc.node_coscheds)
        assert sysm.injector.monitor.checks > 0


# ----------------------------------------------------------------------
# Scheduler kill primitive
# ----------------------------------------------------------------------
class TestSchedulerKill:
    def test_kill_running_thread_stops_progress(self, harness):
        t = harness.spawn(harness.worker("a", [10.0] * 20), name="victim")
        harness.run(55.0)
        done_before = len(harness.times("a"))
        assert done_before == 5
        harness.sched.kill(t)
        assert t.state is ThreadState.FINISHED
        harness.run(500.0)
        assert len(harness.times("a")) == done_before

    def test_kill_ready_thread_removes_from_queue(self, harness):
        a = harness.spawn(harness.worker("a", [50.0]), name="a", cpu=0)
        b = harness.spawn(harness.worker("b", [50.0]), name="b", cpu=0)
        harness.run(10.0)  # a running, b queued
        harness.sched.kill(b)
        harness.run(500.0)
        assert harness.times("a") and not harness.times("b")
        assert a.state is ThreadState.FINISHED and b.state is ThreadState.FINISHED

    def test_kill_finished_thread_is_noop(self, harness):
        t = harness.spawn(harness.worker("a", [10.0]), name="a")
        harness.run(100.0)
        assert t.state is ThreadState.FINISHED
        harness.sched.kill(t)
        assert t.state is ThreadState.FINISHED


# ----------------------------------------------------------------------
# Co-scheduler watchdog
# ----------------------------------------------------------------------
class TestWatchdog:
    COS = dict(enabled=True, period_us=ms(200), duty_cycle=0.9, sync_clock=True)

    def _system(self, faults):
        return build_system(
            faults=faults,
            cosched=CoschedConfig(**self.COS),
            kernel=KernelConfig.prototype(big_tick=2),
        )

    def test_dead_daemon_is_restarted_and_tasks_reregistered(self):
        faults = FaultConfig(
            enabled=True,
            cosched_faults=(CoschedFaultSpec(node=0, at_us=ms(300), kind="die"),),
            watchdog_interval_us=ms(100),
        )
        sysm = self._system(faults)

        def body(rank, api):
            yield from api.compute(ms(900))

        job = sysm.launch(8, 4, body)
        jc = sysm.coscheds[0]
        old_nc = jc.node_coscheds[0]
        job.run(horizon_us=s(60))
        assert jc.restarts >= 1
        assert jc.node_coscheds[0] is not old_nc
        kinds = [ev.kind for ev in sysm.injector.events]
        assert "cosched_died" in kinds and "cosched_restarted" in kinds
        assert sum(wd.restarts for wd in sysm.injector.watchdogs) == jc.restarts
        # The replacement re-learned every task over the control pipe.
        nc = jc.node_coscheds[0]
        assert all(nc.knows(t) for t in jc.node_tasks(0))

    def test_hung_daemon_detected_by_heartbeat_staleness(self):
        faults = FaultConfig(
            enabled=True,
            cosched_faults=(
                CoschedFaultSpec(node=0, at_us=ms(300), kind="hang", duration_us=ms(700)),
            ),
            watchdog_interval_us=ms(100),
            watchdog_staleness_periods=2.0,  # stale after 400ms of silence
        )
        sysm = self._system(faults)
        compute_job(sysm, ms(1400), n_ranks=8)
        restarted = [
            ev for ev in sysm.injector.events if ev.kind == "cosched_restarted"
        ]
        assert restarted and restarted[0].detail == "hung"
        assert sysm.coscheds[0].restarts >= 1

    def test_restart_of_hung_daemon_kills_the_wedged_thread(self):
        """Edge case: restart while the daemon is *hung*, not dead.  The
        wedged thread is still alive (sleeping past its deadline), so the
        watchdog must kill it before installing the replacement — and the
        replacement must re-learn every registered task."""
        faults = FaultConfig(
            enabled=True,
            cosched_faults=(
                # Hang outlives the whole run: the old daemon thread can
                # only reach FINISHED via the watchdog's kill.
                CoschedFaultSpec(node=0, at_us=ms(300), kind="hang", duration_us=s(30)),
            ),
            watchdog_interval_us=ms(100),
            watchdog_staleness_periods=2.0,
        )
        sysm = self._system(faults)

        def body(rank, api):
            yield from api.compute(ms(1400))

        job = sysm.launch(8, 4, body)
        jc = sysm.coscheds[0]
        old_nc = jc.node_coscheds[0]
        job.run(horizon_us=s(60))

        assert jc.restarts >= 1
        assert jc.node_coscheds[0] is not old_nc
        # Killed while wedged-alive — it never exited on its own.
        assert old_nc.thread.state is ThreadState.FINISHED
        kinds = {ev.kind for ev in sysm.injector.events}
        assert "cosched_died" not in kinds  # hung, not dead
        details = [
            ev.detail for ev in sysm.injector.events
            if ev.kind == "cosched_restarted"
        ]
        assert details and all(d == "hung" for d in details)
        nc = jc.node_coscheds[0]
        assert all(nc.knows(t) for t in jc.node_tasks(0))

    def test_lossy_pipe_registrations_recovered_by_audit(self):
        faults = FaultConfig(
            enabled=True,
            pipe_loss_prob=0.85,
            watchdog_interval_us=ms(50),
        )
        sysm = self._system(faults)
        compute_job(sysm, ms(1500), n_ranks=8)
        inj = sysm.injector
        assert inj.pipe_losses > 0
        assert sum(wd.reregistrations for wd in inj.watchdogs) > 0
        jc = sysm.coscheds[0]
        for node_id, nc in jc.node_coscheds.items():
            assert all(nc.knows(t) for t in jc.node_tasks(node_id))


# ----------------------------------------------------------------------
# Invariants: zero overhead when disabled, determinism when enabled
# ----------------------------------------------------------------------
class TestInvariants:
    NOISE_SCALE = 30.0

    def _cfg(self, faults, seed=11):
        return ClusterConfig(
            machine=MachineConfig(n_nodes=2, cpus_per_node=4),
            kernel=KernelConfig.prototype(big_tick=2),
            noise=scale_noise(standard_noise(include_cron=False), self.NOISE_SCALE),
            mpi=MpiConfig(progress_threads_enabled=False),
            cosched=CoschedConfig(
                enabled=True, period_us=ms(10), duty_cycle=0.9, sync_clock=True
            ),
            faults=faults,
            seed=seed,
        )

    def _run(self, faults, seed=11):
        trace = TraceRecorder()
        sysm = System(self._cfg(faults, seed), trace=trace)
        res = run_aggregate_trace(
            sysm, 8, 4, AggregateTraceConfig(calls_per_loop=80, compute_between_us=150.0)
        )
        return res, trace, sysm

    FAULTY = dict(
        msg_drop_prob=0.05,
        msg_dup_prob=0.05,
        msg_delay_prob=0.05,
        msg_delay_us=300.0,
        pipe_loss_prob=0.3,
        timesync_loss_at_us=ms(6),
        clock_jump_us=ms(5),
        clock_drift_rate=1e-5,
        cosched_faults=(CoschedFaultSpec(node=1, at_us=ms(8), kind="die"),),
        retransmit_timeout_us=ms(1),
        retransmit_max_timeout_us=ms(8),
        watchdog_interval_us=ms(5),
    )

    def test_disabled_faults_are_bit_identical_to_baseline(self):
        """The zero-overhead invariant: a FaultConfig full of scary
        parameters but with the master switch off changes nothing."""
        base, base_trace, _ = self._run(FaultConfig())
        aware, aware_trace, sysm = self._run(FaultConfig(enabled=False, **self.FAULTY))
        assert sysm.injector is None
        assert np.array_equal(base.durations_us, aware.durations_us)
        assert normalized_intervals(base_trace) == normalized_intervals(aware_trace)

    def test_fault_runs_are_deterministic(self):
        """Same seed + same fault config -> byte-identical trace streams,
        durations, and fault event logs."""
        fc = FaultConfig(enabled=True, **self.FAULTY)
        a, ta, sa = self._run(fc)
        b, tb, sb = self._run(fc)
        assert np.array_equal(a.durations_us, b.durations_us)
        assert normalized_intervals(ta) == normalized_intervals(tb)
        assert sa.injector.events == sb.injector.events
        assert ta.faults == tb.faults and len(ta.faults) > 0
        c, _, _ = self._run(fc, seed=12)
        assert not np.array_equal(a.durations_us, c.durations_us)


# ----------------------------------------------------------------------
# Trace attribution helpers
# ----------------------------------------------------------------------
class TestAttribution:
    def _trace(self):
        tr = TraceRecorder()
        tr.record_fault("node_crash", 0, 50.0)
        tr.record_fault("timesync_lost", -1, 500.0)
        tr.record_fault("node_slowdown", 3, 250.0)
        return tr

    def test_windows_pick_up_their_faults(self):
        hits = attribute_faults(
            self._trace(), [(0.0, 100.0), (200.0, 300.0), (400.0, 600.0)], node=0
        )
        by_index = {idx: [ev.kind for ev in evs] for idx, _, evs in hits}
        assert by_index[0] == ["node_crash"]
        # Cluster-wide events match regardless of the node filter; the
        # node-3 slowdown is filtered out.
        assert by_index[2] == ["timesync_lost"]
        assert 1 not in by_index

    def test_slack_extends_windows_backwards(self):
        tr = TraceRecorder()
        tr.record_fault("node_crash", 0, 95.0)
        assert attribute_faults(tr, [(100.0, 200.0)]) == []
        hits = attribute_faults(tr, [(100.0, 200.0)], slack_us=10.0)
        assert len(hits) == 1 and hits[0][0] == 0

    def test_fault_summary_counts(self):
        assert fault_summary(self._trace()) == {
            "node_crash": 1,
            "timesync_lost": 1,
            "node_slowdown": 1,
        }


# ----------------------------------------------------------------------
# E8 experiment smoke (the full-size claims are on the CLI's resilience row)
# ----------------------------------------------------------------------
class TestResilienceExperiment:
    def test_small_scale_smoke(self):
        from repro.experiments.resilience import format_resilience, run_resilience

        res = run_resilience(n_ranks=8, tpn=4, calls=400, time_compression=100.0)
        for v in (res.healthy_us, res.degraded_us, res.uncoordinated_us,
                  res.drop_us, res.death_us):
            assert v > 0
        # The lossy run completed (returning at all is the no-deadlock
        # criterion) and recovered every drop without the forced path.
        assert res.drop_retransmits >= res.drop_net_drops
        assert res.degradation_events >= 1
        out = format_resilience(res)
        assert "resilience" in out and "watchdog" in out
