"""Conservative parallel DES: shard-count invariance is the contract.

The whole point of :mod:`repro.sim.parallel` is that sharding is an
*execution strategy*, not a model change: the rank-visible outcome of a
run — per-call Allreduce durations of the recorded ranks, reduction
integrity, makespan — must be byte-identical whether the cluster's nodes
are simulated in one process or split across N.  These tests hold that
contract on randomized small clusters (including cancel-heavy blocking
waits, co-scheduling, the lottery policy's per-node RNG streams, and
deterministic fault schedules), plus the unit-level pieces it rests on:
the half-open ``run_until_before`` window, the block partition, and the
creation-order independence of named RNG streams.
"""

import math
import pkgutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    CoschedConfig,
    CoschedFaultSpec,
    FaultConfig,
    NodeFaultSpec,
)
from repro.daemons.catalog import scale_noise, standard_noise
from repro.experiments.common import VANILLA16, make_config
from repro.rng import StreamFactory
import repro.sim
from repro.sim.core import Simulator
from repro.sim.parallel import (
    ShardHost,
    WindowViolation,
    run_parallel,
    validate_sharded_config,
)
from repro.sim.shard import ShardPlan
from repro.units import ms, s

APP = "repro.apps.aggregate_trace:sharded_app"


def small_config(seed=7, time_factor=400, **overrides):
    """A 4-node, 64-rank cluster with compressed noise — big enough to
    cross shard boundaries on every Allreduce, small enough to sweep."""
    noise = scale_noise(standard_noise(include_cron=False), time_factor)
    cfg = make_config(VANILLA16, n_ranks=64, noise=noise, seed=seed)
    return cfg.replace(**overrides) if overrides else cfg


def run_shards(config, shards, params=None, meanfield=None, use_processes=False):
    return run_parallel(
        config,
        n_ranks=64,
        tasks_per_node=16,
        app=APP,
        app_params=params
        or dict(loops=1, calls_per_loop=4, trace_block=64,
                compute_between_us=500.0, payload_bytes=8, record_nodes=(0,)),
        shards=shards,
        horizon_us=s(600),
        meanfield=meanfield,
        use_processes=use_processes,
    )


# ---------------------------------------------------------------------------
# ShardPlan: the block partition
# ---------------------------------------------------------------------------

class TestShardPlan:
    @given(n_nodes=st.integers(1, 64), n_shards=st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_partition_is_exact(self, n_nodes, n_shards):
        if n_shards > n_nodes:
            with pytest.raises(ValueError):
                ShardPlan(n_nodes, n_shards)
            return
        plan = ShardPlan(n_nodes, n_shards)
        seen = []
        for shard in range(n_shards):
            nodes = list(plan.nodes_of(shard))
            assert nodes, "every shard owns at least one node"
            for n in nodes:
                assert plan.shard_of(n) == shard
            seen.extend(nodes)
        assert seen == list(range(n_nodes))

    @given(n_nodes=st.integers(2, 64), n_shards=st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_balance(self, n_nodes, n_shards):
        if n_shards > n_nodes:
            return
        plan = ShardPlan(n_nodes, n_shards)
        sizes = [len(plan.nodes_of(sh)) for sh in range(n_shards)]
        assert max(sizes) - min(sizes) <= 1

    @given(
        n_nodes=st.integers(1, 64),
        n_shards=st.integers(1, 16),
        job_frac=st.floats(0.0, 1.0),
        tpn=st.integers(1, 32),
    )
    @settings(max_examples=60, deadline=None)
    def test_for_placement_is_exact_partition(
        self, n_nodes, n_shards, job_frac, tpn
    ):
        if n_shards > n_nodes:
            return
        job_nodes = round(job_frac * n_nodes)
        plan = ShardPlan.for_placement(n_nodes, n_shards, job_nodes, tpn)
        seen = []
        for shard in range(n_shards):
            nodes = list(plan.nodes_of(shard))
            assert nodes, "every shard owns at least one node"
            for n in nodes:
                assert plan.shard_of(n) == shard
            seen.extend(nodes)
        assert seen == list(range(n_nodes))

    @given(n_nodes=st.integers(2, 64), n_shards=st.integers(2, 8),
           tpn=st.integers(2, 32))
    @settings(max_examples=40, deadline=None)
    def test_for_placement_weight_balance(self, n_nodes, n_shards, tpn):
        """With every node hosting ranks, each cut lands within one node's
        weight of its ideal k/S split point."""
        if n_shards > n_nodes:
            return
        plan = ShardPlan.for_placement(n_nodes, n_shards, n_nodes, tpn)
        total = n_nodes * tpn
        for k in range(1, n_shards):
            assert abs(plan.boundaries[k] * tpn - k * total / n_shards) <= tpn

    def test_for_placement_splits_busy_head(self):
        """8 nodes, job on the first 2: the legacy node-count plan puts
        both busy nodes on shard 0; the placement plan cuts between them
        so each shard carries half the ranks."""
        plan = ShardPlan.for_placement(8, 2, job_nodes=2, tasks_per_node=16)
        assert plan.boundaries == (0, 1, 8)
        assert plan.shard_of(0) != plan.shard_of(1)
        legacy = ShardPlan(8, 2)
        assert legacy.shard_of(0) == legacy.shard_of(1)


# ---------------------------------------------------------------------------
# Simulator.run_until_before: the half-open superstep window
# ---------------------------------------------------------------------------

class TestRunUntilBefore:
    def test_strict_bound(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0, 3.0, 4.0):
            sim.schedule_at(t, fired.append, t)
        sim.run_until_before(3.0)
        assert fired == [1.0, 2.0]
        assert sim.now == 3.0
        # The events AT the bound are still pending and fire next window.
        sim.run_until_before(5.0)
        assert fired == [1.0, 2.0, 3.0, 3.0, 4.0]

    def test_clock_advances_even_when_idle(self):
        sim = Simulator()
        sim.run_until_before(10.0)
        assert sim.now == 10.0


# ---------------------------------------------------------------------------
# Shard-count invariance (the tentpole contract)
# ---------------------------------------------------------------------------

class TestShardEquivalence:
    def _digests(self, config, params=None, shard_counts=(1, 2, 4)):
        runs = [run_shards(config, n, params=params) for n in shard_counts]
        base = runs[0]
        for r in runs[1:]:
            assert r.digest == base.digest, (
                f"shards={r.shards} diverged from shards={base.shards}"
            )
            for k in base.ranks:
                assert np.array_equal(base.ranks[k], r.ranks[k])
        return base

    def test_basic_equivalence(self):
        base = self._digests(small_config())
        assert base.ok

    @given(
        seed=st.integers(0, 2**16),
        wait_mode=st.sampled_from(["poll", "block"]),
        cosched=st.booleans(),
        policy=st.sampled_from(["aix", "lottery"]),
        calls=st.integers(2, 5),
        compute_us=st.sampled_from([200.0, 800.0]),
    )
    @settings(max_examples=10, deadline=None)
    def test_randomized_equivalence(
        self, seed, wait_mode, cosched, policy, calls, compute_us
    ):
        cfg = small_config(seed=seed)
        cfg = cfg.replace(
            mpi=cfg.mpi.__class__(wait_mode=wait_mode),
            kernel=cfg.kernel.with_options(policy=policy),
            cosched=CoschedConfig(
                enabled=cosched, period_us=ms(50), duty_cycle=0.9
            ),
        )
        params = dict(
            loops=1, calls_per_loop=calls, trace_block=64,
            compute_between_us=compute_us, payload_bytes=8, record_nodes=(0,),
        )
        self._digests(cfg, params=params)

    def test_fault_schedule_equivalence(self):
        """Deterministic faults — a crash, a slowdown, a dead co-scheduler
        — land on whichever shard owns the node; outcome is unchanged."""
        cfg = small_config(
            cosched=CoschedConfig(enabled=True, period_us=ms(50), duty_cycle=0.9),
            faults=FaultConfig(
                enabled=True,
                node_faults=(
                    NodeFaultSpec(node=1, at_us=ms(5), duration_us=ms(3), kind="crash"),
                    NodeFaultSpec(
                        node=2, at_us=ms(2), duration_us=ms(10),
                        kind="slowdown", fraction=0.5,
                    ),
                ),
                cosched_faults=(
                    CoschedFaultSpec(node=3, at_us=ms(1), kind="die"),
                ),
            ),
        )
        self._digests(cfg, shard_counts=(1, 4))

    def test_meanfield_composes_with_sharding(self):
        """Batching is a per-node decision, so it too is shard-invariant."""
        from repro.sim.meanfield import MeanFieldConfig

        cfg = small_config()
        mf = MeanFieldConfig(batch=8, exempt_nodes=(0,))
        a = run_shards(cfg, 1, meanfield=mf)
        b = run_shards(cfg, 2, meanfield=mf)
        assert a.digest == b.digest

    def test_real_subprocess_workers(self):
        """The in-process and forked-worker drivers are the same model."""
        cfg = small_config()
        inproc = run_shards(cfg, 2, use_processes=False)
        forked = run_shards(cfg, 2, use_processes=True)
        assert inproc.digest == forked.digest
        assert inproc.events_per_shard == forked.events_per_shard


# ---------------------------------------------------------------------------
# Stochastic faults + resilience under sharding (this PR's tentpole)
# ---------------------------------------------------------------------------

def chaos_faults(**overrides):
    """Every fault knob at once: the configuration sharded mode used to
    reject wholesale and must now reproduce byte-for-byte."""
    kw = dict(
        enabled=True,
        msg_drop_prob=0.05,
        msg_dup_prob=0.05,
        msg_delay_prob=0.05,
        msg_delay_us=200.0,
        pipe_loss_prob=0.3,
        timesync_loss_at_us=ms(6),
        retransmit_timeout_us=ms(1),
        retransmit_max_timeout_us=ms(8),
        watchdog_interval_us=ms(5),
    )
    kw.update(overrides)
    return FaultConfig(**kw)


class TestFaultEquivalence:
    """Drop/dup/delay, pipe loss, timesync loss, retransmit, and the
    watchdog all draw from per-link / per-node streams now — the full
    fault plane is an execution-strategy-independent part of the model."""

    def test_full_fault_stack_equivalence(self):
        cfg = small_config(
            cosched=CoschedConfig(enabled=True, period_us=ms(50), duty_cycle=0.9),
            faults=chaos_faults(),
        )
        runs = [run_shards(cfg, n) for n in (1, 2, 4)]
        base = runs[0]
        assert base.ok
        # Faults actually fired — this is not a vacuous pass.
        assert base.counters["net_drops"] > 0
        assert base.counters["retransmits"] > 0
        assert base.counters["pipe_losses"] > 0
        assert base.counters["degradation_events"] > 0
        for r in runs[1:]:
            assert r.digest == base.digest
            # Fault bookkeeping is also shard-count invariant when summed.
            assert r.counters == base.counters

    def test_full_fault_stack_forked_workers(self):
        cfg = small_config(faults=chaos_faults())
        inproc = run_shards(cfg, 2, use_processes=False)
        forked = run_shards(cfg, 2, use_processes=True)
        assert inproc.digest == forked.digest
        assert inproc.counters == forked.counters

    @given(
        seed=st.integers(0, 2**16),
        drop=st.floats(0.0, 0.15),
        dup=st.floats(0.0, 0.15),
        delay=st.floats(0.0, 0.15),
        pipe=st.floats(0.0, 0.4),
    )
    @settings(max_examples=6, deadline=None)
    def test_randomized_fault_equivalence(self, seed, drop, dup, delay, pipe):
        cfg = small_config(
            seed=seed,
            faults=chaos_faults(
                msg_drop_prob=drop,
                msg_dup_prob=dup,
                msg_delay_prob=delay,
                pipe_loss_prob=pipe,
            ),
        )
        params = dict(
            loops=1, calls_per_loop=3, trace_block=64,
            compute_between_us=400.0, payload_bytes=8, record_nodes=(0,),
        )
        a = run_shards(cfg, 1, params=params)
        b = run_shards(cfg, 2, params=params)
        assert a.digest == b.digest
        assert a.counters == b.counters


# ---------------------------------------------------------------------------
# Earliest-output-time windows
# ---------------------------------------------------------------------------

#: Two Allreduce calls: about 1.5 ms of simulated time when nothing breaks.
QUICK_APP = dict(loops=1, calls_per_loop=2, trace_block=64,
                 compute_between_us=500.0, payload_bytes=8, record_nodes=(0,))


@pytest.fixture
def windows(monkeypatch):
    """Every window bound a shard is stepped to, in order."""
    seen = []
    real = ShardHost.step_send

    def step_send(host, horizon, incoming):
        seen.append(horizon)
        real(host, horizon, incoming)

    monkeypatch.setattr(ShardHost, "step_send", step_send)
    return seen


class TestEarliestOutputWindows:
    def test_window_sequence_is_shard_count_invariant(self, windows):
        """Every term of the bound is simulator state with one owner, so
        1, 2 and 4 shards step through the same windows and fire the
        same events in total."""
        cfg = small_config()
        runs, sequences = [], []
        for n in (1, 2, 4):
            windows.clear()
            runs.append(run_shards(cfg, n))
            sequences.append(windows[::n])
        assert {r.supersteps for r in runs} == {runs[0].supersteps}
        assert {sum(r.events_per_shard) for r in runs} == {sum(runs[0].events_per_shard)}
        assert sequences[1] == sequences[0] and sequences[2] == sequences[0]

    def test_windows_outgrow_the_lookahead_while_ranks_compute(self, windows):
        """With 2 ms of compute between calls (and noise compressed only
        50-fold), a window spans most of a compute phase instead of one
        lookahead past the frontier."""
        params = dict(loops=1, calls_per_loop=2, trace_block=64,
                      compute_between_us=2000.0, payload_bytes=8, record_nodes=(0,))
        res = run_shards(small_config(time_factor=50), 2, params=params)
        steps = np.diff(windows[::2])
        assert steps.max() > 1500.0 > 20 * res.lookahead_us

    def test_unsound_bound_trips_the_guard(self, monkeypatch):
        """A bound that ignores every rank lets the first window run far
        past the first cross-shard send; the barrier check must name it."""
        monkeypatch.setattr(ShardHost, "earliest_output", lambda self: math.inf)
        with pytest.raises(WindowViolation, match=r"shard \d: envelope node \d+ -> node \d+ arrives at"):
            run_parallel(
                small_config(), n_ranks=64, tasks_per_node=16, app=APP,
                app_params=QUICK_APP, shards=2, horizon_us=ms(20),
                use_processes=False,
            )

    def test_stuck_job_stops_at_the_horizon(self, windows, monkeypatch):
        """Every rank blocks on a message the planted give-up bug lost,
        so the bound is infinite: the window is clamped to the horizon
        and the run ends with the same horizon error at any shard count."""
        monkeypatch.setenv("REPRO_CHAOS_BUG", "retransmit_giveup")
        cfg = small_config(faults=FaultConfig(
            enabled=True, msg_drop_prob=1.0,
            retransmit_timeout_us=100.0, retransmit_max_attempts=2,
        ))
        cfg = cfg.replace(mpi=cfg.mpi.__class__(wait_mode="block"))
        horizon = ms(20)
        errors = []
        for n in (1, 2):
            windows.clear()
            with pytest.raises(RuntimeError, match="incomplete at horizon") as exc:
                run_parallel(
                    cfg, n_ranks=64, tasks_per_node=16, app=APP,
                    app_params=QUICK_APP, shards=n, horizon_us=horizon,
                    use_processes=False,
                )
            errors.append(str(exc.value))
            assert max(windows) == horizon + cfg.network.latency_us
        assert errors[0] == errors[1]


@pytest.mark.parametrize(
    "module", sorted(m.name for m in pkgutil.iter_modules(repro.sim.__path__))
)
def test_sim_module_imports_first(module):
    """Each ``repro.sim`` module imports cleanly as the first ``repro``
    import of a fresh interpreter (no import cycle through it)."""
    subprocess.run(
        [sys.executable, "-c", f"import repro.sim.{module}"],
        check=True, capture_output=True,
    )


# ---------------------------------------------------------------------------
# Shard-stable RNG streams (the naming contract the equivalence rests on)
# ---------------------------------------------------------------------------

class TestStreamStability:
    def test_streams_independent_of_creation_order(self):
        """A shard creates only its own nodes' streams, in its own order;
        draws must match the serial run, which creates all of them."""
        serial = StreamFactory(seed=42)
        all_streams = {
            name: serial.stream(name).uniform(size=4)
            for name in (
                "kernel.lottery.n0", "kernel.lottery.n3",
                "daemon.mld.n2.c0", "daemon.mld.phase",
            )
        }
        shard = StreamFactory(seed=42)
        # Reverse order, with unrelated interleaved creations.
        shard.stream("daemon.other.n9.c1")
        late = shard.stream("daemon.mld.n2.c0").uniform(size=4)
        shard.stream("kernel.lottery.n1")
        assert np.array_equal(late, all_streams["daemon.mld.n2.c0"])
        assert np.array_equal(
            shard.stream("kernel.lottery.n3").uniform(size=4),
            all_streams["kernel.lottery.n3"],
        )


# ---------------------------------------------------------------------------
# Checkpoint integration: the router's state is part of the snapshot
# ---------------------------------------------------------------------------

class TestSnapshot:
    def test_shard_router_state_in_snapshot(self):
        from repro.checkpoint import capture_state
        from repro.system import System

        cfg = small_config()
        plan = ShardPlan(cfg.machine.n_nodes, 2)
        system = System(cfg, shard=(1, plan))
        state = capture_state(system)
        shard = state["cluster"]["shard"]
        assert shard["shard_id"] == 1
        assert shard["n_shards"] == 2
        assert shard["outbox"] == []

    def test_serial_snapshot_has_no_shard_section(self):
        from repro.checkpoint import capture_state
        from repro.system import System

        state = capture_state(System(small_config()))
        assert state["cluster"]["shard"] is None


# ---------------------------------------------------------------------------
# Config validation: what sharding refuses to pretend it can do
# ---------------------------------------------------------------------------

class TestValidation:
    def test_serial_always_allowed(self):
        validate_sharded_config(small_config(), 1)

    def test_hardware_allreduce_rejected(self):
        cfg = small_config()
        cfg = cfg.replace(mpi=cfg.mpi.__class__(algorithm="hardware"))
        with pytest.raises(ValueError, match="hardware"):
            validate_sharded_config(cfg, 2)

    def test_stochastic_net_faults_accepted(self):
        """Per-link fault streams made stochastic faults shard-stable —
        they are no longer rejected."""
        cfg = small_config(
            faults=FaultConfig(enabled=True, msg_drop_prob=0.01)
        )
        validate_sharded_config(cfg, 2)

    def test_retransmit_accepted(self):
        """Acks ride the envelope router now, so retransmit shards."""
        cfg = small_config(
            faults=FaultConfig(enabled=True)
        )
        validate_sharded_config(cfg, 2)

    def test_timesync_loss_accepted(self):
        cfg = small_config(
            faults=FaultConfig(enabled=True, timesync_loss_at_us=ms(3))
        )
        validate_sharded_config(cfg, 2)

    def test_more_shards_than_nodes_rejected(self):
        with pytest.raises(ValueError):
            validate_sharded_config(small_config(), 5)
