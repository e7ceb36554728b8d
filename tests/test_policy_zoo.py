"""The SchedPolicy zoo: validation, plumbing, and cross-policy invariants.

The dispatch-core extraction promises two things at once: the ``aix``
default is bit-identical to the pre-refactor scheduler (held elsewhere by
the engine runs of ``tests/test_contract.py``), and *every* zoo member — however exotic
its dispatch order — still satisfies the properties any policy must:
threads are never lost or duplicated across place/steal/rotate, no CPU
idles while dispatchable work waits, and every run is seed-deterministic.
Serial vs ``--jobs 2`` byte identity per policy is part of the
correctness contract (``tests/test_contract.py``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import KernelConfig
from repro.kernel.policy import policy_names, policy_param_names, validate_policy
from repro.kernel.thread import Compute, Sleep, ThreadState
from repro.rng import StreamFactory
from repro.units import s
from tests.conftest import make_harness

#: Every shipped policy, plus the param variants worth sweeping.
POLICIES = ("aix", "fair", "quantum", "lottery")
POLICY_VARIANTS = [
    ("aix", {}),
    ("fair", {}),
    ("fair", {"min_granularity_us": 2500.0}),
    ("quantum", {}),
    ("quantum", {"slice_us": 3000.0}),
    ("lottery", {}),
]


def policy_harness(policy, params=(), n_cpus=4, **kernel_kw):
    kernel = KernelConfig(
        context_switch_us=2.0,
        policy=policy,
        policy_params=dict(params),
        **kernel_kw,
    )
    return make_harness(n_cpus=n_cpus, kernel=kernel, rng_streams=StreamFactory(7))


# ----------------------------------------------------------------------
# Registry / config validation (the FaultConfig.validate_targets
# discipline: impossible configurations die at construction, loudly)
# ----------------------------------------------------------------------


class TestValidation:
    def test_zoo_is_registered(self):
        assert set(POLICIES) <= set(policy_names())

    def test_unknown_policy_raises_listing_registry(self):
        with pytest.raises(ValueError, match="aix"):
            KernelConfig(policy="cfs2")

    def test_unknown_param_raises(self):
        with pytest.raises(ValueError, match="slice_us"):
            KernelConfig(policy="quantum", policy_params={"timeslice": 1000.0})

    def test_param_on_paramless_policy_raises(self):
        with pytest.raises(ValueError):
            KernelConfig(policy="aix", policy_params={"slice_us": 1000.0})

    def test_bad_param_value_raises(self):
        with pytest.raises(ValueError):
            KernelConfig(policy="quantum", policy_params={"slice_us": -5.0})
        with pytest.raises(ValueError):
            KernelConfig(policy="fair", policy_params={"min_granularity_us": 0.0})

    def test_params_normalized_to_sorted_tuple(self):
        cfg = KernelConfig(policy="quantum", policy_params={"slice_us": 3000.0})
        assert cfg.policy_params == (("slice_us", 3000.0),)

    def test_params_must_be_mapping_like(self):
        with pytest.raises(ValueError, match="policy_params"):
            KernelConfig(policy="aix", policy_params=42)

    def test_validate_policy_direct(self):
        validate_policy("lottery", (("slice_us", 500.0),))
        with pytest.raises(ValueError, match="registered"):
            validate_policy("nosuch")

    def test_param_names_exposed(self):
        assert policy_param_names("aix") == ()
        assert "slice_us" in policy_param_names("quantum")
        assert "min_granularity_us" in policy_param_names("fair")


class TestPolicyOptions:
    def test_with_options_selects_policy_and_params(self):
        cfg = KernelConfig().with_options(policy="quantum", policy_params={"slice_us": 5000.0})
        assert cfg.policy == "quantum"
        assert cfg.policy_params == (("slice_us", 5000.0),)

    def test_params_checked_against_the_selected_policy(self):
        with pytest.raises(ValueError, match="aix"):
            KernelConfig().with_options(policy_params={"slice_us": 5000.0})
        with pytest.raises(ValueError, match="min_granularity_us"):
            KernelConfig().with_options(policy="fair", policy_params={"slice_us": 5000.0})


# ----------------------------------------------------------------------
# Policy-specific construction contracts
# ----------------------------------------------------------------------


class TestLotteryRng:
    def test_lottery_without_rng_streams_raises(self):
        with pytest.raises(ValueError, match="rng"):
            make_harness(kernel=KernelConfig(policy="lottery"))

    def test_lottery_with_rng_streams_runs(self):
        h = policy_harness("lottery")
        t = h.spawn(h.worker("w", [500.0]), name="w")
        h.run(s(1))
        assert t.state is ThreadState.FINISHED


class TestSnapshotHooks:
    @pytest.mark.parametrize("policy,params", POLICY_VARIANTS)
    def test_snapshot_names_policy_and_params(self, policy, params):
        h = policy_harness(policy, params)
        snap = h.sched.policy.snapshot_state(None)
        assert snap["name"] == policy
        recorded = dict(snap["params"])
        # Every supplied param is recorded at its supplied value; unset
        # declared params appear at their defaults.
        for k, v in params.items():
            assert recorded[k] == v
        assert set(recorded) == set(policy_param_names(policy))

    def test_fair_snapshot_carries_floor(self):
        # Two contending threads on one CPU: the loser requeues with
        # accumulated vruntime, so re-picking it must raise the floor.
        h = policy_harness("fair", {"min_granularity_us": 50.0}, n_cpus=1)
        tick = h.config.physical_tick_period_us
        h.spawn(h.worker("a", [5.0 * tick], record=False), name="a")
        h.spawn(h.worker("b", [5.0 * tick], record=False), name="b")
        h.run(s(60))
        assert h.sched.policy.snapshot_state(None)["vrt_floor"] > 0.0


# ----------------------------------------------------------------------
# Cross-policy invariants under randomized workloads
# ----------------------------------------------------------------------

thread_spec = st.tuples(
    st.integers(min_value=10, max_value=120),  # priority
    st.integers(min_value=0, max_value=3),  # affinity cpu
    st.booleans(),  # allow_steal
    st.lists(st.floats(min_value=1.0, max_value=15_000.0), min_size=1, max_size=3),
    st.lists(st.floats(min_value=0.0, max_value=20_000.0), max_size=2),
)

routing_options = st.fixed_dictionaries(
    {
        "daemons_global_queue": st.booleans(),
    }
)


def build_workload(policy, params, specs, kernel_kwargs):
    h = policy_harness(policy, params, **kernel_kwargs)
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


@pytest.mark.parametrize("policy,params", POLICY_VARIANTS)
class TestPolicyInvariants:
    @settings(max_examples=12, deadline=None)
    @given(specs=st.lists(thread_spec, min_size=1, max_size=8),
           kernel_kwargs=routing_options)
    def test_liveness_and_no_lost_work(self, policy, params, specs, kernel_kwargs):
        """Every thread finishes and is credited at least the compute it
        asked for — no policy may lose a thread or its work."""
        h, threads = build_workload(policy, params, specs, kernel_kwargs)
        h.run(s(10))
        for t, (prio, cpu, steal, bursts, sleeps) in zip(threads, specs):
            assert t.state is ThreadState.FINISHED, f"{t!r} never finished"
            assert t.stats.cpu_time_us >= sum(bursts) - 1e-6

    @settings(max_examples=10, deadline=None)
    @given(specs=st.lists(thread_spec, min_size=2, max_size=8),
           kernel_kwargs=routing_options)
    def test_no_duplicated_or_orphaned_threads(self, policy, params, specs,
                                               kernel_kwargs):
        """At any sampled instant each thread exists exactly once: on one
        CPU, or in one queue (READY), or off the machine entirely."""
        h, threads = build_workload(policy, params, specs, kernel_kwargs)
        violations = []

        def probe():
            queued = {}
            queues = list(h.sched.local_queues) + [h.sched.global_queue]
            for q in queues:
                for t in q.threads():
                    queued[t] = queued.get(t, 0) + 1
            on_cpu = [c.thread for c in h.sched.cpus if c.thread is not None]
            for t in threads:
                n_q = queued.get(t, 0)
                n_c = on_cpu.count(t)
                if n_q + n_c > 1:
                    violations.append(f"{t} appears {n_q}q+{n_c}cpu times")
                if t.state is ThreadState.READY and n_q != 1:
                    violations.append(f"{t} READY but queued {n_q} times")
                if t.state is ThreadState.RUNNING and (n_c != 1 or n_q != 0):
                    violations.append(f"{t} RUNNING with {n_q}q+{n_c}cpu")
            if h.sim.now < s(1):
                h.sim.schedule(139.0, probe)

        h.sim.schedule(0.0, probe)
        h.run(s(10))
        assert violations == []

    @settings(max_examples=10, deadline=None)
    @given(specs=st.lists(thread_spec, min_size=2, max_size=8),
           kernel_kwargs=routing_options)
    def test_work_conservation_no_idle_with_waiter(self, policy, params, specs,
                                                   kernel_kwargs):
        """No CPU may sit idle while a thread it could legally run waits.

        A suspect (idle CPU, dispatchable READY thread) pair is
        re-checked a few µs later so same-timestamp event ordering can't
        produce false alarms; a *persisting* pair is a real conservation
        bug in place/pick/steal.

        aix is exempt: after a tick-boundary preemption a worse-priority
        thread can legitimately wait while another CPU idles — that is
        the extracted pre-refactor dispatcher verbatim, frozen by the
        bit-identical golden digests, so the zoo policies fix it (via
        ``_fill_idle``) and aix keeps it."""
        if policy == "aix":
            pytest.skip("pre-refactor verbatim behaviour, held bit-identical")
        h, threads = build_workload(policy, params, specs, kernel_kwargs)
        violations = []
        sched = h.sched

        def dispatchable(cpu_idx, t):
            q = sched.policy.queue_for(t)
            if q is sched.global_queue or q is sched.local_queues[cpu_idx]:
                return True
            return t.allow_steal

        def confirm(cpu_idx, t):
            if (
                sched.cpus[cpu_idx].idle
                and t.state is ThreadState.READY
                and dispatchable(cpu_idx, t)
            ):
                violations.append(f"cpu{cpu_idx} idle while {t} waits @{h.sim.now}")

        def probe():
            idle = [c.index for c in sched.cpus if c.idle]
            if idle:
                for t in threads:
                    if t.state is not ThreadState.READY:
                        continue
                    for cpu_idx in idle:
                        if dispatchable(cpu_idx, t):
                            h.sim.schedule(3.0, confirm, cpu_idx, t)
                            break
            if h.sim.now < s(1):
                h.sim.schedule(151.0, probe)

        h.sim.schedule(7.0, probe)
        h.run(s(10))
        assert violations == []

    @settings(max_examples=10, deadline=None)
    @given(specs=st.lists(thread_spec, min_size=1, max_size=6),
           kernel_kwargs=routing_options)
    def test_deterministic_replay(self, policy, params, specs, kernel_kwargs):
        """Identical inputs (including the lottery's named rng stream)
        give identical schedules."""
        h1, t1 = build_workload(policy, params, specs, kernel_kwargs)
        h1.run(s(10))
        h2, t2 = build_workload(policy, params, specs, kernel_kwargs)
        h2.run(s(10))
        for a, b in zip(t1, t2):
            assert a.stats.cpu_time_us == b.stats.cpu_time_us
            assert a.stats.dispatches == b.stats.dispatches
            assert a.stats.preemptions == b.stats.preemptions


class TestAixOrdering:
    def test_priority_order_preserved_on_one_cpu(self):
        """aix semantics: numerically lower priority finishes first on a
        contended CPU (the extracted dispatcher still honors strict
        priority dispatch with tick-boundary preemption noticing)."""
        h = policy_harness("aix", n_cpus=1)
        tick = h.config.physical_tick_period_us
        done = []
        prios = [90, 30, 60, 110, 10]

        def body(p):
            yield Compute(3.0 * tick)
            done.append(p)

        for p in prios:
            h.spawn(body(p), name=f"p{p}", priority=p, cpu=0)
        h.run(s(60))
        assert len(done) == len(prios)
        # The favored (lowest-value) thread always completes first; full
        # completion order is priority order.
        assert done == sorted(prios)
