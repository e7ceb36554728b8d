"""Configuration dataclasses shared across the simulator and analytic model.

Everything tunable lives here, in plain frozen dataclasses with no behaviour,
so that the discrete-event simulator (:mod:`repro.kernel` and friends) and
the vectorised large-scale model (:mod:`repro.analytic`) consume *identical*
descriptions of the machine, kernel policy, noise ecology, network, and
co-scheduler.  A cross-validation test holds the two implementations to the
same configs.

Numeric conventions: canonical time unit is the microsecond; priorities are
AIX-style where **lower value = more favored** (normal user 60; timeshared
user processes degrade into the 90–120 band; "real-time" 40–60; the paper's
co-scheduler used favored 30 and unfavored 100).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Literal, Optional, Sequence

from repro.kernel.policy import validate_policy
from repro.rng import Distribution, LogNormal
from repro.units import ms, s, us

__all__ = [
    "MachineConfig",
    "KernelConfig",
    "NetworkConfig",
    "MpiConfig",
    "CoschedConfig",
    "DaemonSpec",
    "NoiseConfig",
    "NodeFaultSpec",
    "CoschedFaultSpec",
    "FaultConfig",
    "CheckpointPolicy",
    "ClusterConfig",
    "PRIO_NORMAL",
    "PRIO_DAEMON_SYSTEM",
    "PRIO_USER_TIMESHARED",
    "PRIO_IDLE",
]

#: AIX default priority for a freshly started normal process.
PRIO_NORMAL = 60
#: Priority band observed for system daemons in the paper's traces ("these
#: daemons ran with a priority of 56, which is more favored than those for
#: normal user processes").
PRIO_DAEMON_SYSTEM = 56
#: Degraded time-shared user processes ("range between 90 and 120").
PRIO_USER_TIMESHARED = 100
#: Worst possible priority; the per-CPU idle loop.
PRIO_IDLE = 127


@dataclass(frozen=True)
class MachineConfig:
    """Cluster hardware shape.

    The paper's systems were 16-way Power3 SMP nodes (ASCI White 512 nodes,
    Frost 68, Blue Oak 120).  ``max_clock_offset_us`` models per-node time-
    of-day skew before switch-clock synchronisation; the SP switch exposes a
    global clock register that the co-scheduler uses to align the low-order
    clock bits across nodes.
    """

    n_nodes: int = 4
    cpus_per_node: int = 16
    #: Worst-case node time-of-day offset from global time when unsynchronised.
    max_clock_offset_us: float = ms(200)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.cpus_per_node < 1:
            raise ValueError("cpus_per_node must be >= 1")

    @property
    def total_cpus(self) -> int:
        return self.n_nodes * self.cpus_per_node


@dataclass(frozen=True)
class KernelConfig:
    """Operating-system scheduling policy — the paper's `schedtune` surface.

    The defaults reproduce *vanilla* AIX 4.3.3 behaviour as the paper
    describes it; :meth:`prototype` flips every modification the paper made.

    Attributes
    ----------
    tick_period_us:
        Base timer-decrement period; 10 ms (100 Hz) on AIX.
    big_tick_multiplier:
        The "big tick" kernel modification: fold N logical ticks into one
        physical interrupt.  The paper generally used 25 (250 ms physical
        ticks) and notes the secondary benefit of batching timer-triggered
        daemon wakeups.
    tick_phase:
        ``"staggered"`` — AIX deliberately offsets ticks across the CPUs of
        a node (CPU *k* ticks at ``x + k·stagger_offset_us``) to avoid lock
        contention in the timer path.  ``"aligned"`` — the paper's
        modification (possible once AIX 5.1 made the timer path take a
        shared lock): all CPUs tick simultaneously, trading a little lock
        efficiency for overlap of the interference.
    align_ticks_to_global_time:
        Inter-node extension: force ticks to land on exact multiples of the
        tick period in *global* time, so that (given synchronised clocks)
        the whole cluster ticks simultaneously.
    tick_cost_us:
        CPU time consumed by one physical tick interrupt on the CPU taking
        it.  With big ticks the per-interrupt cost rises slightly
        (``big_tick_extra_cost_us``) but the total falls ~linearly.
    realtime_scheduling:
        AIX "real time scheduling" option: a readying operation that should
        preempt another CPU forces a hardware interrupt (IPI) instead of
        waiting for the target CPU to notice at its next tick / syscall /
        block.  The paper observed preemption latency of tenths of a
        millisecond with the option versus up to 10 ms without.
    fix_reverse_preemption:
        Paper's fix #1: also force the IPI when a *running* thread's
        priority is lowered below a waiting thread's ("reverse
        pre-emption") — essential for the co-scheduler's unfavor step.
    fix_multi_ipi:
        Paper's fix #2: allow multiple preemption IPIs in flight at once;
        stock AIX suppressed further IPIs while one was pending for a
        thread, serialising multi-CPU preemption.
    daemons_global_queue:
        Paper §3.1.2: queue daemon work to *all* processors (one shared
        queue per node) instead of per-CPU queues, maximising the
        parallelism of overhead execution at a small per-daemon efficiency
        cost (``global_queue_penalty`` fractional slowdown, e.g. two 3 ms
        daemons run concurrently in ~3.1 ms instead of serially in 6 ms).
    policy:
        Node scheduling policy by registry name (:mod:`repro.kernel.policy`):
        ``aix`` (default, the paper's dispatcher — bit-identical to the
        pre-policy-framework scheduler), ``fair`` (CFS-style virtual
        runtime), ``quantum`` (fixed-slice round-robin), ``lottery``
        (ticket-proportional, seed-deterministic via the named
        ``kernel.lottery.<node>`` rng stream).  Unknown names raise here,
        at construction, listing the registered policies.
    policy_params:
        Per-policy tunables as a mapping or ``(name, value)`` pair tuple
        (canonicalised to a sorted tuple so configs stay hashable and
        fingerprint-stable).  Validated against the policy's declared
        parameter set — unknown params raise at construction.
    """

    tick_period_us: float = ms(10)
    big_tick_multiplier: int = 1
    tick_phase: Literal["staggered", "aligned"] = "staggered"
    stagger_offset_us: float = ms(1)
    align_ticks_to_global_time: bool = False
    tick_cost_us: float = us(18)
    big_tick_extra_cost_us: float = us(12)

    realtime_scheduling: bool = False
    fix_reverse_preemption: bool = False
    fix_multi_ipi: bool = False
    ipi_latency_us: float = us(150)
    ipi_cost_us: float = us(5)

    daemons_global_queue: bool = False
    global_queue_penalty: float = 0.05

    context_switch_us: float = us(8)

    policy: str = "aix"
    policy_params: tuple = ()

    def __post_init__(self) -> None:
        if self.big_tick_multiplier < 1:
            raise ValueError("big_tick_multiplier must be >= 1")
        if self.tick_phase not in ("staggered", "aligned"):
            raise ValueError(f"unknown tick_phase {self.tick_phase!r}")
        if not 0.0 <= self.global_queue_penalty <= 1.0:
            raise ValueError("global_queue_penalty must be in [0, 1]")
        if self.tick_period_us <= 0:
            raise ValueError("tick_period_us must be positive")
        # A tick that costs its whole period leaves no CPU time between
        # ticks: TickSchedule.inflate's fixed point would never converge.
        cost, period = self.physical_tick_cost_us, self.physical_tick_period_us
        if not 0.0 <= cost < period:
            raise ValueError(
                f"physical tick cost {cost} us must be >= 0 and below the "
                f"physical tick period {period} us"
            )
        # Canonicalise policy_params (dict or pair sequence) to a sorted
        # pair tuple, then validate name + params against the registry —
        # unknown policies/params must fail here, not deep inside a run.
        try:
            items = tuple(sorted(dict(self.policy_params).items()))
        except (TypeError, ValueError):
            raise ValueError(
                f"policy_params must be a mapping or (name, value) pairs, "
                f"got {self.policy_params!r}"
            ) from None
        object.__setattr__(self, "policy_params", items)
        validate_policy(self.policy, items)

    @property
    def physical_tick_period_us(self) -> float:
        """Interval between physical tick interrupts (period × big-tick)."""
        return self.tick_period_us * self.big_tick_multiplier

    @property
    def physical_tick_cost_us(self) -> float:
        """CPU cost of one physical tick interrupt."""
        if self.big_tick_multiplier > 1:
            return self.tick_cost_us + self.big_tick_extra_cost_us
        return self.tick_cost_us

    @classmethod
    def vanilla(cls) -> "KernelConfig":
        """Stock AIX 4.3.3 as the paper characterises it."""
        return cls()

    @classmethod
    def prototype(cls, big_tick: int = 25) -> "KernelConfig":
        """The paper's prototype kernel: every modification enabled.

        The paper settled on a big tick interval of 250 ms (multiplier 25).
        """
        return cls(
            big_tick_multiplier=big_tick,
            tick_phase="aligned",
            align_ticks_to_global_time=True,
            realtime_scheduling=True,
            fix_reverse_preemption=True,
            fix_multi_ipi=True,
            daemons_global_queue=True,
        )

    def with_options(self, **kwargs) -> "KernelConfig":
        """`schedtune`-style: return a copy with the given options changed."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class NetworkConfig:
    """LogP-style interconnect parameters (SP switch class hardware).

    Defaults are chosen so that a zero-noise recursive-doubling Allreduce of
    a few doubles lands near the paper's model prediction of ~350 µs at 944
    tasks (≈10 rounds × ~35 µs/round).
    """

    #: Wire latency between any two nodes (flat switch model), µs.
    latency_us: float = us(24)
    #: Send/receive CPU overhead per message, µs (LogP "o").
    overhead_us: float = us(4)
    #: Inverse bandwidth, µs per byte (≈0.0005 → 2 GB/s).
    per_byte_us: float = 0.0005
    #: Extra latency for intra-node (shared-memory) transfers, µs — cheaper
    #: than the switch.
    shm_latency_us: float = us(3)
    #: Combine time inside the switch for hardware-assisted collectives
    #: (the paper's future-work item §7): once every rank's contribution
    #: has arrived, the fabric reduces and fans the result back out.
    hw_collective_latency_us: float = us(12)

    def p2p_time(self, nbytes: int, same_node: bool) -> float:
        """Wire time for a message of *nbytes* (excludes CPU overheads)."""
        lat = self.shm_latency_us if same_node else self.latency_us
        return lat + nbytes * self.per_byte_us


@dataclass(frozen=True)
class MpiConfig:
    """MPI runtime model parameters (IBM PE class library).

    ``progress_interval_us`` is the MPI timer ("progress engine") thread
    period — 400 ms by default in IBM's MPI, per the paper; the paper's
    remedy was ``MP_POLLING_INTERVAL=400000000`` (400 s), which we model by
    setting the interval large.  ``progress_cost_us`` is the CPU the timer
    thread consumes per activation.
    """

    #: Allreduce implementation.  ``"hardware"`` models switch-assisted
    #: collectives (paper §7 future work): contributions are deposited at
    #: the adapter and the fabric combines them — no software tree, so a
    #: descheduled rank delays only the deposit, never intermediate hops.
    algorithm: Literal["recursive_doubling", "binomial", "hardware"] = "recursive_doubling"
    reduce_op_us: float = us(3)
    progress_interval_us: float = ms(400)
    progress_cost_us: float = us(120)
    progress_threads_enabled: bool = True
    #: ``"poll"`` — a waiting receive spins on its CPU (IBM MPI default,
    #: MP_WAIT_MODE=poll); ``"block"`` — it releases the CPU until the
    #: message arrives.  Polling is what exposes waits to preemption.
    wait_mode: Literal["poll", "block"] = "poll"
    #: Extra per-message cost of a blocking receive: syscall entry, the
    #: adapter interrupt, and the scheduler wakeup path.  This is why poll
    #: mode is the HPC default despite its noise sensitivity — blocking
    #: taxes every message, polling only loses when preempted.
    block_wakeup_cost_us: float = us(22)

    def __post_init__(self) -> None:
        if self.algorithm not in ("recursive_doubling", "binomial", "hardware"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.wait_mode not in ("poll", "block"):
            raise ValueError(f"unknown wait_mode {self.wait_mode!r}")

    @classmethod
    def with_long_polling(cls, **kwargs) -> "MpiConfig":
        """The paper's MP_POLLING_INTERVAL fix: 400-second timer period."""
        return cls(progress_interval_us=s(400), **kwargs)


@dataclass(frozen=True)
class CoschedConfig:
    """The Parallel Environment co-scheduler schedule (paper §4).

    One daemon per node cycles the parallel job's task priorities between
    ``favored_priority`` and ``unfavored_priority``.  The cycle has period
    ``period_us`` and the tasks hold the favored value for ``duty_cycle`` of
    it.  The paper settled on favored 30 / unfavored 100 / 5 s period / 90 %
    duty for the benchmark, and — after the ALE3D I/O starvation episode —
    recommends setting the favored priority *just above* (numerically just
    below) the key I/O daemons so GPFS can always preempt the application.

    Each node's cycle ends exactly on a second boundary of the
    synchronised clock, which is what makes the windows coincide
    cluster-wide with no daemon-to-daemon communication.
    """

    enabled: bool = False
    period_us: float = s(5)
    duty_cycle: float = 0.90
    favored_priority: int = 30
    unfavored_priority: int = 100
    #: Priority of the co-scheduler daemon itself ("an even more favored
    #: priority, but sleeps most of the time").
    self_priority: int = 12
    #: CPU cost per priority-flip pass.
    flip_cost_us: float = us(40)
    #: Synchronise node clocks from the switch clock register at startup.
    sync_clock: bool = True
    #: Paper §7 future work: only boost tasks that have declared (via the
    #: MPI library's fine-grain hints) that they are inside a fine-grain
    #: region.  Tasks outside such regions run at normal priority during
    #: the favored window, so daemons and I/O drain behind coarse-grain
    #: phases instead of piling into the unfavored window.
    fine_grain_only: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError("duty_cycle must be in (0, 1]")
        if self.period_us <= 0:
            raise ValueError("period_us must be positive")
        if not 0 <= self.favored_priority <= 127:
            raise ValueError("favored_priority out of range")
        if not 0 <= self.unfavored_priority <= 127:
            raise ValueError("unfavored_priority out of range")
        if self.enabled and self.favored_priority >= self.unfavored_priority:
            # AIX numerics: lower value = more favored.  An inverted pair
            # silently runs the schedule backwards — refuse it.
            raise ValueError(
                "favored_priority must be numerically below unfavored_priority "
                f"(got favored={self.favored_priority}, unfavored={self.unfavored_priority})"
            )

    @property
    def favored_window_us(self) -> float:
        return self.period_us * self.duty_cycle

    @property
    def unfavored_window_us(self) -> float:
        return self.period_us - self.favored_window_us


@dataclass(frozen=True)
class DaemonSpec:
    """One periodic source of system interference.

    Parameters
    ----------
    name:
        Daemon name as it would appear in an AIX trace (``syncd`` …).
    period_us:
        Mean activation period.
    service:
        Distribution of CPU time consumed per activation.
    priority:
        Dispatch priority while running (daemons observed in the paper ran
        at 56, better than user processes).
    per_cpu:
        If True, an independent instance runs per CPU (interrupt-handler
        style); otherwise one instance per node.
    phase:
        ``"random"`` — activation phase drawn independently per node
        (typical daemons); ``"aligned"`` — same wall-clock phase on every
        node (cron jobs fired from synchronized crontabs).
    jitter:
        Fractional jitter applied to each period (0 = strictly periodic).
    pagefault_prob / pagefault_cost_us:
        Probability that an activation takes page faults (long-sleeping
        daemons whose pages were evicted), and the extra service time that
        costs.  The paper observed daemon executions "often accompanied by
        page faults, increasing their run time".
    deferrable:
        Whether the co-scheduler's unfavored band may delay this daemon.
        I/O daemons that the application itself depends on (GPFS ``mmfsd``)
        are handled via priority placement rather than this flag; the flag
        exists for interrupt handlers, which no priority scheme can defer.
    """

    name: str
    period_us: float
    service: Distribution
    priority: int = PRIO_DAEMON_SYSTEM
    per_cpu: bool = False
    phase: Literal["random", "aligned"] = "random"
    #: Explicit first-activation time (node-local), overriding the phase
    #: policy — used by experiments that must guarantee a hit inside a
    #: short measurement window (e.g. the Fig-4 cron outlier, whose real
    #: period of 15 min exceeds a benchmark run).
    phase_us: Optional[float] = None
    #: Hardware interrupt semantics: wakeups preempt the target CPU
    #: immediately rather than via the dispatcher's noticing machinery,
    #: and no priority scheme can defer them.
    hardware: bool = False
    jitter: float = 0.10
    pagefault_prob: float = 0.0
    pagefault_cost_us: float = 0.0
    deferrable: bool = True

    def __post_init__(self) -> None:
        if self.period_us <= 0:
            raise ValueError(f"{self.name}: period must be positive")
        if not 0 <= self.priority <= 127:
            raise ValueError(f"{self.name}: priority out of range")
        if not 0.0 <= self.pagefault_prob <= 1.0:
            raise ValueError(f"{self.name}: pagefault_prob out of range")

    def mean_service_us(self) -> float:
        """Expected CPU time per activation, including page-fault cost."""
        return self.service.mean() + self.pagefault_prob * self.pagefault_cost_us

    def cpu_fraction(self, cpus_per_node: int) -> float:
        """Fraction of one node's aggregate CPU this daemon consumes."""
        instances = cpus_per_node if self.per_cpu else 1
        return instances * self.mean_service_us() / self.period_us / cpus_per_node


@dataclass(frozen=True)
class NoiseConfig:
    """The complete interference ecology for a run."""

    daemons: tuple[DaemonSpec, ...] = ()

    def __post_init__(self) -> None:
        names = [d.name for d in self.daemons]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate daemon names: {names}")

    def total_cpu_fraction(self, cpus_per_node: int) -> float:
        """Aggregate noise as a fraction of node CPU (paper: 0.2 %–1.1 %)."""
        return sum(d.cpu_fraction(cpus_per_node) for d in self.daemons)

    def get(self, name: str) -> DaemonSpec:
        """Return the daemon named *name* (KeyError if absent)."""
        for d in self.daemons:
            if d.name == name:
                return d
        raise KeyError(name)


@dataclass(frozen=True)
class NodeFaultSpec:
    """One scheduled node-level fault.

    ``crash`` freezes the whole node for ``duration_us`` (a kernel hang /
    reboot window: every CPU is seized by a top-priority hog, so resident
    threads make zero progress while the fabric keeps delivering into
    mailboxes).  ``slowdown`` steals ``fraction`` of every CPU with a
    duty-cycled hog — thermal throttling, a runaway RAS sweep, or a
    memory-scrubber storm.
    """

    node: int
    at_us: float
    duration_us: float
    kind: Literal["crash", "slowdown"] = "crash"
    #: CPU fraction stolen during a slowdown (ignored for crashes).
    fraction: float = 0.5
    #: Duty-cycle period of the slowdown hog.
    period_us: float = ms(10)

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError("node must be >= 0")
        if self.at_us < 0 or self.duration_us <= 0:
            raise ValueError("at_us must be >= 0 and duration_us > 0")
        if self.kind not in ("crash", "slowdown"):
            raise ValueError(f"unknown node fault kind {self.kind!r}")
        if self.kind == "slowdown" and not 0.0 < self.fraction < 1.0:
            raise ValueError("slowdown fraction must be in (0, 1)")


@dataclass(frozen=True)
class CoschedFaultSpec:
    """One scheduled co-scheduler daemon fault on one node.

    ``die`` kills the daemon thread outright (tasks are left stuck at
    whatever priority the last flip set — the dangerous failure the
    watchdog exists for).  ``hang`` wedges it for ``duration_us`` (stuck
    syscall): flips stop but the thread stays alive, which only heartbeat
    staleness can detect.
    """

    node: int
    at_us: float
    kind: Literal["die", "hang"] = "die"
    duration_us: float = 0.0

    def __post_init__(self) -> None:
        if self.node < 0 or self.at_us < 0:
            raise ValueError("node and at_us must be >= 0")
        if self.kind not in ("die", "hang"):
            raise ValueError(f"unknown cosched fault kind {self.kind!r}")
        if self.kind == "hang" and self.duration_us <= 0:
            raise ValueError("hang needs duration_us > 0")


@dataclass(frozen=True)
class FaultConfig:
    """Fault injection + resilience policy for a run.

    With ``enabled=False`` (the default) nothing is installed: no fault
    plane on the fabric, no retransmit timers, no watchdogs, no extra RNG
    draws — runs are bit-identical to a config without this section (the
    zero-overhead invariant, held by a regression test).  All randomness
    flows from named :mod:`repro.rng` streams (``faults.net.drop`` /
    ``faults.net.delay`` / ``faults.net.dup``, ``faults.pipe``,
    ``faults.clock``), so fault scenarios are exactly reproducible,
    adding a fault consumer does not perturb daemon noise draws, and
    enabling one network fault type does not reshuffle another's.
    """

    enabled: bool = False

    # -- stochastic network-fabric faults (applied per message) ---------
    msg_drop_prob: float = 0.0
    msg_dup_prob: float = 0.0
    msg_delay_prob: float = 0.0
    #: Extra delivery latency for delayed messages, and the lag of the
    #: second copy of a duplicated one.
    msg_delay_us: float = ms(2)
    #: Global-time window inside which the stochastic network faults are
    #: active (one-shot faults carry their own times).
    net_window_us: tuple[float, float] = (0.0, float("inf"))

    # -- control-pipe loss (task → pmd → co-scheduler messages) ---------
    pipe_loss_prob: float = 0.0

    # -- scheduled one-shot faults --------------------------------------
    node_faults: tuple[NodeFaultSpec, ...] = ()
    cosched_faults: tuple[CoschedFaultSpec, ...] = ()

    # -- timesync loss ---------------------------------------------------
    #: When set, the switch global clock fails at this instant: node
    #: time-of-day clocks jump apart (accumulated unseen drift / a broken
    #: NTP slam) and begin free-drifting at per-node rates.
    timesync_loss_at_us: Optional[float] = None
    #: Max magnitude of the per-node clock step at loss (µs).
    clock_jump_us: float = ms(100)
    #: Max magnitude of per-node clock drift after loss (µs per µs).
    clock_drift_rate: float = 1e-4

    # -- resilience responses -------------------------------------------
    #: Sender-side point-to-point timeout + retransmit (capped exponential
    #: backoff).  Installed per job world when faults are enabled.
    retransmit_timeout_us: float = ms(10)
    retransmit_backoff: float = 2.0
    retransmit_max_timeout_us: float = ms(160)
    #: Attempt number at which the retransmit bypasses injection entirely
    #: (the adapter's link-level guarantee) — this bounds loss, so
    #: collectives cannot deadlock even at ``msg_drop_prob=1``.
    retransmit_max_attempts: int = 6
    #: Per-node watchdog that restarts a dead/hung co-scheduler daemon and
    #: re-registers its tasks over the control pipe.
    watchdog_interval_us: float = s(1)
    #: Heartbeat staleness (in co-scheduler periods) past which the daemon
    #: is declared hung and restarted.
    watchdog_staleness_periods: float = 2.5

    def __post_init__(self) -> None:
        for name in ("msg_drop_prob", "msg_dup_prob", "msg_delay_prob", "pipe_loss_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        lo, hi = self.net_window_us
        if hi < lo:
            raise ValueError("net_window_us must be (lo, hi) with hi >= lo")
        if self.msg_delay_us < 0 or self.clock_jump_us < 0 or self.clock_drift_rate < 0:
            raise ValueError("fault magnitudes must be >= 0")
        if lo < 0:
            raise ValueError("net_window_us must not start before t=0")
        if self.timesync_loss_at_us is not None and self.timesync_loss_at_us < 0:
            raise ValueError("timesync_loss_at_us must be >= 0")
        if self.retransmit_timeout_us <= 0 or self.retransmit_backoff < 1.0:
            raise ValueError("retransmit_timeout_us > 0 and backoff >= 1 required")
        if self.retransmit_max_attempts < 1:
            raise ValueError("retransmit_max_attempts must be >= 1")
        if self.watchdog_interval_us <= 0 or self.watchdog_staleness_periods <= 0:
            raise ValueError("watchdog parameters must be positive")

    @property
    def any_net_faults(self) -> bool:
        return self.msg_drop_prob > 0 or self.msg_dup_prob > 0 or self.msg_delay_prob > 0

    def validate_targets(self, n_nodes: int) -> None:
        """Reject fault specs aimed at nodes the cluster does not have.

        Per-spec validation (``__post_init__``) can only check ``node >= 0``
        — the cluster size is unknown at config construction.  The fault
        injector calls this with the real node count, so a generated or
        hand-written schedule targeting a phantom node fails fast with a
        clear message instead of corrupting a run (or KeyError-ing deep
        inside an event callback mid-simulation).
        """
        bad = sorted(
            {s.node for s in self.node_faults if s.node >= n_nodes}
            | {s.node for s in self.cosched_faults if s.node >= n_nodes}
        )
        if bad:
            raise ValueError(
                f"fault specs target unknown node(s) {bad}: "
                f"cluster has {n_nodes} node(s), valid ids are 0..{n_nodes - 1}"
            )


@dataclass(frozen=True)
class CheckpointPolicy:
    """Checkpoint/restart policy for long simulation runs.

    Without ``interval_sim_us`` (the default) checkpointing is off:
    nothing is written, no invariant walks, no extra events — runs stay
    bit-identical to a config without this section (the same
    zero-overhead invariant the fault layer holds).  Cadence is simulated
    time.  Snapshots are written atomically (temp file + ``os.replace``)
    and pruned to the newest ``keep_last``.

    The full invariant suite runs before each snapshot is written, and a
    restore replays the run to the snapshot time and refuses to continue
    unless the state fingerprint matches bit-for-bit.  The per-event
    sanitizer is :meth:`repro.checkpoint.monitor.InvariantMonitor.install_sanitizer`.
    """

    #: Checkpoint every N simulated microseconds (None: checkpointing off).
    interval_sim_us: Optional[float] = None
    #: Number of most-recent snapshots retained on disk.
    keep_last: int = 2

    def __post_init__(self) -> None:
        if self.interval_sim_us is not None and self.interval_sim_us <= 0:
            raise ValueError("interval_sim_us must be positive when set")
        if self.keep_last < 1:
            raise ValueError("keep_last must be >= 1")

    @property
    def enabled(self) -> bool:
        """Is checkpointing on (an interval is set)?"""
        return self.interval_sim_us is not None


@dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to instantiate a cluster run."""

    machine: MachineConfig = field(default_factory=MachineConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    mpi: MpiConfig = field(default_factory=MpiConfig)
    cosched: CoschedConfig = field(default_factory=CoschedConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    seed: int = 0

    def replace(self, **kwargs) -> "ClusterConfig":
        """Return a copy with the given top-level sections swapped."""
        return replace(self, **kwargs)
