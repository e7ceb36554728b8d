"""The calibrated AIX daemon ecology.

Every entry is a daemon the paper names, with period / service / priority
chosen so the aggregate lands inside the paper's measured envelope for
dedicated 16-way SP nodes: 0.2 %–1.1 % of each CPU consumed by system and
daemon activity [Jones03], with system daemons dispatching at priority 56
(better than user processes at 60+), the administrative cron health check
consuming >600 ms of a CPU every 15 minutes, and daemon executions often
lengthened by page faults.

Service-time distributions are log-normal: AIX trace observations are
right-skewed — usually-quick activations with occasional multi-millisecond
excursions, which is exactly what produces the long tail of Figure 4.
"""

from __future__ import annotations

from repro.config import DaemonSpec, NoiseConfig, PRIO_DAEMON_SYSTEM
from repro.rng import Constant, LogNormal
from repro.units import ms, s, us

__all__ = [
    "standard_daemons",
    "cron_health_check",
    "interrupt_handlers",
    "standard_noise",
    "scale_noise",
]


def standard_daemons() -> tuple[DaemonSpec, ...]:
    """The per-node daemon set the paper's traces attributed outliers to."""
    return (
        # File-system buffer flusher: infrequent but heavy, page-fault prone.
        DaemonSpec(
            name="syncd",
            period_us=s(60),
            service=LogNormal(ms(20.0), sigma=0.8),
            priority=PRIO_DAEMON_SYSTEM,
            pagefault_prob=0.3,
            pagefault_cost_us=ms(1.0),
        ),
        # GPFS daemon: frequent, short; the application's I/O depends on it.
        DaemonSpec(
            name="mmfsd",
            period_us=s(1),
            service=LogNormal(ms(4.0), sigma=0.6),
            priority=40,
        ),
        # Topology services heartbeat.
        DaemonSpec(
            name="hatsd",
            period_us=ms(500),
            service=LogNormal(ms(2.1), sigma=0.5),
            priority=PRIO_DAEMON_SYSTEM,
        ),
        # Network interface module of topology services.
        DaemonSpec(
            name="hats_nim",
            period_us=ms(200),
            service=LogNormal(ms(1.2), sigma=0.5),
            priority=PRIO_DAEMON_SYSTEM,
        ),
        # Switch fabric IP traffic management.
        DaemonSpec(
            name="mld",
            period_us=ms(100),
            service=LogNormal(us(750), sigma=0.4),
            priority=PRIO_DAEMON_SYSTEM,
        ),
        # Internet super-server: rare, moderate.
        DaemonSpec(
            name="inetd",
            period_us=s(10),
            service=LogNormal(ms(8.0), sigma=0.7),
            priority=PRIO_DAEMON_SYSTEM,
        ),
        # LoadLeveler node agent: periodic machine-state sampling.
        DaemonSpec(
            name="LoadL_startd",
            period_us=s(5),
            service=LogNormal(ms(15.0), sigma=0.7),
            priority=PRIO_DAEMON_SYSTEM,
            pagefault_prob=0.2,
            pagefault_cost_us=us(600),
        ),
        # SNMP host MIB daemon: rare monitoring sweep.
        DaemonSpec(
            name="hostmibd",
            period_us=s(30),
            service=LogNormal(ms(8.0), sigma=0.7),
            priority=PRIO_DAEMON_SYSTEM,
            pagefault_prob=0.2,
            pagefault_cost_us=us(800),
        ),
    )


def cron_health_check(
    period_us: float = s(900),
    service_us: float = ms(620),
    phase_us: float | None = None,
) -> DaemonSpec:
    """The 15-minute administrative health-check cron job.

    The paper's single worst outlier: "an administrative cron job ran during
    the slowest Allreduce … on multiple nodes, one CPU had over 600 msec of
    wall clock time consumed by these components".  Its Perl scripts and
    utilities run at a priority better than user processes and are fired
    from synchronized crontabs, hence ``phase="aligned"`` — the hit lands
    near-simultaneously cluster-wide (offset only by node clock skew).

    ``phase_us`` pins the first activation for experiments whose window is
    shorter than the 15-minute period.
    """
    return DaemonSpec(
        name="cron_health",
        period_us=period_us,
        service=LogNormal(service_us, sigma=0.25),
        priority=50,
        phase="aligned",
        phase_us=phase_us,
        jitter=0.0,
        pagefault_prob=0.5,
        pagefault_cost_us=ms(2.0),
    )


def interrupt_handlers() -> tuple[DaemonSpec, ...]:
    """Device interrupt handlers named in the paper's traces.

    ``caddpin`` (disk adapter) and ``phxentdd`` (ethernet) run in interrupt
    context: per-CPU, immediate preemption, undeferrable by any priority
    scheme — the residual interference floor that survives even the
    prototype kernel + co-scheduler.
    """
    return (
        DaemonSpec(
            name="caddpin",
            period_us=ms(60),
            service=Constant(us(30)),
            priority=2,
            per_cpu=True,
            hardware=True,
            deferrable=False,
            jitter=0.5,
        ),
        DaemonSpec(
            name="phxentdd",
            period_us=ms(100),
            service=Constant(us(38)),
            priority=2,
            per_cpu=True,
            hardware=True,
            deferrable=False,
            jitter=0.5,
        ),
    )


def scale_noise(noise: NoiseConfig, time_factor: float) -> NoiseConfig:
    """Compress the noise ecology's timescale by *time_factor*.

    Divides every daemon period by the factor while leaving service times
    unchanged, raising the noise *rate* relative to collective latency.
    Discrete-event runs are limited to seconds of simulated time, where
    minute-scale daemon periods would almost never fire; compressing time
    preserves the mechanism under study (the ratio of interference arrivals
    to collective operations) at tractable cost.  Paper-scale rates belong
    to the vectorised model (:mod:`repro.analytic`), which runs the real
    periods.  Experiments that use compression state the factor in their
    output.
    """
    if time_factor <= 0:
        raise ValueError("time_factor must be positive")
    from dataclasses import replace as _replace

    scaled = tuple(
        _replace(d, period_us=d.period_us / time_factor) for d in noise.daemons
    )
    return _replace(noise, daemons=scaled)


def standard_noise(
    include_cron: bool = True,
    cron_phase_us: float | None = None,
    include_interrupts: bool = True,
) -> NoiseConfig:
    """The full calibrated ecology (the default for experiments).

    The aggregate CPU fraction sits inside the paper's 0.2 %–1.1 % window
    for a 16-way node (asserted by a regression test).
    """
    daemons = list(standard_daemons())
    if include_cron:
        daemons.append(cron_health_check(phase_us=cron_phase_us))
    if include_interrupts:
        daemons.extend(interrupt_handlers())
    return NoiseConfig(daemons=tuple(daemons))
