"""Per-rank noise sampling for the vectorised model.

Builds, from the same configs the DES consumes, a sampler that answers:
*for an exposure of length τ, inside the co-scheduled favored window or
outside it, how much extra delay does each rank accumulate?*  Only cron
is placed in wall time (:meth:`NoiseInjector.cron_hits`).  Sources and
their mapping to model behaviour:

===================  ========================================================
source               model behaviour
===================  ========================================================
per-node daemons     Each daemon's activations land on its home CPU's task
                     (per-CPU queueing) — a fixed victim rank per node.  A
                     spare CPU (`tasks_per_node < cpus_per_node`) absorbs
                     stealable daemons entirely.  Under co-scheduling,
                     deferrable daemons are silenced during the favored
                     window and their backlog is paid at the window flip.
cron job             Aligned wall-clock grid across nodes; blocks one CPU
                     per node for its (long) service time; undeferred by
                     the spare CPU only in the sense that its components
                     exceed one CPU — we keep the simple one-victim model
                     but at priority above users it hits even 15/16 runs
                     with reduced probability.
interrupt handlers   Per-CPU, undeferrable, hit every rank at their rate.
timer ticks          Deterministic rate (1/period per CPU).  *Staggered*
                     phases → independent per-rank hits that skew the
                     collective; *aligned* → every rank pays at the same
                     instants, which shifts all ranks equally and adds no
                     skew, so the model charges the cost but to all ranks
                     simultaneously.
MPI timer threads    Per-rank, period `progress_interval_us`, cost
                     `progress_cost_us`; bound to the task's CPU, so a
                     spare CPU does not absorb them; mirrored priorities
                     mean co-scheduling does not remove them either.
===================  ========================================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ClusterConfig, DaemonSpec

__all__ = ["NoiseInjector", "SPARE_ABSORPTION"]

#: Fraction of stealable daemon activations a spare CPU absorbs.  Not 1.0:
#: absorption requires the idle CPU to notice and steal before the home
#: CPU's task is disturbed, and it fails outright when two daemons fire
#: concurrently — the paper notes the leave-one-CPU-idle approach "does
#: not handle the occasional event of two concurrent interfering daemons".
SPARE_ABSORPTION = 0.85


@dataclass
class _PointSource:
    """A renewal source hitting a fixed set of ranks."""

    name: str
    rate_per_us: float          # activations per µs per victim
    mean_delay_us: float        # expected stall per activation
    victims: np.ndarray         # rank indices
    deferrable: bool            # silenced inside the co-scheduled window
    absorbed_by_spare: bool     # a spare CPU soaks it up


class NoiseInjector:
    """Samples per-rank delays for exposure windows.

    Parameters
    ----------
    config:
        The run's full configuration (noise ecology, kernel policy,
        co-scheduler schedule, MPI settings).
    n_ranks / tasks_per_node:
        Job shape; determines victims and spare-CPU absorption.
    rng:
        Source of randomness (model-level reproducibility).
    """

    def __init__(
        self,
        config: ClusterConfig,
        n_ranks: int,
        tasks_per_node: int,
        rng: np.random.Generator,
    ) -> None:
        self.config = config
        self.n = n_ranks
        self.tpn = tasks_per_node
        self.cpn = config.machine.cpus_per_node
        self.rng = rng
        spare = self.tpn < self.cpn
        n_nodes = -(-n_ranks // tasks_per_node)

        self.sources: list[_PointSource] = []
        self.cron_specs: list[DaemonSpec] = []
        for idx, spec in enumerate(config.noise.daemons):
            if spec.name.startswith("cron"):
                self.cron_specs.append(spec)
                continue
            if spec.per_cpu:
                victims = np.arange(n_ranks)
                absorbed = False
            else:
                # Home CPU by daemon index (mirrors the engine's layout);
                # its victim is the task pinned there, if any.
                home = idx % self.cpn
                if home >= tasks_per_node:
                    continue  # lands on an always-free CPU
                victims = np.array(
                    [node * tasks_per_node + home for node in range(n_nodes)
                     if node * tasks_per_node + home < n_ranks]
                )
                absorbed = spare and not spec.per_cpu
            self.sources.append(
                _PointSource(
                    name=spec.name,
                    rate_per_us=1.0 / spec.period_us,
                    mean_delay_us=spec.mean_service_us(),
                    victims=victims,
                    deferrable=spec.deferrable and not spec.hardware,
                    absorbed_by_spare=absorbed,
                )
            )

        # MPI progress-engine timer threads: every rank, bound, un-absorbed.
        if config.mpi.progress_threads_enabled:
            self.sources.append(
                _PointSource(
                    name="mpi_timer",
                    rate_per_us=1.0 / config.mpi.progress_interval_us,
                    mean_delay_us=config.mpi.progress_cost_us,
                    victims=np.arange(n_ranks),
                    deferrable=False,   # priorities are mirrored
                    absorbed_by_spare=False,
                )
            )

        # Timer ticks.
        self.tick_rate = 1.0 / config.kernel.physical_tick_period_us
        self.tick_cost = config.kernel.physical_tick_cost_us
        self.ticks_aligned = config.kernel.tick_phase == "aligned" and (
            config.kernel.align_ticks_to_global_time or config.machine.n_nodes == 1
        )

        # Co-scheduler window bookkeeping.
        cs = config.cosched
        self.cosched_on = cs.enabled
        if self.cosched_on:
            self.period = cs.period_us
            self.favored_len = cs.favored_window_us
            # Backlog paid at each window flip: deferred daemon CPU per
            # victim CPU per period, plus the priority-flip noticing skew.
            backlog = np.zeros(n_ranks)
            for src in self.sources:
                if src.deferrable and not src.absorbed_by_spare:
                    backlog[src.victims] += src.rate_per_us * self.period * src.mean_delay_us
            notice = (
                config.kernel.ipi_latency_us
                if config.kernel.realtime_scheduling and config.kernel.fix_reverse_preemption
                else config.kernel.physical_tick_period_us / 2.0
            )
            self.window_stall = backlog + notice
        else:
            self.period = None
            self.favored_len = None
            self.window_stall = None

        # Cron activations: (period, phase, service per hit) per spec.
        self._spare = spare
        self._n_nodes = n_nodes
        self._cron = [
            (spec.period_us,
             spec.phase_us if spec.phase_us is not None else 0.0,
             spec.mean_service_us())
            for spec in self.cron_specs
        ]

    # ------------------------------------------------------------------
    def sample_round(self, plan: tuple[list, float | None]) -> np.ndarray:
        """Per-rank delay accumulated over one exposure, drawn by *plan*
        (from :meth:`draw_plan`, which fixes the exposure and window).

        Renewal hits are approximated as Poisson thinning — exact for the
        exponential-ish service processes at the rates involved.

        The RNG calls — method, rate, size and order — are part of the
        model's bit-identity contract (docs/architecture.md): per source
        that can fire, one Poisson draw over its victims and, only if
        some victim was hit, one exponential draw per hit victim; then
        the tick draw.
        """
        delays = np.zeros(self.n)
        draws, lam_t = plan
        rng = self.rng
        for lam, size, mean_delay_us, victims in draws:
            hits = rng.poisson(lam, size=size)
            hit = hits.nonzero()[0]
            if hit.size:
                # Delay per hit ~ exponential around the mean: preserves
                # the right-skew of trace-observed service times.
                add = rng.exponential(mean_delay_us, size=hit.size) * hits[hit]
                delays[hit if victims is None else victims[hit]] += add
        if lam_t is not None:
            if self.ticks_aligned:
                # Simultaneous everywhere: the cost lands on every rank at
                # the same instants — a common-mode shift, no added skew.
                delays += rng.poisson(lam_t) * self.tick_cost
            else:
                delays += rng.poisson(lam_t, size=self.n) * self.tick_cost
        return delays

    def draw_plan(self, exposure_us: float, favored: bool) -> tuple[list, float | None]:
        """The draws of one exposure of *exposure_us*, inside the
        co-scheduled favored window (deferrable sources silent) or not:
        ``(lam, size, mean_delay_us, victims)`` for each source that can
        fire, ``victims`` None when the source hits every rank in order;
        then the tick rate, None when ticks cost nothing.  The sources are
        fixed at construction, so the plan is a pure function of its
        arguments and a caller fetches it once per block of rounds."""
        draws = []
        for src in self.sources:
            if favored and src.deferrable:
                continue
            lam = src.rate_per_us * exposure_us
            if src.absorbed_by_spare:
                lam *= 1.0 - SPARE_ABSORPTION
            if lam <= 0:
                continue
            every_rank = np.array_equal(src.victims, np.arange(self.n))
            draws.append(
                (lam, src.victims.size, src.mean_delay_us, None if every_rank else src.victims)
            )
        lam_t = self.tick_rate * exposure_us
        return draws, (lam_t if self.tick_cost > 0 and lam_t > 0 else None)

    def cron_hits(self, t0: float, t1: float) -> np.ndarray:
        """Per-rank delays from aligned cron activations in ``[t0, t1)``.

        Cron components run at priority better than user processes, so a
        spare CPU helps only partially; the model keeps the full hit at
        16/16 and suppresses it at <16/16 with probability 0.5 (one spare
        CPU against several concurrently-fired scripts).
        """
        delays = np.zeros(self.n)
        rng = self.rng
        for period_us, phase, service in self._cron:
            k0 = int(np.ceil((t0 - phase) / period_us))
            k1 = int(np.ceil((t1 - phase) / period_us))
            for _ in range(k0, k1):
                # One victim CPU per node (the paper observed one CPU per
                # node consumed on multiple nodes simultaneously).
                for node in range(self._n_nodes):
                    if self._spare and rng.random() < 0.5:
                        continue
                    victim = node * self.tpn + int(rng.integers(self.tpn))
                    if victim < self.n:
                        delays[victim] += service
        return delays
