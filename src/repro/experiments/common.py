"""Shared experiment infrastructure: canonical scenarios and sweeps.

The three configurations the paper contrasts, reused across figures:

* **vanilla16** — stock AIX 4.3.3 semantics, 16 tasks/node, MPI timer
  threads at their default 400 ms period (Figure 3).
* **vanilla15** — the community workaround: leave one CPU per node idle
  for the daemons (§5.3 baseline, the comparand of the 154 % result).
* **proto16** — the paper's full treatment: prototype kernel (big tick
  250 ms, simultaneous cluster-aligned ticks, global daemon queue,
  real-time scheduling with both fixes) + co-scheduler (favored 30 /
  unfavored 100 / 5 s period / 90 % duty) + the ``MP_POLLING_INTERVAL``
  timer-thread fix (Figures 5 and 6).

:func:`compressed_cosched_config` is proto16's machine in compressed
time: the one system E4, E8, E9, E13 and the chaos oracles test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.analytic.model import AllreduceSeriesModel
from repro.config import (
    ClusterConfig,
    CoschedConfig,
    FaultConfig,
    KernelConfig,
    MachineConfig,
    MpiConfig,
    NoiseConfig,
)
from repro.daemons.catalog import scale_noise, standard_noise
from repro.experiments.runner import TrialRunner, TrialSpec
from repro.results import register_result
from repro.units import s

__all__ = [
    "Scenario",
    "VANILLA16",
    "VANILLA15",
    "PROTO16",
    "make_config",
    "compressed_cosched_config",
    "SweepResult",
    "allreduce_sweep",
    "allreduce_trial_specs",
    "PAPER_PROC_COUNTS",
]

#: Processor counts sampled in the sweeps — spanning the paper's plotted
#: range up to near Blue Oak's 1920 CPUs.
PAPER_PROC_COUNTS: tuple[int, ...] = (128, 256, 512, 944, 1360, 1728)


@dataclass(frozen=True)
class Scenario:
    """One machine configuration under test."""

    name: str
    kernel: Callable[[], KernelConfig]
    tasks_per_node: int
    #: MPI timer-thread fix applied (long MP_POLLING_INTERVAL)?
    long_polling: bool
    cosched: bool

    def mpi_config(self) -> MpiConfig:
        """MPI settings for this scenario (timer-thread fix applied or not)."""
        return MpiConfig.with_long_polling() if self.long_polling else MpiConfig()

    def cosched_config(self) -> CoschedConfig:
        """Co-scheduler settings for this scenario (paper defaults)."""
        return CoschedConfig(enabled=self.cosched)


VANILLA16 = Scenario("vanilla16", KernelConfig.vanilla, 16, False, False)
VANILLA15 = Scenario("vanilla15", KernelConfig.vanilla, 15, False, False)
PROTO16 = Scenario("proto16", KernelConfig.prototype, 16, True, True)


def make_config(
    scenario: Scenario,
    n_ranks: int,
    seed: int = 0,
    cpus_per_node: int = 16,
    noise: Optional[NoiseConfig] = None,
    include_cron: bool = False,
) -> ClusterConfig:
    """Build the full ClusterConfig for a scenario at a given job size.

    ``include_cron`` is off for scaling sweeps (the paper's fitted lines
    exclude the known cron outlier — Fig 4 studies it separately) and on
    where the experiment wants the outlier.
    """
    n_nodes = -(-n_ranks // scenario.tasks_per_node)
    return ClusterConfig(
        machine=MachineConfig(n_nodes=n_nodes, cpus_per_node=cpus_per_node),
        kernel=scenario.kernel(),
        mpi=scenario.mpi_config(),
        cosched=scenario.cosched_config(),
        noise=noise if noise is not None else standard_noise(include_cron=include_cron),
        seed=seed,
    )


def compressed_cosched_config(
    n_ranks: int,
    tpn: int,
    seed: int,
    time_compression: float,
    sync: bool = True,
    faults: FaultConfig = FaultConfig(),
    policy: tuple = ("aix", ()),
) -> ClusterConfig:
    """The co-scheduled machine of E4, E8, E9, E13 and the chaos oracles,
    in compressed time.

    Prototype kernel with the big tick, co-scheduler period and daemon
    noise all compressed *time_compression*-fold (period ``s(5)`` and
    big tick 25 at 1x), 90 % duty, long polling without progress
    threads, *tpn* CPUs per node.  *sync* is the co-scheduler's switch
    clock; *faults* is the fault plane; *policy* is the ``(name,
    params)`` node dispatch policy.
    """
    name, params = policy
    kernel = KernelConfig.prototype(
        big_tick=max(1, int(round(25 / time_compression)))
    ).with_options(policy=name, policy_params=params)
    if not sync:
        # Without synchronised clocks, cluster-wide tick alignment is
        # fictional too.
        kernel = kernel.with_options(align_ticks_to_global_time=False)
    return ClusterConfig(
        machine=MachineConfig(n_nodes=-(-n_ranks // tpn), cpus_per_node=tpn),
        kernel=kernel,
        cosched=CoschedConfig(
            enabled=True, period_us=s(5) / time_compression, duty_cycle=0.90, sync_clock=sync
        ),
        mpi=MpiConfig.with_long_polling(progress_threads_enabled=False),
        noise=scale_noise(standard_noise(include_cron=False), time_compression),
        faults=faults,
        seed=seed,
    )


@register_result
@dataclass
class SweepResult:
    """Allreduce latency vs processor count for one scenario."""

    scenario: str
    proc_counts: np.ndarray
    #: Mean per-call Allreduce time at each count, averaged over seeds (µs).
    mean_us: np.ndarray
    #: Std over seeds of the per-run means — the run-to-run variability the
    #: paper's scatter shows.
    run_std_us: np.ndarray
    #: Mean within-run standard deviation (call-to-call variability).
    call_std_us: np.ndarray
    n_seeds: int
    n_calls: int
    #: Trials that failed or timed out, as ``"<scenario>-n<procs>-s<seed>"``
    #: keys.  A count whose every seed failed carries NaN in the arrays —
    #: the sweep reports an explicit hole rather than dying mid-campaign.
    failed_points: list = field(default_factory=list)
    #: Final-failure counts by taxonomy (``crash | hang | exception |
    #: timeout | quarantined``), sorted by taxonomy name.  Only *final*
    #: failures count — transient crash/hang retries the supervised
    #: backend recovered from stay out of saved results on purpose, so a
    #: chaos campaign that converges remains byte-identical to a clean
    #: serial run (retry telemetry lives in ``TrialRunner.stats``).
    failure_taxonomy: dict = field(default_factory=dict)

    def rows(self) -> list[tuple[int, float, float, float]]:
        """Table rows: (procs, mean, run-σ, call-σ)."""
        return [
            (int(n), float(m), float(rs), float(cs))
            for n, m, rs, cs in zip(
                self.proc_counts, self.mean_us, self.run_std_us, self.call_std_us
            )
        ]


def _allreduce_trial(params: dict) -> dict:
    """One (scenario, count, seed) Allreduce-series trial.

    The unit of work every sweep-style campaign schedules through
    :class:`~repro.experiments.runner.TrialRunner`; must stay a top-level
    function so worker processes can resolve it by name.
    """
    scenario: Scenario = params["scenario"]
    n = params["n_ranks"]
    cfg = make_config(scenario, n, seed=params["seed"])
    model = AllreduceSeriesModel(
        cfg, n, scenario.tasks_per_node, seed=params["model_seed"]
    )
    res = model.run_series(
        params["n_calls"], compute_between_us=params["compute_between_us"]
    )
    return {"mean_us": res.mean_us, "std_us": res.std_us}


def allreduce_trial_specs(
    scenario: Scenario,
    proc_counts: Sequence[int],
    n_calls: int,
    n_seeds: int,
    compute_between_us: float = 200.0,
    base_seed: int = 1000,
) -> list[TrialSpec]:
    """The sweep as pure data: one spec per (count, seed), journal keys
    matching the historical ``<scenario>-n<procs>-s<seed>`` format so old
    journals resume under the new runner."""
    return [
        TrialSpec(
            key=f"{scenario.name}-n{n}-s{s}",
            fn="repro.experiments.common:_allreduce_trial",
            params=dict(
                scenario=scenario,
                n_ranks=int(n),
                seed=base_seed + s,
                model_seed=base_seed + 7 * s + int(n),
                n_calls=n_calls,
                compute_between_us=compute_between_us,
            ),
        )
        for n in proc_counts
        for s in range(n_seeds)
    ]


def allreduce_sweep(
    scenario: Scenario,
    proc_counts: Sequence[int] = PAPER_PROC_COUNTS,
    n_calls: int = 400,
    n_seeds: int = 3,
    compute_between_us: float = 200.0,
    base_seed: int = 1000,
    runner: Optional[TrialRunner] = None,
) -> SweepResult:
    """Model an aggregate_trace-style series at each processor count.

    Mirrors the paper's methodology: "each plotted datum is the average of
    at least 3 runs, and each run is the result of thousands of
    Allreduces" (we default to hundreds per run; callers may raise it).

    Execution policy is *runner*'s (``None``: a serial
    :class:`~repro.experiments.runner.TrialRunner` with no journal and no
    store).  Its trials run serially or across ``jobs`` worker processes,
    finished trials are journaled atomically and skipped on resume, a
    result store serves and keeps trials across campaigns, and timed-out
    or failing trials become recorded entries in ``failed_points`` — an
    explicit NaN hole when a count loses all its seeds — instead of
    killing the campaign.  Because trials are pure functions of their
    specs and outcomes merge in spec order, ``jobs=N`` is bit-identical to
    serial.
    """
    runner = runner or TrialRunner()
    specs = allreduce_trial_specs(
        scenario, proc_counts, n_calls, n_seeds, compute_between_us, base_seed
    )
    outcomes = iter(runner.run(specs))

    means = np.empty(len(proc_counts))
    run_stds = np.empty(len(proc_counts))
    call_stds = np.empty(len(proc_counts))
    failed: list[str] = []
    taxonomy: dict[str, int] = {}
    for i, n in enumerate(proc_counts):
        per_seed = []
        per_std = []
        for _s in range(n_seeds):
            outcome = next(outcomes)
            if outcome.ok:
                per_seed.append(outcome.record["mean_us"])
                per_std.append(outcome.record["std_us"])
            else:
                failed.append(outcome.key)
                kind = outcome.taxonomy or "exception"
                taxonomy[kind] = taxonomy.get(kind, 0) + 1
        # A count whose every seed failed stays in the sweep as an
        # explicit NaN hole — downstream fits mask it, plots show a gap.
        means[i] = float(np.mean(per_seed)) if per_seed else float("nan")
        run_stds[i] = float(np.std(per_seed)) if per_seed else float("nan")
        call_stds[i] = float(np.mean(per_std)) if per_std else float("nan")
    return SweepResult(
        scenario.name,
        np.asarray(proc_counts, dtype=int),
        means,
        run_stds,
        call_stds,
        n_seeds,
        n_calls,
        failed_points=failed,
        failure_taxonomy=dict(sorted(taxonomy.items())),
    )
