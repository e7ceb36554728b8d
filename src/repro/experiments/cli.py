"""Command-line entry point: regenerate any paper figure/table.

::

    repro-experiments NAME... [--quick] [--csv DIR] [--results DIR] [--jobs N]

Every experiment is one row of :data:`EXPERIMENTS`: what it runs, how it
prints and archives its result, its ``--quick`` arguments, the
experiment-specific flags it reads, the groups (``all``,
``extensions``) it belongs to and the paper claims its result must
reproduce.  ``--help`` lists the names in table order; a group name
expands in place to its members in that order, and an experiment named
twice runs once, at its first position.

Claims: at full size each row's claims (:class:`Claim`) are judged on its
result and printed as a table (claim, paper, measured, bound, verdict); a
failed claim ends the run with exit code 1.  ``--quick`` sizes are smoke
runs, so no claim is judged there.

Parallelism: ``--jobs N`` fans the independent (scenario, count, seed)
trials of every campaign out over N supervised worker processes via
:class:`repro.experiments.runner.TrialRunner`.  Results and journals are
bit-identical to a serial run — trials are pure functions of their specs
and outcomes merge in spec order — so ``--jobs`` is purely a wall-clock
lever.

Crash safety: with ``--results DIR`` every sweep journals each finished
(count, seed) trial under ``DIR/journal/`` (the parent process writes
every entry; workers only report outcomes); after a crash (or kill -9),
re-running with ``--resume`` skips completed trials and recomputes only
the rest — bit-identically.  Without ``--resume`` the journal is cleared
for fresh-run semantics.  ``--trial-timeout`` bounds each trial's
wall-clock time; wedged trials are recorded as explicit holes and the
campaign continues.

Fault tolerance: ``--jobs N`` workers are supervised
(:mod:`repro.experiments.supervisor`) — heartbeating workers, crash/hang
detection, ``--max-retries`` re-dispatches with ``--backoff``
exponential delay, quarantine of poison trials, and graceful
SIGINT/SIGTERM drain (in-flight trials finish and are journaled, no
orphaned workers; exit code 130 with a resumable journal).
``--harness-chaos SEED`` deliberately kills/hangs workers on a
deterministic schedule to prove all of that: the run must still converge
to results byte-identical to a clean serial run.  It needs ``--jobs 2``
or more and a selected experiment that runs supervised trials (a
campaign row, or ``validate``); anywhere else it would inject nothing.
``--jobs N`` (N > 1) needs such an experiment too, and
``--trial-timeout`` and ``--resume`` need a campaign row: a flag no
selected experiment reads is an error, not a silent serial run.
"""

from __future__ import annotations

import argparse
import logging
import operator
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.analytic.fits import compare_fits, fit_linear
from repro.chaos.campaign import format_chaos, run_chaos
from repro.checkpoint.harness import SweepJournal
from repro.experiments import (
    ablation, ale3d_io, e9_resume, e14_meanfield, extensions, fig1, fig4, fig6, pdes,
    policyzoo, resilience, speedup, timer_threads, validate, workloads,
)
from repro.experiments.common import SweepResult
from repro.experiments.reporting import text_table, write_csv
from repro.experiments.runner import TrialRunner
from repro.experiments.supervisor import SupervisorConfig
from repro.kernel.policy import policy_names
from repro.results import save_result
from repro.store.cli import main as store_main
from repro.store.store import ResultStore

__all__ = ["Claim", "EXPERIMENTS", "GROUPS", "QUICK_SWEEP", "Experiment", "expand", "main"]

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
        "==": operator.eq}


@dataclass(frozen=True)
class Claim:
    """One paper claim, judged on a row's full-size result.

    ``stat(result)`` is the measured statistic; *bound* is one or more
    comma-separated ``OP LIMIT`` clauses (``"> 0.3"``,
    ``">= 0.35, <= 1.2"``, ``"== linear"``) that it must all satisfy.
    *paper* is the paper's own value or expectation, as text.
    """

    name: str
    paper: str
    stat: Callable[[Any], Any]
    bound: str

    def holds(self, value) -> bool:
        """True if *value* satisfies every clause of :attr:`bound`."""
        for clause in self.bound.split(","):
            op, limit = clause.split()
            try:
                limit = float(limit)
            except ValueError:
                pass
            if not _OPS[op](value, limit):
                return False
        return True


@dataclass(frozen=True)
class Experiment:
    """One row of :data:`EXPERIMENTS`: how to run, report and archive it.

    The CLI calls ``run(args, **kwargs)`` with the parsed arguments, the
    :attr:`quick` arguments under ``--quick`` and, if :attr:`harness`,
    ``runner``: the :class:`~repro.experiments.runner.TrialRunner` it
    built once from the execution flags (``--jobs``, ``--results``,
    ``--trial-timeout``, ``--store``, ``--no-cache`` and the supervisor
    flags).  It prints ``text(result)``, writes :attr:`csv` under
    ``--csv DIR`` and :attr:`json` under ``--results DIR`` (named after
    the row unless :attr:`stem` is set), calls :attr:`then`, judges
    :attr:`claims` unless ``--quick``, and ends the run with exit code 1
    if ``ok(result)`` is false or a claim fails.  Unset hooks are skipped.
    """

    run: Callable[..., Any]
    text: Callable[[Any], str]
    quick: dict = field(default_factory=dict)
    harness: bool = False
    #: ``(headers, result -> rows)``, written as ``<stem>.csv``.
    csv: tuple[tuple[str, ...], Callable[[Any], Iterable]] | None = None
    #: ``result -> {suffix: result dataclass}``, each ``<stem><suffix>.json``.
    json: Callable[[Any], dict] | None = None
    stem: str | None = None
    then: Callable[[argparse.Namespace, Any], None] | None = None
    ok: Callable[[Any], bool] | None = None
    #: Experiment-specific flags (argparse dests) the row reads.  A flag
    #: set away from its default is an error unless a reader is selected.
    flags: tuple[str, ...] = ()
    #: ``args -> error message or None``, checked before anything runs.
    check: Callable[[argparse.Namespace], str | None] | None = None
    groups: tuple[str, ...] = ()
    #: Paper claims judged on the full-size result; ``ok`` is for oracle
    #: verdicts that must hold at every size.
    claims: tuple[Claim, ...] = ()


ALL = ("all",)
EXTENSIONS = ("all", "extensions")

#: ``--quick`` sizes of the Figure-3-shaped sweeps (fig3, fig5, fig6, tpn15).
QUICK_SWEEP = {"n_calls": 150, "n_seeds": 2, "proc_counts": (128, 512, 944, 1728)}


def _whole(res) -> dict:
    return {"": res}


def _printed(
    run, text, *, quick=None, harness: bool = False, groups=ALL, claims=()
) -> Experiment:
    """A row that only prints its report."""
    return Experiment(
        lambda args, **kw: run(**kw), text, quick=quick or {}, harness=harness,
        groups=groups, claims=claims,
    )


def _sweep(run, title: str, claims=()) -> Experiment:
    """A Figure-3-shaped sweep: table with fits, CSV series, JSON result."""
    return Experiment(
        lambda args, **kw: run(**kw), lambda res: fig6.format_sweep(res, title),
        quick=QUICK_SWEEP, harness=True, json=_whole, groups=ALL,
        csv=(("procs", "mean_us", "run_std_us", "call_std_us"), SweepResult.rows),
        claims=claims,
    )


def _winner(res: SweepResult) -> str:
    return compare_fits(res.proc_counts, res.mean_us)[2]


def _mean_at(res: SweepResult, n: int) -> float:
    return float(res.mean_us[list(res.proc_counts).index(n)])


def _gaps(res):
    """E7: prototype minus vanilla efficiency at each granularity."""
    return res.prototype_efficiency - res.vanilla_efficiency


#: Daemons the paper names among Figure 4's outliers (besides the cron job).
_OUTLIER_DAEMONS = {"syncd", "mmfsd", "hatsd", "hats_nim", "mld", "LoadL_startd", "inetd",
                    "hostmibd"}


def _run_chaos(args, **kw):
    return run_chaos(
        seeds=args.seeds, seed_base=args.seed_base, shrink=not args.no_shrink,
        shrink_budget=args.shrink_budget, corpus_out=args.corpus_out,
        policy=args.policy[0] if args.policy else None, **kw,
    )


def _write_digest(args, res) -> None:
    """``--digest-out PATH``: the run's result digest as one hex line."""
    if args.digest_out:
        os.makedirs(os.path.dirname(args.digest_out) or ".", exist_ok=True)
        with open(args.digest_out, "w", encoding="utf-8") as fh:
            fh.write(res.digest + "\n")
        print(f"[digest: {args.digest_out}]")


def _policyzoo_rows(res):
    return [
        (p, n, res.mean_us[p][i], res.median_us[p][i], res.max_us[p][i],
         res.mean_us[p][i] / res.reference_us[i])
        for p in res.policies
        for i, n in enumerate(res.sizes)
    ]


#: Every experiment, in ``--help`` and ``all`` order.
EXPERIMENTS: dict[str, Experiment] = {
    "fig1": _printed(fig1.run_fig1, fig1.format_fig1, claims=(
        Claim("fig1 overlapped/random all-free", "far more all-CPU time",
              lambda r: r.green_overlapped / r.green_random, "> 1.5"),
        Claim("fig1 overlapped all-free fraction", "1 - f", lambda r: r.green_overlapped,
              "> 0.8"),
    )),
    "fig3": _sweep(fig6.run_fig3, "Figure 3: vanilla kernel, 16 tasks/node", claims=(
        Claim("fig3 better fit", "linear", _winner, "== linear"),
        Claim("fig3 slope us/CPU", "0.70", lambda r: fit_linear(r.proc_counts, r.mean_us).slope,
              ">= 0.35, <= 1.2"),
        Claim("fig3 call sigma/mean at max", "'extreme variability'",
              lambda r: r.call_std_us[-1] / r.mean_us[-1], "> 0.3"),
    )),
    "fig4": Experiment(
        lambda args: fig4.run_fig4(), fig4.format_fig4, groups=ALL,
        csv=(("index", "sorted_allreduce_us"), lambda res: enumerate(res.sorted_durations_us)),
        claims=(
            Claim("fig4 fastest/model", "~1.1", lambda r: r.min_us / r.model_prediction_us,
                  "<= 1.35"),
            Claim("fig4 median/fastest", "~1.25", lambda r: r.median_us / r.min_us,
                  ">= 1.05, <= 2.5"),
            Claim("fig4 mean/model", "~6", lambda r: r.mean_us / r.model_prediction_us, "> 3"),
            Claim("fig4 slowest-call share", "> 0.5", lambda r: r.slowest_share, "> 0.2"),
            Claim("fig4 slowest culprit", "cron job", lambda r: r.slowest_culprit,
                  "== cron_health"),
            Claim("T5 outliers attributed", "most", lambda r: len(r.outlier_attribution),
                  ">= 1"),
            Claim("T5 outliers without a culprit", "few",
                  lambda r: sum(not top for _, _, top in r.outlier_attribution), "== 0"),
            Claim("T5 named daemons among outliers", "syncd, mmfsd, hatsd, ...",
                  lambda r: len(_OUTLIER_DAEMONS & {
                      n for _, _, top in r.outlier_attribution for n, _ in top
                  }), ">= 2"),
        ),
    ),
    "fig5": _sweep(fig6.run_fig5, "Figure 5: prototype kernel + co-scheduler", claims=(
        Claim("fig5 slope us/CPU", "0.22",
              lambda r: fit_linear(r.proc_counts, r.mean_us).slope, "> 0"),
    )),
    "fig6": Experiment(
        lambda args, **kw: fig6.run_fig6(**kw), fig6.format_fig6,
        quick=QUICK_SWEEP, harness=True, groups=ALL,
        csv=(
            ("procs", "vanilla_us", "prototype_us"),
            lambda res: zip(res.vanilla.proc_counts, res.vanilla.mean_us, res.prototype.mean_us),
        ),
        json=lambda res: {"_vanilla": res.vanilla, "_prototype": res.prototype},
        claims=(
            Claim("fig6 worst prototype/vanilla mean", "~1/3",
                  lambda r: max(r.prototype.mean_us / r.vanilla.mean_us), "< 1"),
            Claim("fig6 prototype/vanilla call sigma at max", "much smaller",
                  lambda r: r.prototype.call_std_us[-1] / r.vanilla.call_std_us[-1], "< 0.5"),
            Claim("fig6 slope ratio", "~3.2", lambda r: r.slope_ratio, "> 3"),
            Claim("fig6 mean ratio at 944", "~2.9", lambda r: r.mean_ratio_at(944), "> 1.8"),
        ),
    ),
    "tpn15": _sweep(fig6.run_tpn15, "T1: vanilla kernel, 15 tasks/node", claims=(
        Claim("T1 better fit", "linear", _winner, "== linear"),
        # 59 nodes: 885 ranks at 15/node against fig3's 944 at 16/node.
        Claim("T1 15/node over 16/node at 59 nodes", "improved",
              lambda r: _mean_at(r, 885) / _mean_at(fig6.run_fig3(proc_counts=(944,)), 944),
              "< 1"),
    )),
    "speedup": _printed(
        speedup.run_speedup154, speedup.format_speedup, harness=True,
        quick={"n_calls": 150, "n_seeds": 2}, claims=(
            Claim("T2 prototype/vanilla15 mean", "1/1.54",
                  lambda r: r.proto_allreduce_us / r.baseline_allreduce_us, "< 1"),
            Claim("T2 speedup %", "154", lambda r: r.speedup_percent, ">= 115, <= 260"),
        ),
    ),
    "timers": _printed(
        timer_threads.run_timer_threads, timer_threads.format_timer_threads,
        quick={"des_ranks": 16, "n_calls": 150}, claims=(
            Claim("T3 DES max, timers/silenced", "disrupted",
                  lambda r: r.des_max_default_us / r.des_max_fixed_us, "> 1.3"),
            Claim("T3 DES mean, timers/silenced", "disrupted",
                  lambda r: r.des_mean_default_us / r.des_mean_fixed_us, "> 1"),
            Claim("T3 model mean at 944, timers/silenced", "removed by the fix",
                  lambda r: r.model_mean_default_us / r.model_mean_fixed_us, "> 1"),
        ),
    ),
    "ale3d": _printed(
        ale3d_io.run_ale3d_io, ale3d_io.format_ale3d_io,
        quick={"n_ranks": 16, "timesteps": 10}, claims=(
            Claim("T4 naive cosched/vanilla run time", "'slowed it down'",
                  lambda r: r.naive_slowdown, "> 1"),
            Claim("T4 naive/vanilla I/O time", "I/O starved",
                  lambda r: r.naive_io_us / r.vanilla_io_us, "> 2"),
            Claim("T4 tuned run-time cut %", "24", lambda r: r.tuned_improvement_percent,
                  ">= 10, <= 45"),
        ),
    ),
    "ablation": _printed(
        ablation.run_ablation, ablation.format_ablation, harness=True,
        quick={"n_calls": 150, "n_seeds": 1}, claims=(
            Claim("A1 +polling fix/vanilla", "small", lambda r: r.steps[1][1] / r.steps[0][1],
                  "<= 1.05"),
            Claim("A1 +cosched/vanilla", "the big lever",
                  lambda r: r.steps[4][1] / r.steps[0][1], "< 0.6"),
            Claim("A1 +RT fixes/+cosched", "sharper windows",
                  lambda r: r.steps[5][1] / r.steps[4][1], "<= 1.1"),
            Claim("A1 vanilla/prototype", "~2.9", lambda r: r.steps[0][1] / r.steps[5][1], "> 2"),
        ),
    ),
    "multijob": _printed(
        extensions.run_multijob, extensions.format_multijob, groups=EXTENSIONS, claims=(
            Claim("E1 gang per-op gain", "gang restores collectives",
                  lambda r: r.per_op_improvement, "> 1.5"),
            Claim("E1 demand per-op gain", "best per-op", lambda r: r.demand_improvement,
                  "> 1.5"),
            Claim("E1 gang/uncoordinated makespan", "gang shares the machine",
                  lambda r: r.gang_makespan_us / r.uncoordinated_makespan_us, "< 1"),
            Claim("E1 demand finish spread/makespan", "worst fairness",
                  lambda r: r.demand_finish_spread_us / r.demand_makespan_us, "> 0.3"),
            Claim("E1 gang finish spread/makespan", "fair slots",
                  lambda r: r.gang_finish_spread_us / r.gang_makespan_us, "< 0.3"),
        ),
    ),
    "hw": _printed(
        extensions.run_hw_collectives, extensions.format_hw_collectives, groups=EXTENSIONS,
        claims=(
            Claim("E2 worst hardware/software mean", "hardware wins",
                  lambda r: max(r.hardware_us / r.software_us), "< 1"),
            Claim("E2 software/hardware at max", "still noise-limited",
                  lambda r: r.ratio_at_max(), "> 1.3"),
        ),
    ),
    "finegrain": _printed(
        extensions.run_fine_grain, extensions.format_fine_grain, groups=EXTENSIONS,
        quick={"n_ranks": 16, "timesteps": 10}, claims=(
            Claim("E3 always-on/vanilla run time", "T4's fiasco",
                  lambda r: r.always_on_us / r.vanilla_us, "> 1"),
            Claim("E3 fine-grain/vanilla run time", "faster",
                  lambda r: r.fine_grain_us / r.vanilla_us, "< 1"),
            Claim("E3 fine-grain/always-on I/O time", "I/O unharmed",
                  lambda r: r.fine_grain_io_us / r.always_on_io_us, "< 0.5"),
        ),
    ),
    "misalign": Experiment(
        lambda args, **kw: extensions.run_misalignment(**kw), extensions.format_misalignment,
        quick={"n_seeds": 1}, groups=EXTENSIONS, claims=(
            Claim("E4 unsynced/synced mean", "loses its edge", lambda r: r.degradation,
                  "> 1.1"),
        ),
    ),
    "resilience": Experiment(
        lambda args, **kw: resilience.run_resilience(**kw),
        resilience.format_resilience, quick={"n_ranks": 16, "calls": 1000}, harness=True,
        json=_whole, groups=EXTENSIONS, claims=(
            Claim("E8 timesync lost/healthy", "coordination lost",
                  lambda r: r.degradation_ratio, "> 1.2"),
            Claim("E8 timesync lost/uncoordinated", "~1, not a collapse",
                  lambda r: r.vs_baseline_ratio, "< 1.6"),
            Claim("E8 degradation events", "daemons free-run",
                  lambda r: r.degradation_events, ">= 1"),
            Claim("E8 injected drops", "1 % message loss", lambda r: r.drop_net_drops, "> 0"),
            Claim("E8 drops not retransmitted", "all recovered",
                  lambda r: r.drop_net_drops - r.drop_retransmits, "<= 0"),
            # forced <= drops // 10, as a share (forced is an integer).
            Claim("E8 forced-delivery share of drops", "rare",
                  lambda r: r.drop_forced / max(r.drop_net_drops, 1), "<= 0.1"),
            Claim("E8 nodes without a watchdog restart", "every node restarts",
                  lambda r: -(-r.n_ranks // 8) - r.death_restarts, "== 0"),
            Claim("E8 recovered/degraded mean", "near healthy",
                  lambda r: r.death_us / r.degraded_us, "< 1"),
        ),
    ),
    "waitmode": _printed(
        workloads.run_waitmode, workloads.format_waitmode, groups=EXTENSIONS,
        quick={"calls": 100}, claims=(
            Claim("E5 quiet block/poll", "poll wins quiet", lambda r: r.quiet_poll_advantage,
                  "> 1.3"),
            Claim("E5 noisy poll/block", "block wins noisy", lambda r: r.noisy_block_advantage,
                  "> 1.1"),
        ),
    ),
    "sensitivity": _printed(
        workloads.run_sensitivity, workloads.format_sensitivity, groups=EXTENSIONS,
        quick={"n_ranks": 16, "tpn": 8}, claims=(
            Claim("E6 collective/wavefront slowdown", "collectives amplify",
                  lambda r: r.collective_slowdown / r.wavefront_slowdown, "> 1"),
            Claim("E6 collective slowdown", "amplified", lambda r: r.collective_slowdown,
                  "> 1.5"),
        ),
    ),
    "granularity": Experiment(
        lambda args: workloads.run_granularity(), workloads.format_granularity,
        groups=EXTENSIONS,
        csv=(
            ("compute_us", "vanilla_eff", "prototype_eff"),
            lambda res: zip(res.compute_us, res.vanilla_efficiency, res.prototype_efficiency),
        ),
        claims=(
            Claim("E7 vanilla efficiency, finest-coarsest", "rises with grain",
                  lambda r: r.vanilla_efficiency[0] - r.vanilla_efficiency[-1], "< 0"),
            Claim("E7 least prototype-vanilla efficiency", "prototype dominates",
                  lambda r: min(_gaps(r)), "> 0"),
            Claim("E7 gap, finest-coarsest", "largest at fine grain",
                  lambda r: _gaps(r)[0] - _gaps(r)[-1], "> 0"),
        ),
    ),
    "validate": Experiment(
        # The anchors read --jobs, the store and the supervisor flags, but
        # are never journaled or bounded by --trial-timeout.
        lambda args, runner: validate.run_validation(TrialRunner(
            jobs=runner.jobs, supervisor=runner.supervisor, store=runner.store,
            use_cache=runner.use_cache,
        )),
        validate.format_validation, harness=True,
        ok=lambda checks: all(c.passed for c in checks),
    ),
    "e9": Experiment(
        lambda args, **kw: e9_resume.run_e9(
            workdir=os.path.join(args.results, "e9") if args.results else None, **kw
        ),
        e9_resume.format_e9, quick={"quick": True}, json=_whole, groups=ALL,
        ok=lambda res: res.fingerprint_match and res.journal_match,
    ),
    "chaos": Experiment(
        _run_chaos, format_chaos, quick={"quick": True}, harness=True,
        ok=lambda res: not res.failures,
        flags=("policy", "seeds", "seed_base", "no_shrink", "shrink_budget", "corpus_out"),
        check=lambda args: (
            "chaos accepts a single --policy to pin the campaign to"
            if args.policy and len(args.policy) > 1 else None
        ),
    ),
    "policy": Experiment(
        lambda args, **kw: policyzoo.run_policyzoo(policies=args.policy, **kw),
        policyzoo.format_policyzoo, quick={"quick": True}, harness=True,
        csv=(("policy", "n_ranks", "mean_us", "median_us", "max_us", "slowdown"),
             _policyzoo_rows),
        json=_whole, stem="policyzoo", flags=("policy",),
        ok=lambda res: all(all(v) for v in res.values_ok.values()),
    ),
    "e14": Experiment(
        lambda args, **kw: e14_meanfield.run_e14(**kw), e14_meanfield.format_e14,
        quick={"grid": "quick"}, json=_whole, ok=lambda res: res.oracle_ok,
        csv=(
            ("batch", "events", "event_reduction", "elapsed_dev_pct", "mean_dev_pct",
             "curve_err_p50_pct", "curve_err_p90_pct", "curve_err_max_abs_us"),
            lambda res: zip(
                res.batches, res.events, res.event_reduction, res.elapsed_dev_pct,
                res.mean_dev_pct, res.curve_err_p50_pct, res.curve_err_p90_pct,
                res.curve_err_max_abs_us,
            ),
        ),
    ),
    "pdes": Experiment(
        lambda args, **kw: pdes.run_pdes(meanfield_batch=args.meanfield, **kw),
        pdes.format_pdes, quick={"quick": True}, json=_whole, then=_write_digest,
        ok=lambda res: res.ok, flags=("meanfield", "digest_out"),
    ),
}

#: Group name -> its members, in table order.
GROUPS: dict[str, list[str]] = {
    group: [name for name, row in EXPERIMENTS.items() if group in row.groups]
    for group in dict.fromkeys(g for row in EXPERIMENTS.values() for g in row.groups)
}


def expand(names: Iterable[str]) -> list[str]:
    """The experiments *names* select: groups expanded in place, each
    experiment once, at its first position."""
    return list(dict.fromkeys(n for name in names for n in GROUPS.get(name, (name,))))


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run the requested experiments, print reports."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "store":
        # Store operations (fsck/gc/stats/chaos) live in their own CLI;
        # delegate so one entry point both fills and maintains the store.
        return store_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's figures and text results (see DESIGN.md).",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=[*EXPERIMENTS, *GROUPS],
    )
    parser.add_argument("--quick", action="store_true", help="smaller sweeps for a fast pass")
    parser.add_argument("--csv", metavar="DIR", help="also write CSV series to DIR")
    parser.add_argument(
        "--results", metavar="DIR",
        help="results directory: JSON result files plus the per-trial journal",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="with --results: skip trials already journaled (crash recovery)",
    )
    parser.add_argument(
        "--trial-timeout", type=float, metavar="SECONDS", default=None,
        help="wall-clock budget per sweep trial; timed-out trials become "
             "recorded holes instead of hanging the campaign",
    )
    parser.add_argument(
        "--jobs", type=int, metavar="N", default=1,
        help="run independent trials across N worker processes "
             "(default: 1, serial); results are bit-identical either way",
    )
    store_group = parser.add_argument_group("result store (cross-run memoization)")
    store_group.add_argument(
        "--store", metavar="DIR", default=None,
        help="content-addressed result store: trials whose (spec, code "
             "version) fingerprint is already stored are served from it "
             "without executing, and every executed result is written "
             "back (checksummed, atomic); a fully warm rerun executes "
             "zero trials and is byte-identical. "
             "See also the 'store fsck|gc|stats|chaos' subcommands.",
    )
    store_group.add_argument(
        "--no-cache", action="store_true",
        help="with --store: recompute every trial instead of reading the "
             "store, but still write results back — re-putting a result "
             "that disagrees with a stored one fails loudly "
             "(cross-run determinism check)",
    )
    sup_group = parser.add_argument_group("supervised backend (--jobs N)")
    sup_group.add_argument(
        "--max-retries", type=int, metavar="N", default=3,
        help="re-dispatches allowed per trial after a worker crash/hang "
             "before the trial is quarantined (default: 3)",
    )
    sup_group.add_argument(
        "--backoff", type=float, metavar="SECONDS", default=0.1,
        help="base of the deterministic exponential backoff between "
             "re-dispatches: BACKOFF * 2^attempt, capped at 5 s "
             "(default: 0.1)",
    )
    sup_group.add_argument(
        "--harness-chaos", type=int, metavar="SEED", default=None,
        help="inject deterministic worker kills/hangs drawn from SEED; "
             "the campaign must still converge byte-identically to a "
             "clean serial run",
    )
    chaos_group = parser.add_argument_group("chaos campaign (E10)")
    chaos_group.add_argument(
        "--seeds", type=int, metavar="N", default=32,
        help="chaos: number of random fault schedules to judge (default: 32)",
    )
    chaos_group.add_argument(
        "--seed-base", type=int, metavar="S", default=0,
        help="chaos: first schedule seed (campaign covers S .. S+N-1)",
    )
    chaos_group.add_argument(
        "--no-shrink", action="store_true",
        help="chaos: report failures without ddmin-minimizing them",
    )
    chaos_group.add_argument(
        "--shrink-budget", type=int, metavar="N", default=60,
        help="chaos: max oracle evaluations per shrink (default: 60)",
    )
    chaos_group.add_argument(
        "--corpus-out", metavar="DIR",
        help="chaos: write minimized failing schedules to DIR as corpus JSON",
    )
    pdes_group = parser.add_argument_group("digest run (pdes)")
    pdes_group.add_argument(
        "--meanfield", type=int, metavar="B", default=0,
        help="pdes: batch B daemon activations per wakeup on untraced "
             "nodes (0/1: exact); accuracy cost is published by 'e14'",
    )
    pdes_group.add_argument(
        "--digest-out", metavar="PATH",
        help="pdes: write the run's result digest to PATH (one hex line; "
             "tests/test_contract.py compares it with the golden)",
    )
    policy_group = parser.add_argument_group("dispatch policy (E13 / chaos)")
    policy_group.add_argument(
        "--policy", metavar="NAME", action="append", default=None,
        help="dispatch policy from the repro.kernel.policy zoo (repeatable)."
             " 'policy': restrict the ablation grid to these;"
             " 'chaos': pin every schedule to the (single) given policy"
             " instead of letting the chaos.policy axis draw one",
    )
    args = parser.parse_args(argv)
    wanted = expand(args.experiments)
    rows = [EXPERIMENTS[name] for name in wanted]
    read = {flag for row in rows for flag in row.flags}
    for dest in dict.fromkeys(f for row in EXPERIMENTS.values() for f in row.flags):
        if dest not in read and getattr(args, dest) != parser.get_default(dest):
            # Named from the table's end, where the experiment built
            # around a flag sits, back to the ones that also read it.
            readers = [n for n, row in reversed(EXPERIMENTS.items()) if dest in row.flags]
            names = readers[0] if len(readers) == 1 else (
                f"{', '.join(readers[:-1])} or {readers[-1]}"
            )
            parser.error(f"--{dest.replace('_', '-')} needs the {names} experiment")
    if args.policy:
        known = policy_names()
        for name in args.policy:
            if name not in known:
                parser.error(f"--policy {name!r}: not registered; known: {known}")
    for row in rows:
        error = row.check and row.check(args)
        if error:
            parser.error(error)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.trial_timeout is not None and args.trial_timeout <= 0:
        parser.error("--trial-timeout must be > 0")
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    if args.meanfield < 0:
        parser.error("--meanfield must be >= 0")
    if args.no_cache and not args.store:
        parser.error("--no-cache requires --store DIR (there is no cache to skip)")
    if args.max_retries < 0:
        parser.error("--max-retries must be >= 0")
    if args.backoff < 0:
        parser.error("--backoff must be >= 0")
    if args.harness_chaos is not None and args.jobs < 2:
        parser.error(
            "--harness-chaos needs --jobs >= 2 (only supervised workers "
            "can be killed and retried)"
        )
    # Every harness row runs supervised trials; all but validate also
    # journal them and bound them with --trial-timeout.
    supervised = [n for n, row in EXPERIMENTS.items() if row.harness]
    campaign = [n for n in supervised if n != "validate"]
    for flag, is_set, readers, what in (
        ("--harness-chaos", args.harness_chaos is not None, supervised, "runs supervised"),
        ("--jobs", args.jobs > 1, supervised, "runs supervised"),
        ("--trial-timeout", args.trial_timeout is not None, campaign, "runs campaign"),
        ("--resume", args.resume, campaign, "journals campaign"),
    ):
        if is_set and not set(readers) & set(wanted):
            parser.error(f"{flag} needs an experiment that {what} trials: {', '.join(readers)}")

    journal = None
    if args.results:
        journal = SweepJournal(args.results)
        if not args.resume:
            journal.clear()
    elif args.resume:
        parser.error("--resume requires --results DIR (the journal to resume from)")

    # Make journal-merge warnings / supervisor summaries visible on stderr.
    logging.basicConfig(
        level=logging.INFO, format="[%(name)s] %(message)s", stream=sys.stderr
    )
    store = None
    if args.store:
        store = ResultStore(args.store)
    # The one execution policy every harness row runs its trials under.
    runner = TrialRunner(
        jobs=args.jobs,
        journal=journal,
        trial_timeout_s=args.trial_timeout,
        supervisor=SupervisorConfig(
            max_retries=args.max_retries,
            backoff_base_s=args.backoff,
            chaos_seed=args.harness_chaos,
        ),
        store=store,
        use_cache=not args.no_cache,
    )
    try:
        rc = _run_selected(wanted, args, runner)
        if store is not None:
            print(
                f"[store: hits={store.hits} misses={store.misses} puts={store.puts}]"
            )
        return rc
    except KeyboardInterrupt:
        print(
            "\ninterrupted: workers drained and terminated, journal flushed"
            + (
                f" — resume with --results {args.results} --resume"
                if args.results
                else " (pass --results DIR next time for a resumable journal)"
            )
        )
        return 130


def _run_selected(wanted, args, runner: TrialRunner) -> int:
    """Run the selected experiments in order; 1 at the first that fails."""
    for name in wanted:
        row = EXPERIMENTS[name]
        t0 = time.time()
        print(f"=== {name} " + "=" * (60 - len(name)))
        kwargs = dict(row.quick) if args.quick else {}
        if row.harness:
            kwargs["runner"] = runner
        res = row.run(args, **kwargs)
        print(row.text(res))
        stem = row.stem or name
        if row.csv and args.csv:
            headers, rows = row.csv
            os.makedirs(args.csv, exist_ok=True)
            path = os.path.join(args.csv, f"{stem}.csv")
            write_csv(path, headers, rows(res))
            print(f"[csv: {path}]")
        if row.json and args.results:
            for suffix, obj in row.json(res).items():
                os.makedirs(args.results, exist_ok=True)
                path = os.path.join(args.results, f"{stem}{suffix}.json")
                save_result(path, obj)
                print(f"[json: {path}]")
        if row.then:
            row.then(args, res)
        failed = row.ok and not row.ok(res)
        if row.claims and not args.quick:
            failed = not _judge(row.claims, res) or failed
        if failed:
            return 1
        print(f"[{name}: {time.time() - t0:.1f}s]\n")
    return 0


def _judge(claims, res) -> bool:
    """Print the claims table for *res*; True if every claim holds."""
    rows, held = [], True
    for claim in claims:
        value = claim.stat(res)
        ok = claim.holds(value)
        held = held and ok
        shown = f"{value:.4g}" if isinstance(value, float) else str(value)
        rows.append((claim.name, claim.paper, shown, claim.bound, "PASS" if ok else "FAIL"))
    print(text_table(("claim", "paper", "measured", "bound", "verdict"), rows, title="claims"))
    return held


if __name__ == "__main__":
    sys.exit(main())
