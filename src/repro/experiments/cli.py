"""Command-line entry point: regenerate any paper figure/table.

::

    repro-experiments NAME... [--quick] [--csv DIR] [--results DIR] [--jobs N]

Every experiment is one row of :data:`EXPERIMENTS`: what it runs, how it
prints and archives its result, its ``--quick`` arguments, the
experiment-specific flags it reads and the groups (``all``,
``extensions``) it belongs to.  ``--help`` lists the names in table
order; a group name expands in place to its members in that order, and an
experiment named twice runs once, at its first position.

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
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro import chaos
from repro.experiments import (
    ablation, ale3d_io, e9_resume, e14_meanfield, extensions, fig1, fig4, fig6, pdes,
    policyzoo, resilience, speedup, timer_threads, validate, workloads,
)
from repro.experiments.common import SweepResult

__all__ = ["EXPERIMENTS", "GROUPS", "QUICK_SWEEP", "Experiment", "expand", "main"]


@dataclass(frozen=True)
class Experiment:
    """One row of :data:`EXPERIMENTS`: how to run, report and archive it.

    The CLI calls ``run(args, **kwargs)`` with the parsed arguments, the
    :attr:`quick` arguments under ``--quick`` and, if :attr:`harness`, the
    campaign keywords ``journal``, ``trial_timeout_s`` and ``jobs``.  It
    prints ``text(result)``, writes :attr:`csv` under ``--csv DIR`` and
    :attr:`json` under ``--results DIR`` (named after the row unless
    :attr:`stem` is set), calls :attr:`then`, and ends the run with exit
    code 1 if ``ok(result)`` is false.  Unset hooks are skipped.
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


ALL = ("all",)
EXTENSIONS = ("all", "extensions")

#: ``--quick`` sizes of the Figure-3-shaped sweeps (fig3, fig5, fig6, tpn15).
QUICK_SWEEP = {"n_calls": 150, "n_seeds": 2, "proc_counts": (128, 512, 944, 1728)}


def _whole(res) -> dict:
    return {"": res}


def _printed(run, text, *, harness: bool = False, groups=ALL) -> Experiment:
    """A row that only prints its report."""
    return Experiment(lambda args, **kw: run(**kw), text, harness=harness, groups=groups)


def _sweep(run, title: str) -> Experiment:
    """A Figure-3-shaped sweep: table with fits, CSV series, JSON result."""
    return Experiment(
        lambda args, **kw: run(**kw), lambda res: fig6.format_sweep(res, title),
        quick=QUICK_SWEEP, harness=True, json=_whole, groups=ALL,
        csv=(("procs", "mean_us", "run_std_us", "call_std_us"), SweepResult.rows),
    )


def _run_chaos(args, **kw):
    return chaos.run_chaos(
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
    "fig1": _printed(fig1.run_fig1, fig1.format_fig1),
    "fig3": _sweep(fig6.run_fig3, "Figure 3: vanilla kernel, 16 tasks/node"),
    "fig4": Experiment(
        lambda args: fig4.run_fig4(), fig4.format_fig4, groups=ALL,
        csv=(("index", "sorted_allreduce_us"), lambda res: enumerate(res.sorted_durations_us)),
    ),
    "fig5": _sweep(fig6.run_fig5, "Figure 5: prototype kernel + co-scheduler"),
    "fig6": Experiment(
        lambda args, **kw: fig6.run_fig6(**kw), fig6.format_fig6,
        quick=QUICK_SWEEP, harness=True, groups=ALL,
        csv=(
            ("procs", "vanilla_us", "prototype_us"),
            lambda res: zip(res.vanilla.proc_counts, res.vanilla.mean_us, res.prototype.mean_us),
        ),
        json=lambda res: {"_vanilla": res.vanilla, "_prototype": res.prototype},
    ),
    "tpn15": _sweep(fig6.run_tpn15, "T1: vanilla kernel, 15 tasks/node"),
    "speedup": _printed(speedup.run_speedup154, speedup.format_speedup, harness=True),
    "timers": _printed(timer_threads.run_timer_threads, timer_threads.format_timer_threads),
    "ale3d": _printed(ale3d_io.run_ale3d_io, ale3d_io.format_ale3d_io),
    "ablation": _printed(ablation.run_ablation, ablation.format_ablation, harness=True),
    "multijob": _printed(
        extensions.run_multijob, extensions.format_multijob, groups=EXTENSIONS
    ),
    "hw": _printed(
        extensions.run_hw_collectives, extensions.format_hw_collectives, groups=EXTENSIONS
    ),
    "finegrain": _printed(
        extensions.run_fine_grain, extensions.format_fine_grain, groups=EXTENSIONS
    ),
    "misalign": _printed(
        extensions.run_misalignment, extensions.format_misalignment, groups=EXTENSIONS
    ),
    "resilience": Experiment(
        lambda args, **kw: resilience.run_resilience(**kw),
        resilience.format_resilience, quick={"n_ranks": 16, "calls": 1000}, harness=True,
        json=_whole, groups=EXTENSIONS,
    ),
    "waitmode": _printed(workloads.run_waitmode, workloads.format_waitmode, groups=EXTENSIONS),
    "sensitivity": _printed(
        workloads.run_sensitivity, workloads.format_sensitivity, groups=EXTENSIONS
    ),
    "granularity": Experiment(
        lambda args: workloads.run_granularity(), workloads.format_granularity,
        groups=EXTENSIONS,
        csv=(
            ("compute_us", "vanilla_eff", "prototype_eff"),
            lambda res: zip(res.compute_us, res.vanilla_efficiency, res.prototype_efficiency),
        ),
    ),
    "validate": Experiment(
        lambda args: validate.run_validation(jobs=args.jobs), validate.format_validation,
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
        _run_chaos, chaos.format_chaos, quick={"quick": True}, harness=True,
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
        from repro.store.cli import main as store_main

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
        from repro.kernel.policy import policy_names

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
    if args.harness_chaos is not None:
        if args.jobs < 2:
            parser.error(
                "--harness-chaos needs --jobs >= 2 (only supervised workers "
                "can be killed and retried)"
            )
        # The campaign rows, and validate, which builds its own
        # TrialRunner with --jobs.
        supervised = [n for n, row in EXPERIMENTS.items() if row.harness or n == "validate"]
        if not set(supervised) & set(wanted):
            parser.error(
                "--harness-chaos needs an experiment that runs supervised "
                f"trials: {', '.join(supervised)}"
            )

    journal = None
    if args.results:
        from repro.checkpoint import SweepJournal

        journal = SweepJournal(args.results)
        if not args.resume:
            journal.clear()
    elif args.resume:
        parser.error("--resume requires --results DIR (the journal to resume from)")

    harness = {
        "journal": journal,
        "trial_timeout_s": args.trial_timeout,
        "jobs": args.jobs,
    }

    # Route supervisor policy (retry budget, backoff, harness chaos) and
    # the result store to every campaign's internally-built TrialRunner, and make
    # journal-merge warnings / supervisor summaries visible on stderr.
    from repro.experiments.runner import set_execution_defaults
    from repro.experiments.supervisor import SupervisorConfig

    logging.basicConfig(
        level=logging.INFO, format="[%(name)s] %(message)s", stream=sys.stderr
    )
    store = None
    if args.store:
        from repro.store import ResultStore

        store = ResultStore(args.store)

    previous_defaults = set_execution_defaults(
        supervisor=SupervisorConfig(
            max_retries=args.max_retries,
            backoff_base_s=args.backoff,
            chaos_seed=args.harness_chaos,
        ),
        store=store,
        use_cache=not args.no_cache,
    )
    try:
        rc = _run_selected(wanted, args, harness)
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
    finally:
        set_execution_defaults(*previous_defaults)


def _run_selected(wanted, args, harness) -> int:
    """Run the selected experiments in order; 1 at the first that fails."""
    for name in wanted:
        row = EXPERIMENTS[name]
        t0 = time.time()
        print(f"=== {name} " + "=" * (60 - len(name)))
        kwargs = dict(row.quick) if args.quick else {}
        if row.harness:
            kwargs.update(harness)
        res = row.run(args, **kwargs)
        print(row.text(res))
        stem = row.stem or name
        if row.csv and args.csv:
            from repro.experiments.reporting import write_csv

            headers, rows = row.csv
            os.makedirs(args.csv, exist_ok=True)
            path = os.path.join(args.csv, f"{stem}.csv")
            write_csv(path, headers, rows(res))
            print(f"[csv: {path}]")
        if row.json and args.results:
            from repro.results import save_result

            for suffix, obj in row.json(res).items():
                os.makedirs(args.results, exist_ok=True)
                path = os.path.join(args.results, f"{stem}{suffix}.json")
                save_result(path, obj)
                print(f"[json: {path}]")
        if row.then:
            row.then(args, res)
        if row.ok and not row.ok(res):
            return 1
        print(f"[{name}: {time.time() - t0:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
