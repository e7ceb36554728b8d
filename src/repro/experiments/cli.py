"""Command-line entry point: regenerate any paper figure/table.

::

    repro-experiments fig1 fig3 fig4 fig5 fig6 tpn15 speedup timers ale3d ablation
    repro-experiments extensions          # E1-E6
    repro-experiments all --quick
    repro-experiments fig6 --jobs 4       # trials across 4 worker processes
    repro-experiments fig3 fig6 --csv results/   # also dump CSV series
    repro-experiments fig6 --results results/run1         # JSON + journal
    repro-experiments fig6 --results results/run1 --resume  # skip done trials
    repro-experiments e9 --quick          # crash/restart round-trip check
    repro-experiments chaos --quick --seeds 8 --jobs 2   # fault fuzzing
    repro-experiments chaos --quick --policy quantum     # pin the campaign
    repro-experiments chaos --quick --seeds 4 --shards 2 # sharded-vs-serial digests
    repro-experiments chaos --quick --shards 2 --harness-chaos 7  # + worker kills
    repro-experiments resilience --shards 2              # E8 under parallel DES
    repro-experiments policy --quick --jobs 4            # E13 policy ablation
    repro-experiments policy --policy aix --policy fair  # subset of the zoo

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
to results byte-identical to a clean serial run.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time

from repro.experiments import (
    run_ablation,
    run_ale3d_io,
    run_fig1,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_speedup154,
    run_timer_threads,
    run_tpn15,
)
from repro.experiments.ablation import format_ablation
from repro.experiments.ale3d_io import format_ale3d_io
from repro.experiments.extensions import (
    format_fine_grain,
    format_hw_collectives,
    format_misalignment,
    format_multijob,
    run_fine_grain,
    run_hw_collectives,
    run_misalignment,
    run_multijob,
)
from repro.experiments.resilience import format_resilience, run_resilience
from repro.experiments.workloads import (
    format_granularity,
    format_sensitivity,
    format_waitmode,
    run_granularity,
    run_sensitivity,
    run_waitmode,
)
from repro.experiments.fig1 import format_fig1
from repro.experiments.fig4 import format_fig4
from repro.experiments.fig6 import format_fig6, format_sweep
from repro.experiments.speedup import format_speedup
from repro.experiments.timer_threads import format_timer_threads

__all__ = ["main"]


def _quick_kwargs(quick: bool) -> dict:
    if not quick:
        return {}
    return {"n_calls": 150, "n_seeds": 2, "proc_counts": (128, 512, 944, 1728)}


#: Experiment-specific flags (by argparse dest) and the experiments that
#: read them.  A flag set away from its default is an error unless one of
#: its readers is selected.
FLAG_READERS = {
    "policy": ("policy", "chaos"),
    **dict.fromkeys(
        ("seeds", "seed_base", "no_shrink", "shrink_budget", "corpus_out"), ("chaos",)
    ),
    "shards": ("pdes", "chaos", "resilience"),
    "meanfield": ("pdes",),
    "digest_out": ("pdes",),
}


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
        choices=[
            "fig1", "fig3", "fig4", "fig5", "fig6",
            "tpn15", "speedup", "timers", "ale3d", "ablation",
            "multijob", "hw", "finegrain", "misalign", "resilience",
            "waitmode", "sensitivity", "granularity", "validate", "e9",
            "chaos", "policy", "e14", "pdes", "all", "extensions",
        ],
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
    pdes_group = parser.add_argument_group("parallel DES (pdes / chaos / resilience)")
    pdes_group.add_argument(
        "--shards", type=int, metavar="N", default=None,
        help="partition the cluster's nodes across N shard processes "
             "synchronized by conservative null-message windows "
             "(default: serial); the result digest is shard-count "
             "invariant by construction.  'pdes': run sharded; 'chaos': "
             "judge every seed by sharded-vs-serial digest equality; "
             "'resilience': run the whole E8 suite under parallelism",
    )
    pdes_group.add_argument(
        "--meanfield", type=int, metavar="B", default=0,
        help="pdes: batch B daemon activations per wakeup on untraced "
             "nodes (0/1: exact); accuracy cost is published by 'e14'",
    )
    pdes_group.add_argument(
        "--digest-out", metavar="PATH",
        help="pdes: write the run's result digest to PATH (one hex line; "
             "tests/test_contract.py compares these across shard counts)",
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
    wanted = list(args.experiments)
    if "all" in wanted:
        wanted = ["fig1", "fig3", "fig4", "fig5", "fig6", "tpn15",
                  "speedup", "timers", "ale3d", "ablation",
                  "multijob", "hw", "finegrain", "misalign", "resilience",
                  "waitmode", "sensitivity", "granularity", "e9"]
    elif "extensions" in wanted:
        wanted = ["multijob", "hw", "finegrain", "misalign", "resilience",
                  "waitmode", "sensitivity", "granularity"]

    for dest, readers in FLAG_READERS.items():
        if getattr(args, dest) != parser.get_default(dest) and not set(readers) & set(wanted):
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
        if "chaos" in wanted and len(args.policy) > 1:
            parser.error("chaos accepts a single --policy to pin the campaign to")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.shards is not None and args.shards < 1:
        parser.error("--shards must be >= 1")
    if args.meanfield < 0:
        parser.error("--meanfield must be >= 0")
    if args.no_cache and not args.store:
        parser.error("--no-cache requires --store DIR (there is no cache to skip)")
    if args.max_retries < 0:
        parser.error("--max-retries must be >= 0")
    if args.backoff < 0:
        parser.error("--backoff must be >= 0")
    if args.harness_chaos is not None and args.jobs < 2 and not (
        args.shards is not None
        and args.shards >= 1
        and any(e in ("chaos", "pdes") for e in wanted)
    ):
        parser.error(
            "--harness-chaos needs --jobs >= 2 (only supervised workers "
            "can be killed and retried), or --shards with the "
            "chaos/pdes experiments (where it SIGKILLs shard workers and "
            "the parallel-DES supervisor must recover them)"
        )

    journal = None
    if args.results:
        from repro.checkpoint import SweepJournal

        journal = SweepJournal(args.results)
        if not args.resume:
            journal.clear()
    elif args.resume:
        parser.error("--resume requires --results DIR (the journal to resume from)")

    def csv_out(name: str, headers, rows) -> None:
        if not args.csv:
            return
        from repro.experiments.reporting import write_csv

        os.makedirs(args.csv, exist_ok=True)
        path = os.path.join(args.csv, f"{name}.csv")
        write_csv(path, headers, rows)
        print(f"[csv: {path}]")

    def save_json(name: str, result) -> None:
        """Archive one experiment's result dataclass (atomic write)."""
        if not args.results:
            return
        from repro.results import save_result

        os.makedirs(args.results, exist_ok=True)
        path = os.path.join(args.results, f"{name}.json")
        save_result(path, result)
        print(f"[json: {path}]")

    qa = _quick_kwargs(args.quick)
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
        rc = _run_selected(wanted, args, qa, harness, csv_out, save_json)
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


def _run_selected(wanted, args, qa, harness, csv_out, save_json) -> int:
    """Run the selected experiments in order (the body of :func:`main`)."""
    for name in wanted:
        t0 = time.time()
        print(f"=== {name} " + "=" * (60 - len(name)))
        sweep_headers = ("procs", "mean_us", "run_std_us", "call_std_us")
        if name == "fig1":
            print(format_fig1(run_fig1()))
        elif name == "fig3":
            res = run_fig3(**qa, **harness)
            print(format_sweep(res, "Figure 3: vanilla kernel, 16 tasks/node"))
            csv_out("fig3", sweep_headers, res.rows())
            save_json("fig3", res)
        elif name == "fig4":
            res = run_fig4()
            print(format_fig4(res))
            csv_out(
                "fig4",
                ("index", "sorted_allreduce_us"),
                enumerate(res.sorted_durations_us),
            )
        elif name == "fig5":
            res = run_fig5(**qa, **harness)
            print(format_sweep(res, "Figure 5: prototype kernel + co-scheduler"))
            csv_out("fig5", sweep_headers, res.rows())
            save_json("fig5", res)
        elif name == "fig6":
            res = run_fig6(**qa, **harness)
            print(format_fig6(res))
            csv_out(
                "fig6",
                ("procs", "vanilla_us", "prototype_us"),
                zip(res.vanilla.proc_counts, res.vanilla.mean_us, res.prototype.mean_us),
            )
            save_json("fig6_vanilla", res.vanilla)
            save_json("fig6_prototype", res.prototype)
        elif name == "tpn15":
            res = run_tpn15(**qa, **harness)
            print(format_sweep(res, "T1: vanilla kernel, 15 tasks/node"))
            csv_out("tpn15", sweep_headers, res.rows())
            save_json("tpn15", res)
        elif name == "speedup":
            print(format_speedup(run_speedup154(**harness)))
        elif name == "timers":
            print(format_timer_threads(run_timer_threads()))
        elif name == "ale3d":
            print(format_ale3d_io(run_ale3d_io()))
        elif name == "ablation":
            print(format_ablation(run_ablation(**harness)))
        elif name == "multijob":
            print(format_multijob(run_multijob()))
        elif name == "hw":
            print(format_hw_collectives(run_hw_collectives()))
        elif name == "finegrain":
            print(format_fine_grain(run_fine_grain()))
        elif name == "misalign":
            print(format_misalignment(run_misalignment()))
        elif name == "resilience":
            rqa = {"n_ranks": 16, "calls": 1000} if args.quick else {}
            if args.shards is not None:
                rqa["shards"] = args.shards
            res = run_resilience(**rqa, **harness)
            print(format_resilience(res))
            save_json("resilience", res)
        elif name == "e9":
            from repro.experiments.e9_resume import format_e9, run_e9

            res = run_e9(
                quick=args.quick,
                workdir=os.path.join(args.results, "e9") if args.results else None,
            )
            print(format_e9(res))
            save_json("e9", res)
            if not (res.fingerprint_match and res.journal_match):
                return 1
        elif name == "waitmode":
            print(format_waitmode(run_waitmode()))
        elif name == "sensitivity":
            print(format_sensitivity(run_sensitivity()))
        elif name == "granularity":
            res = run_granularity()
            print(format_granularity(res))
            csv_out(
                "granularity",
                ("compute_us", "vanilla_eff", "prototype_eff"),
                zip(res.compute_us, res.vanilla_efficiency, res.prototype_efficiency),
            )
        elif name == "chaos":
            from repro.chaos import format_chaos, run_chaos

            res = run_chaos(
                seeds=args.seeds,
                seed_base=args.seed_base,
                quick=args.quick,
                shrink=not args.no_shrink,
                shrink_budget=args.shrink_budget,
                corpus_out=args.corpus_out,
                policy=args.policy[0] if args.policy else None,
                shards=args.shards,
                shard_chaos=(
                    args.harness_chaos if args.shards is not None else None
                ),
                **harness,
            )
            print(format_chaos(res))
            if res.failures:
                return 1
        elif name == "policy":
            from repro.experiments.policyzoo import format_policyzoo, run_policyzoo

            res = run_policyzoo(
                policies=args.policy, quick=args.quick, **harness
            )
            print(format_policyzoo(res))
            csv_out(
                "policyzoo",
                ("policy", "n_ranks", "mean_us", "median_us", "max_us", "slowdown"),
                [
                    (p, n, res.mean_us[p][i], res.median_us[p][i],
                     res.max_us[p][i], res.mean_us[p][i] / res.reference_us[i])
                    for p in res.policies
                    for i, n in enumerate(res.sizes)
                ],
            )
            save_json("policyzoo", res)
            if not all(all(v) for v in res.values_ok.values()):
                return 1
        elif name == "e14":
            from repro.experiments.e14_meanfield import format_e14, run_e14

            res = run_e14("quick" if args.quick else "full")
            print(format_e14(res))
            csv_out(
                "e14",
                ("batch", "events", "event_reduction", "wall_speedup",
                 "elapsed_dev_pct", "mean_dev_pct",
                 "curve_err_p50_pct", "curve_err_p90_pct", "curve_err_max_abs_us"),
                [
                    (res.batches[i], res.events[i], res.event_reduction[i],
                     res.wall_speedup[i], res.elapsed_dev_pct[i],
                     res.mean_dev_pct[i], res.curve_err_p50_pct[i],
                     res.curve_err_p90_pct[i], res.curve_err_max_abs_us[i])
                    for i in range(len(res.batches))
                ],
            )
            save_json("e14", res)
            if not res.oracle_ok:
                return 1
        elif name == "pdes":
            from repro.experiments.pdes import format_pdes, run_pdes

            res = run_pdes(
                shards=args.shards or 1,
                quick=args.quick,
                meanfield_batch=args.meanfield,
                shard_chaos_seed=(
                    args.harness_chaos if args.shards is not None else None
                ),
            )
            print(format_pdes(res))
            save_json("pdes", res)
            if args.digest_out:
                d = os.path.dirname(args.digest_out)
                if d:
                    os.makedirs(d, exist_ok=True)
                with open(args.digest_out, "w", encoding="utf-8") as fh:
                    fh.write(res.digest + "\n")
                print(f"[digest: {args.digest_out}]")
            if not res.ok:
                return 1
        elif name == "validate":
            from repro.experiments.validate import format_validation, run_validation

            checks = run_validation(jobs=args.jobs)
            print(format_validation(checks))
            if any(not c.passed for c in checks):
                return 1
        print(f"[{name}: {time.time() - t0:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
