"""Chaos campaigns: fan seeds over the trial runner, shrink failures.

One campaign = N seeds.  Each seed regenerates its schedule (pure
function of ``seed`` + workload shape), judges it with the oracle suite,
and lands one verdict record in the journal — so campaigns inherit every
:class:`~repro.experiments.runner.TrialRunner` property for free:
``--jobs N`` fan-out, per-trial wall-clock watchdogs, crash-safe journal
resume, and byte-identical serial-vs-parallel results.

Failures are then shrunk *in the parent process* (ddmin probes share
nothing, but shrinking is cheap relative to the campaign and keeping it
in-parent keeps the journal's verdict records pure) and written to the
regression corpus as minimized, replayable JSON counterexamples.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

from repro.chaos.generator import generate_schedule
from repro.chaos.oracles import ORACLES, judge
from repro.chaos.schedule import ChaosSchedule, ChaosWorkload
from repro.chaos.shrink import ShrinkResult, shrink_schedule
from repro.checkpoint.harness import SweepJournal
from repro.experiments.runner import TrialRunner, TrialSpec
from repro.faults.demo import ENV_VAR as _BUG_ENV

__all__ = [
    "ChaosCampaignResult",
    "run_chaos",
    "format_chaos",
    "chaos_workload",
    "save_corpus_entry",
    "load_corpus_entry",
    "replay_corpus_entry",
]

#: Workload shapes: the full campaign matches E8's resilience scale (the
#: run must span several 100 ms co-scheduler periods, or window/watchdog
#: faults fire into dead air); the quick one is sized for CI smoke —
#: fewer ranks and just over two periods, so a seed judges in about a
#: second while still cycling every defense.
_FULL_WORKLOAD = ChaosWorkload(n_ranks=16, tasks_per_node=8, calls=900)
_QUICK_WORKLOAD = ChaosWorkload(n_ranks=8, tasks_per_node=4, calls=420)


def chaos_workload(quick: bool = False) -> ChaosWorkload:
    """The campaign workload shape (``quick=True`` → the CI-smoke one)."""
    return _QUICK_WORKLOAD if quick else _FULL_WORKLOAD


def _trial_schedule(params: dict) -> tuple[ChaosWorkload, ChaosSchedule]:
    """Regenerate a trial's workload and schedule from its *params*.

    ``params["policy"]`` (a ``{"name": ..., <param>: ...}`` dict), when
    present, *forces* that policy entry onto the schedule — replacing
    whatever the ``chaos.policy`` axis drew — so a campaign can pin the
    whole seed range to one zoo member.
    """
    workload = ChaosWorkload(**params["workload"])
    schedule = generate_schedule(params["seed"], workload)
    forced = params.get("policy")
    if forced:
        entries = [e for e in schedule.entries if e["kind"] != "policy"]
        entries.append({"kind": "policy", **forced})
        schedule = schedule.with_entries(entries)
    return workload, schedule


def _verdict(
    seed: int, schedule: ChaosSchedule, ok: bool, failed: list, details: dict
) -> dict:
    """One trial's journal record: plain JSON, with the entry list so a
    journaled verdict can be audited without regenerating."""
    return {
        "seed": seed,
        "ok": ok,
        "failed": failed,
        "n_entries": len(schedule.entries),
        "entries": [dict(e) for e in schedule.entries],
        "details": details,
    }


def _chaos_trial(params: dict) -> dict:
    """One campaign trial: regenerate the seed's schedule and judge it.

    Top-level and pure (all inputs in *params*), per the TrialRunner
    contract.
    """
    _, schedule = _trial_schedule(params)
    report = judge(schedule)
    return _verdict(
        params["seed"], schedule, report.ok, list(report.failed), report.details
    )


@dataclass
class ChaosCampaignResult:
    """Verdicts for every seed, plus the minimized counterexamples."""

    seeds: tuple
    records: tuple  # one _chaos_trial record (or error dict) per seed
    shrunk: tuple = ()  # (seed, primary_failure, ShrinkResult) triples
    corpus_paths: tuple = ()

    @property
    def failures(self) -> list:
        return [r for r in self.records if not r.get("ok", False)]


def run_chaos(
    seeds: int = 32,
    seed_base: int = 0,
    quick: bool = False,
    jobs: int = 1,
    journal: Optional[SweepJournal] = None,
    trial_timeout_s: Optional[float] = None,
    shrink: bool = True,
    shrink_budget: int = 60,
    corpus_out: Optional[str] = None,
    policy: Optional[str] = None,
    policy_params: tuple = (),
) -> ChaosCampaignResult:
    """Judge ``seed_base .. seed_base+seeds-1``; shrink and save failures.

    Deterministic end to end: the verdict table, the journal bytes, and
    the minimized counterexamples depend only on ``(seeds, seed_base,
    quick)`` and the forced *policy* — not on ``jobs``, resume state, or
    wall clock.  ``policy`` pins every seed's schedule to that dispatch
    policy (overriding the ``chaos.policy`` axis); journal keys carry the
    policy name so pinned and unpinned campaigns never collide.
    """
    workload = chaos_workload(quick)
    wl_params = {
        "n_ranks": workload.n_ranks,
        "tasks_per_node": workload.tasks_per_node,
        "calls": workload.calls,
        "compute_between_us": workload.compute_between_us,
        "time_compression": workload.time_compression,
    }
    forced = dict((("name", policy),) + tuple(policy_params)) if policy else None
    suffix = ("-quick" if quick else "") + (f"-p{policy}" if policy else "")
    extra: dict = {"policy": forced} if forced else {}
    seed_list = tuple(range(seed_base, seed_base + seeds))
    specs = [
        TrialSpec(
            key=f"chaos-s{seed}{suffix}",
            fn="repro.chaos.campaign:_chaos_trial",
            params={"seed": seed, "workload": wl_params} | extra,
        )
        for seed in seed_list
    ]
    runner = TrialRunner(jobs=jobs, journal=journal, trial_timeout_s=trial_timeout_s)
    outcomes = runner.run(specs)

    records = []
    for seed, outcome in zip(seed_list, outcomes):
        if outcome.ok:
            records.append(outcome.record)
        else:
            # A trial-level error (crash/timeout in the harness, not an
            # oracle verdict) still counts as a failed seed.
            records.append(
                {"seed": seed, "ok": False, "failed": ["error"],
                 "error": outcome.error, "n_entries": None, "entries": None}
            )

    shrunk: list = []
    corpus_paths: list = []
    if shrink:
        for record in records:
            if record.get("ok", False) or record.get("entries") is None:
                continue
            primary = next(
                (f for f in ORACLES if f in record["failed"]), None
            )
            if primary is None:
                continue
            schedule = ChaosSchedule(
                seed=record["seed"],
                workload=workload,
                entries=tuple(record["entries"]),
            )
            result = shrink_schedule(schedule, primary, budget=shrink_budget)
            shrunk.append((record["seed"], primary, result))
            if corpus_out:
                path = save_corpus_entry(
                    corpus_out, result.schedule, primary, quick=quick
                )
                corpus_paths.append(path)

    return ChaosCampaignResult(
        seeds=seed_list,
        records=tuple(records),
        shrunk=tuple(shrunk),
        corpus_paths=tuple(corpus_paths),
    )


# ----------------------------------------------------------------------
# Regression corpus: minimized counterexamples, replayable under pytest
# ----------------------------------------------------------------------


def save_corpus_entry(
    corpus_dir: str,
    schedule: ChaosSchedule,
    primary_failure: Optional[str],
    *,
    quick: bool = False,
    note: str = "",
) -> str:
    """Write one corpus entry: a minimized counterexample, or (with
    ``primary_failure=None``) a survival regression — a hard schedule the
    system is expected to ride out cleanly.

    The file records the exact schedule, the expected oracle verdict, and
    the planted-bug environment it reproduces under (so fixed-bug
    regressions replay with the bug re-enabled, while real-bug entries
    replay in a clean environment).
    """
    entry = {
        "schedule": schedule.to_json(),
        "expect": {
            "ok": primary_failure is None,
            "failed": [primary_failure] if primary_failure else [],
        },
        "demo_bug": os.environ.get(_BUG_ENV, ""),
        "note": note or (
            f"seed {schedule.seed} minimized to {len(schedule.entries)} "
            f"entries; fails {primary_failure}"
            if primary_failure
            else f"seed {schedule.seed}: {len(schedule.entries)} entries, survives"
        ),
        "quick": quick,
    }
    os.makedirs(corpus_dir, exist_ok=True)
    stem = primary_failure or "ok"
    name = f"{stem}-s{schedule.seed}{'-quick' if quick else ''}.json"
    path = os.path.join(corpus_dir, name)
    with open(path, "w") as fh:
        json.dump(entry, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_corpus_entry(path: str) -> dict:
    """Read one corpus JSON file; the schedule comes back reconstructed."""
    with open(path) as fh:
        entry = json.load(fh)
    entry["schedule"] = ChaosSchedule.from_json(entry["schedule"])
    return entry


def replay_corpus_entry(path: str) -> tuple:
    """Re-judge a corpus entry; return ``(matches_expectation, report)``.

    The caller owns the :data:`~repro.faults.demo.ENV_VAR` environment —
    the pytest replay sets it from the entry's ``demo_bug`` field before
    calling this (monkeypatched, so entries cannot leak bugs into each
    other).
    """
    entry = load_corpus_entry(path)
    report = judge(entry["schedule"])
    expect = entry["expect"]
    matches = report.ok == expect["ok"] and set(expect["failed"]) <= set(report.failed)
    return matches, report


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def format_chaos(result: ChaosCampaignResult) -> str:
    """Human-readable verdict table for one campaign."""
    lines = [
        "E10: chaos campaign — randomized fault schedules vs. the oracle suite",
        "",
        f"  {'seed':>6}  {'entries':>7}  {'verdict':<24} detail",
        "  " + "-" * 66,
    ]
    for r in result.records:
        verdict = "ok" if r.get("ok") else "FAIL: " + ",".join(r.get("failed", []))
        detail = ""
        d = r.get("details") or {}
        if r.get("ok"):
            detail = (
                f"elapsed {d.get('elapsed_us', 0.0) / 1e3:.1f} ms"
                f" / bound {d.get('bound_us', 0.0) / 1e3:.1f} ms"
            )
        elif r.get("error"):
            detail = r["error"]
        elif d.get("violations"):
            detail = d["violations"][0]
        elif not d.get("completed", True):
            detail = f"did not finish within {d.get('bound_us', 0.0) / 1e3:.1f} ms"
        n = r.get("n_entries")
        lines.append(
            f"  {r['seed']:>6}  {('?' if n is None else n):>7}  {verdict:<24} {detail}"
        )
    n_fail = len(result.failures)
    lines.append("")
    lines.append(
        f"  {len(result.records)} seeds: {len(result.records) - n_fail} ok, {n_fail} failing"
    )
    for seed, primary, sr in result.shrunk:
        lines.append(
            f"  shrunk seed {seed} ({primary}): {sr.original_entries} -> "
            f"{sr.minimized_entries} entries in {sr.evals} oracle evals"
        )
    for path in result.corpus_paths:
        lines.append(f"  corpus: {path}")
    return "\n".join(lines)
