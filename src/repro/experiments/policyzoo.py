"""E13: policy ablation — the dispatch-policy zoo under the paper's workload.

The paper's whole argument is that *scheduling semantics* — not raw CPU
speed — decide whether a parallel job scales: AIX's priority dispatcher
lets a spinning MPI rank starve the very daemons whose work it is
spinning on.  With the dispatch core extracted behind
:class:`repro.kernel.policy.SchedPolicy`, that claim becomes directly
testable: run the same compute+Allreduce workload, same noise ecology,
same co-scheduler, and swap only the node dispatch policy.

For each (policy, cluster size) cell this experiment runs the DES at
compressed time and reports the Figure-4-style statistics (mean / median
/ max Allreduce latency) plus the *slowdown* against the noise-free
analytic prediction — the same yardstick Fig 4 and the chaos liveness
oracle anchor on.  Priority-blind policies (``fair``, ``quantum``,
``lottery``) time-share the CPU between ranks and daemons instead of
letting favored-priority ranks monopolize it, so they trade the paper's
interference tail for a different cost structure; the table makes that
trade visible per cluster size.

Every (policy, size) cell is one :class:`~repro.experiments.runner.
TrialSpec`, so the campaign inherits ``--jobs`` fan-out, journal resume,
and byte-identical serial-vs-parallel results; each record carries a
digest of its duration series so repeat runs are checkable bit-for-bit.

Scale note: DES at reduced scale with E8's time compression, on the
machine :func:`~repro.experiments.common.compressed_cosched_config`
builds for E8 and the chaos oracles too, with only the policy swapped.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analytic.model import AllreduceSeriesModel
from repro.apps.aggregate_trace import AggregateTraceConfig, run_aggregate_trace
from repro.config import NoiseConfig
from repro.experiments.common import compressed_cosched_config
from repro.experiments.reporting import text_table
from repro.experiments.runner import TrialRunner, TrialSpec
from repro.kernel.policy import policy_names, validate_policy
from repro.results import register_result
from repro.system import System

__all__ = ["PolicyZooResult", "run_policyzoo", "format_policyzoo"]

#: Cluster sizes (MPI ranks) of the ablation columns; 8 tasks/node.
SIZES = (8, 16, 32)
SIZES_QUICK = (8, 16)


def _series_digest(durations) -> str:
    """Deterministic fingerprint of a duration series (repr of each
    float — exact, not rounded — so any drift shows)."""
    h = hashlib.sha256()
    for d in durations:
        h.update(repr(float(d)).encode())
    return h.hexdigest()[:16]


def _policy_trial(params: dict) -> dict:
    """Run one (policy, size) cell: the aggregate_trace workload on a
    system whose node dispatch policy is *params["policy"]*.

    Top-level and pure per the TrialRunner contract; returns plain JSON
    including the series digest the determinism checks compare.
    """
    cfg = compressed_cosched_config(
        params["n_ranks"],
        params["tpn"],
        params["seed"],
        params["time_compression"],
        policy=(params["policy"], tuple(tuple(p) for p in params["policy_params"])),
    )
    system = System(cfg)
    res = run_aggregate_trace(
        system,
        params["n_ranks"],
        params["tpn"],
        AggregateTraceConfig(
            calls_per_loop=params["calls"],
            compute_between_us=params["compute_between_us"],
        ),
    )
    sample = res.sorted_node0_sample()
    return {
        "mean_us": res.mean_us,
        "median_us": res.median_us,
        "max_us": float(sample[-1]),
        "elapsed_us": res.elapsed_us,
        "values_ok": bool(res.values_ok),
        "digest": _series_digest(sample),
        "events_processed": system.sim.events_processed,
    }


@register_result
@dataclass
class PolicyZooResult:
    """The ablation grid: per-policy rows over the size columns."""

    policies: tuple  # row order
    sizes: tuple  # ranks per column
    #: policy -> [mean_us per size], etc.
    mean_us: dict
    median_us: dict
    max_us: dict
    values_ok: dict  # policy -> [bool per size]
    digests: dict  # policy -> [series digest per size]
    #: Noise-free analytic prediction per size (µs) — the slowdown anchor.
    reference_us: tuple
    tpn: int
    calls: int
    seed: int
    time_compression: float

    def slowdown(self, policy: str) -> list:
        """Mean latency over the noise-free prediction, per size."""
        return [
            m / ref for m, ref in zip(self.mean_us[policy], self.reference_us)
        ]


def run_policyzoo(
    policies: Optional[Sequence[str]] = None,
    sizes: Optional[Sequence[int]] = None,
    tpn: int = 8,
    calls: int = 220,
    compute_between_us: float = 200.0,
    seed: int = 13,
    time_compression: float = 50.0,
    quick: bool = False,
    runner: Optional[TrialRunner] = None,
) -> PolicyZooResult:
    """Run the policy × size ablation grid.

    Defaults cover every registered policy at :data:`SIZES`; pass
    *policies* to pin the sweep to a subset (the CLI's ``--policy``).
    Deterministic end to end: the grid depends only on the arguments,
    never on *runner* (``None``: serial) or resume state.
    """
    if policies is None:
        policies = policy_names()
    for name in policies:
        validate_policy(name)  # fail loudly before any DES time is spent
    if sizes is None:
        sizes = SIZES_QUICK if quick else SIZES
    if quick:
        calls = min(calls, 120)

    specs = [
        TrialSpec(
            key=f"policyzoo-{policy}-n{n}-s{seed}" + ("-quick" if quick else ""),
            fn="repro.experiments.policyzoo:_policy_trial",
            params=dict(
                policy=policy,
                policy_params=[],
                n_ranks=n,
                tpn=tpn,
                calls=calls,
                compute_between_us=compute_between_us,
                seed=seed,
                time_compression=time_compression,
            ),
        )
        for policy in policies
        for n in sizes
    ]
    outcomes = (runner or TrialRunner()).run(specs)
    cells = {
        (spec.params["policy"], spec.params["n_ranks"]): outcome.require()
        for spec, outcome in zip(specs, outcomes)
    }

    # Noise-free analytic prediction per size (aix semantics — the model
    # predates the zoo; it is the common yardstick, not a per-policy fit).
    reference = []
    for n in sizes:
        quiet = compressed_cosched_config(n, tpn, seed, time_compression).replace(
            noise=NoiseConfig()
        )
        model = AllreduceSeriesModel(quiet, n, tpn, seed=seed)
        reference.append(model.run_series(32, compute_between_us=0.0).median_us)

    def column(field: str) -> dict:
        return {
            p: [cells[(p, n)][field] for n in sizes] for p in policies
        }

    return PolicyZooResult(
        policies=tuple(policies),
        sizes=tuple(sizes),
        mean_us=column("mean_us"),
        median_us=column("median_us"),
        max_us=column("max_us"),
        values_ok=column("values_ok"),
        digests=column("digest"),
        reference_us=tuple(reference),
        tpn=tpn,
        calls=calls,
        seed=seed,
        time_compression=time_compression,
    )


def format_policyzoo(res: PolicyZooResult) -> str:
    """Render the ablation grid, one table per cluster size."""
    parts = [
        "E13: policy ablation — dispatch-policy zoo, same workload/noise/"
        "co-scheduler",
        "",
    ]
    for col, n in enumerate(res.sizes):
        rows = []
        for p in res.policies:
            rows.append(
                (
                    p,
                    res.mean_us[p][col],
                    res.median_us[p][col],
                    res.max_us[p][col],
                    f"{res.mean_us[p][col] / res.reference_us[col]:.2f}x",
                    "ok" if res.values_ok[p][col] else "BAD VALUES",
                )
            )
        parts.append(
            text_table(
                ["policy", "mean_us", "median_us", "max_us", "slowdown", "values"],
                rows,
                title=(
                    f"{n} ranks x {res.tpn}/node "
                    f"(noise-free prediction {res.reference_us[col]:.0f} us, "
                    f"compressed {res.time_compression:.0f}x)"
                ),
                floatfmt="{:.1f}",
            )
        )
    parts.append(
        "slowdown = mean / noise-free analytic prediction (the Fig 4 "
        "yardstick).  The aix dispatcher\nkeeps favored ranks on-CPU "
        "(paper semantics); priority-blind policies time-share ranks\n"
        "against daemons and spinners, trading the interference tail for "
        "fair-share latency.\n"
    )
    return "\n".join(parts)
