"""``pdes`` CLI command: one fig4-style run with a printable digest.

Run the aggregate-trace workload on the serial DES, optionally with the
mean-field fast path, print the run's result digest, and optionally
write the digest to a file.  The digest covers exactly the rank-visible
outcome (per-call durations of the recorded ranks, reduction integrity,
makespan; :func:`repro.results.rank_digest`), so ``tests/test_contract.py``
compares the digest file with one golden.  A human debugging a
determinism regression does the same by hand.  The command keeps its
name so the contract keys and scripts that name it stay valid; the
parallel-DES engine (:mod:`repro.sim.parallel`) serves only the
benchmark (``perfbench``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.aggregate_trace import (
    AggregateTraceConfig,
    AggregateTraceResult,
    run_aggregate_trace,
)
from repro.daemons.catalog import scale_noise, standard_noise
from repro.experiments.common import VANILLA16, make_config
from repro.results import register_result
from repro.sim.meanfield import MeanFieldConfig
from repro.system import System

__all__ = ["PdesResult", "run_trace", "run_pdes", "format_pdes"]

TIME_COMPRESSION = 50.0


@register_result
@dataclass
class PdesResult:
    """One run's digest and event count."""

    n_ranks: int
    n_nodes: int
    meanfield_batch: int
    calls: int
    digest: str
    events: int
    elapsed_us: float
    ok: bool


def run_trace(
    n_ranks: int,
    calls: int,
    compute_between_us: float = 20000.0,
    meanfield: MeanFieldConfig | None = None,
    seed: int = 1234,
) -> tuple[System, AggregateTraceResult]:
    """The one recipe for a noisy aggregate-trace run (``pdes``, E14).

    Vanilla kernel at 16 tasks/node, the standard daemon ecology
    compressed :data:`TIME_COMPRESSION`-fold without cron, one 8-byte
    Allreduce every *compute_between_us*, node 0 recorded.  *meanfield*
    is passed through as given: ``MeanFieldConfig(batch=1)`` still runs
    the mean-field code path, which is what E14's oracle checks.
    Returns the system, stopped at the job's finish, and the result.
    """
    noise = scale_noise(standard_noise(include_cron=False), TIME_COMPRESSION)
    system = System(
        make_config(VANILLA16, n_ranks=n_ranks, noise=noise, seed=seed), meanfield=meanfield
    )
    result = run_aggregate_trace(
        system, n_ranks, VANILLA16.tasks_per_node,
        AggregateTraceConfig(calls_per_loop=calls, compute_between_us=compute_between_us),
    )
    return system, result


def run_pdes(quick: bool = False, meanfield_batch: int = 0, seed: int = 1234) -> PdesResult:
    """Run the fig4-style workload, exact or with mean-field batch
    *meanfield_batch* (node 0 exempt)."""
    n_ranks, calls = (64, 8) if quick else (256, 48)
    system, r = run_trace(
        n_ranks,
        calls,
        meanfield=(
            MeanFieldConfig(batch=meanfield_batch, exempt_nodes=(0,))
            if meanfield_batch > 1
            else None
        ),
        seed=seed,
    )
    return PdesResult(
        n_ranks=n_ranks,
        n_nodes=system.config.machine.n_nodes,
        meanfield_batch=meanfield_batch,
        calls=calls,
        digest=r.digest,
        events=system.sim.events_processed,
        elapsed_us=r.elapsed_us,
        ok=r.values_ok,
    )


def format_pdes(res: PdesResult) -> str:
    """Human-readable run summary; the digest line is the tripwire."""
    return (
        f"pdes: {res.n_ranks} ranks on {res.n_nodes} nodes, {res.calls} Allreduce calls"
        + (f", mean-field batch {res.meanfield_batch}" if res.meanfield_batch > 1 else "")
        + "\n"
        f"  events       : {res.events}\n"
        f"  sim elapsed  : {res.elapsed_us / 1e3:.1f} ms   "
        f"values {'OK' if res.ok else 'BAD'}\n"
        f"  digest       : {res.digest}"
    )
