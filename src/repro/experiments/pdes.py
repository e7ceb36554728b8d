"""``pdes`` CLI command: one sharded fig4-style run with a printable digest.

This is the operational face of :mod:`repro.sim.parallel`: run the
aggregate-trace workload under conservative parallel DES with ``--shards
N``, print the run's result digest, and optionally write the digest to a
file.  The digest covers exactly the rank-visible outcome (per-call
durations of the recorded ranks, reduction integrity, makespan), which
the engine guarantees is shard-count invariant — so
``tests/test_contract.py`` runs it at 1, 2 and worker-killed shards and
compares each digest file with one golden.
A human debugging a determinism regression does the same by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ClusterConfig
from repro.daemons.catalog import scale_noise, standard_noise
from repro.experiments.common import VANILLA16, make_config
from repro.results import register_result
from repro.sim.meanfield import MeanFieldConfig
from repro.sim.parallel import ParallelRunResult, run_parallel
from repro.units import s

__all__ = ["PdesResult", "run_sharded_trace", "run_pdes", "format_pdes"]

APP = "repro.apps.aggregate_trace:sharded_app"
TIME_COMPRESSION = 50.0


@register_result
@dataclass
class PdesResult:
    """One sharded run's digest and superstep/transport accounting."""

    n_ranks: int
    n_nodes: int
    shards: int
    meanfield_batch: int
    calls: int
    digest: str
    events_per_shard: list
    messages_crossed: int
    supersteps: int
    lookahead_us: float
    elapsed_us: float
    ok: bool
    wall_s: float
    #: Shard-worker crash/hang recoveries (respawn + replay); an
    #: execution-substrate fact, excluded from the digest.
    recoveries: int = 0


def run_sharded_trace(
    n_ranks: int,
    calls: int,
    compute_between_us: float = 20000.0,
    shards: int = 1,
    meanfield: MeanFieldConfig | None = None,
    seed: int = 1234,
    use_processes: bool | None = None,
    shard_chaos_seed: int | None = None,
) -> tuple[ClusterConfig, ParallelRunResult]:
    """The one recipe for a sharded aggregate-trace run (``pdes``, E14).

    Vanilla kernel at 16 tasks/node, the standard daemon ecology
    compressed :data:`TIME_COMPRESSION`-fold without cron, one 8-byte
    Allreduce every *compute_between_us*, node 0 recorded.  *meanfield*
    is passed through as given: ``MeanFieldConfig(batch=1)`` still runs
    the mean-field code path, which is what E14's oracle checks.
    Returns the config that ran and the merged result (whose ``wall_s``
    times the run itself).
    """
    noise = scale_noise(standard_noise(include_cron=False), TIME_COMPRESSION)
    config = make_config(VANILLA16, n_ranks=n_ranks, noise=noise, seed=seed)
    params = dict(
        loops=1,
        calls_per_loop=calls,
        trace_block=64,
        compute_between_us=compute_between_us,
        payload_bytes=8,
        record_nodes=(0,),
    )
    result = run_parallel(
        config,
        n_ranks=n_ranks,
        tasks_per_node=16,
        app=APP,
        app_params=params,
        shards=shards,
        horizon_us=s(600),
        meanfield=meanfield,
        use_processes=use_processes,
        shard_chaos_seed=shard_chaos_seed,
        respawn_backoff_s=0.01 if shard_chaos_seed is not None else 0.05,
    )
    return config, result


def run_pdes(
    shards: int = 1,
    quick: bool = False,
    meanfield_batch: int = 0,
    seed: int = 1234,
    use_processes: bool | None = None,
    shard_chaos_seed: int | None = None,
) -> PdesResult:
    """Run the fig4-style workload under *shards*-way parallel DES.

    *shard_chaos_seed* arms the ``harness.shard.kill`` axis: shard
    workers are SIGKILLed on their deterministic plans and recovered by
    respawn + replay — the printed digest must still match a clean run's
    (checked by ``tests/test_contract.py``).  Forces forked
    workers, since in-process shards have nothing to kill.
    """
    if shard_chaos_seed is not None and use_processes is None:
        use_processes = True
    n_ranks, calls = (64, 8) if quick else (256, 48)
    config, r = run_sharded_trace(
        n_ranks,
        calls,
        shards=shards,
        meanfield=(
            MeanFieldConfig(batch=meanfield_batch, exempt_nodes=(0,))
            if meanfield_batch > 1
            else None
        ),
        seed=seed,
        use_processes=use_processes,
        shard_chaos_seed=shard_chaos_seed,
    )
    return PdesResult(
        n_ranks=n_ranks,
        n_nodes=config.machine.n_nodes,
        shards=shards,
        meanfield_batch=meanfield_batch,
        calls=calls,
        digest=r.digest,
        events_per_shard=list(r.events_per_shard),
        messages_crossed=r.messages_crossed,
        supersteps=r.supersteps,
        lookahead_us=r.lookahead_us,
        elapsed_us=r.elapsed_us,
        ok=r.ok,
        wall_s=r.wall_s,
        recoveries=r.recoveries,
    )


def format_pdes(res: PdesResult) -> str:
    """Human-readable run summary; the digest line is the tripwire."""
    return (
        f"pdes: {res.n_ranks} ranks on {res.n_nodes} nodes across "
        f"{res.shards} shard(s), {res.calls} Allreduce calls"
        + (f", mean-field batch {res.meanfield_batch}" if res.meanfield_batch > 1 else "")
        + "\n"
        f"  events/shard : {res.events_per_shard}\n"
        f"  supersteps   : {res.supersteps} "
        f"(lookahead {res.lookahead_us:g} us, "
        f"{res.messages_crossed} cross-shard messages)\n"
        + (
            f"  recoveries   : {res.recoveries} shard-worker respawns\n"
            if res.recoveries
            else ""
        )
        + f"  sim elapsed  : {res.elapsed_us / 1e3:.1f} ms   "
        f"wall {res.wall_s:.1f} s   values {'OK' if res.ok else 'BAD'}\n"
        f"  digest       : {res.digest}"
    )
