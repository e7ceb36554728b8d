"""The ``aggregate_trace`` synthetic benchmark (paper §5.1).

"In this particular code, three loops are done where the timings of 4096
MPI_Allreduce calls were measured.  In addition to the overall timings, a
call to AIX trace was done before and after every 64th call to
MPI_Allreduce."  The 64-call blocks give a statistical picture: some
blocks catch interference, some don't.

This module reproduces that structure.  Call counts are configurable so
test-scale runs stay fast; the paper-scale defaults are preserved as
:data:`PAPER_CONFIG`.  Per-call durations are recorded for every rank on
node 0 (the "trace one node of a big run" methodology behind Figure 4)
and for rank 0 globally, with rank 0's call start times, so a trace
attribution examines each call's exact window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kernel.thread import Compute
from repro.mpi.world import MpiApi
from repro.results import rank_digest
from repro.system import System
from repro.units import s, us

__all__ = [
    "AggregateTraceConfig",
    "AggregateTraceResult",
    "PAPER_CONFIG",
    "aggregate_trace_body",
    "run_aggregate_trace",
    "sharded_app",
]


@dataclass(frozen=True)
class AggregateTraceConfig:
    loops: int = 1
    calls_per_loop: int = 128
    #: Trace mark (AIX `trace` hook analogue) every this many calls.
    trace_block: int = 64
    #: Light work between Allreduce calls ("the sorts of tasks programs may
    #: perform in the section of code where they use MPI_Allreduce").
    compute_between_us: float = us(200)
    payload_bytes: int = 8

    def __post_init__(self) -> None:
        if self.loops < 1 or self.calls_per_loop < 1:
            raise ValueError("loops and calls_per_loop must be >= 1")

    @property
    def total_calls(self) -> int:
        return self.loops * self.calls_per_loop


#: The configuration the paper actually ran (3 × 4096 calls).
PAPER_CONFIG = AggregateTraceConfig(loops=3, calls_per_loop=4096)


@dataclass
class AggregateTraceResult:
    """Timings and integrity check from one run."""

    #: Per-call Allreduce durations (µs) observed by rank 0, all loops.
    durations_us: np.ndarray
    #: rank -> per-call durations for every rank placed on node 0.
    node0_durations_us: dict[int, np.ndarray]
    #: Per-call Allreduce start times (µs) on rank 0, all loops.
    starts_us: np.ndarray
    elapsed_us: float
    n_ranks: int
    config: AggregateTraceConfig
    #: All reduction results matched the expected value.
    values_ok: bool

    @property
    def mean_us(self) -> float:
        return float(np.mean(self.durations_us))

    @property
    def median_us(self) -> float:
        return float(np.median(self.durations_us))

    @property
    def max_us(self) -> float:
        return float(np.max(self.durations_us))

    @property
    def min_us(self) -> float:
        return float(np.min(self.durations_us))

    @property
    def digest(self) -> str:
        """The rank-visible outcome's digest (:func:`repro.results.rank_digest`
        over node 0's ranks, rank 0 among them), equal to the sharded
        engine's for the same run."""
        ranks = {str(r): d.tolist() for r, d in self.node0_durations_us.items()}
        return rank_digest(self.n_ranks, ranks, self.values_ok, self.elapsed_us)

    def call_windows(self) -> list[tuple[float, float]]:
        """Rank 0's per-call ``(start, end)`` windows, the spans a trace
        attribution examines."""
        starts, durations = self.starts_us.tolist(), self.durations_us.tolist()
        return [(t0, t0 + d) for t0, d in zip(starts, durations)]

    def sorted_node0_sample(self) -> np.ndarray:
        """All node-0 per-call durations, sorted ascending — the Figure 4
        presentation (448 sorted Allreduce times from one node)."""
        if not self.node0_durations_us:
            return np.sort(self.durations_us)
        return np.sort(np.concatenate(list(self.node0_durations_us.values())))


def aggregate_trace_body(config: AggregateTraceConfig, sink: dict, node0_ranks: set[int]):
    """Body factory; ranks deposit duration arrays into *sink*."""
    # One request for every rank's work between calls: requests are frozen.
    work = Compute(config.compute_between_us) if config.compute_between_us > 0 else None

    def factory(rank: int, api: MpiApi):
        sim = api.world.cluster.sim
        record = rank == 0 or rank in node0_ranks
        durations = [] if record else None
        starts = [] if rank == 0 else None
        expected = None
        ok = True
        for loop in range(config.loops):
            for i in range(config.calls_per_loop):
                if i % config.trace_block == 0:
                    api.trace_mark("aggr.block", payload=(loop, i))
                if work is not None:
                    yield work
                t0 = sim.now
                if starts is not None:
                    starts.append(t0)
                v = yield from api.allreduce(1.0, nbytes=config.payload_bytes)
                if record:
                    durations.append(sim.now - t0)
                if expected is None:
                    expected = float(api.size)
                if v != expected:
                    ok = False
            api.trace_mark("aggr.loop_end", payload=loop)
        if starts is not None:
            sink["starts"] = np.asarray(starts, dtype=float)
        if record:
            sink[rank] = (np.asarray(durations, dtype=float), ok)
        elif not ok:
            sink.setdefault("bad_values", []).append(rank)

    return factory


def sharded_app(params: dict):
    """Parallel-DES app provider (``repro.apps.aggregate_trace:sharded_app``).

    Referenced by name from :func:`repro.sim.parallel.run_parallel` so the
    spec stays picklable across shard workers.  *params* feeds
    :class:`AggregateTraceConfig` (``loops``, ``calls_per_loop``,
    ``trace_block``, ``compute_between_us``, ``payload_bytes``) plus
    ``record_nodes`` — the nodes whose ranks' per-call durations enter the
    result digest (default node 0, the Figure-4 methodology).  Rank 0
    always records.  Each shard collects only the ranks it simulated; the
    coordinator merges the per-shard dicts.
    """
    cfg_keys = ("loops", "calls_per_loop", "trace_block", "compute_between_us", "payload_bytes")
    cfg = AggregateTraceConfig(**{k: params[k] for k in cfg_keys if k in params})
    record_nodes = frozenset(params.get("record_nodes", (0,)))
    sink: dict = {}

    def body_factory(rank: int, api: MpiApi):
        node = api.world.placement.node_of(rank)
        recording = {rank} if (rank == 0 or node in record_nodes) else set()
        return aggregate_trace_body(cfg, sink, recording)(rank, api)

    def collect() -> dict:
        ranks = {
            str(r): [float(x) for x in sink[r][0]]
            for r in sink
            if isinstance(r, int)
        }
        ok = all(sink[r][1] for r in sink if isinstance(r, int))
        ok = ok and "bad_values" not in sink
        return {"ranks": ranks, "ok": ok}

    class _App:
        pass

    app = _App()
    app.body_factory = body_factory
    app.collect = collect
    return app


def run_aggregate_trace(
    system: System,
    n_ranks: int,
    tasks_per_node: int,
    config: AggregateTraceConfig | None = None,
    horizon_us: float = s(600),
) -> AggregateTraceResult:
    """Run the benchmark to completion and collect results."""
    cfg = config if config is not None else AggregateTraceConfig()
    placement = system.cluster.place(n_ranks, tasks_per_node)
    node0_ranks = {r for r in range(n_ranks) if placement.node_of(r) == 0}
    sink: dict = {}
    job = system.launch(n_ranks, tasks_per_node, aggregate_trace_body(cfg, sink, node0_ranks), name="aggr")
    elapsed = job.run(horizon_us=horizon_us)
    durations0, ok0 = sink[0]
    node0 = {r: sink[r][0] for r in node0_ranks if r in sink}
    values_ok = ok0 and all(sink[r][1] for r in node0_ranks if r in sink) and "bad_values" not in sink
    return AggregateTraceResult(
        durations_us=durations0,
        node0_durations_us=node0,
        starts_us=sink["starts"],
        elapsed_us=elapsed,
        n_ranks=n_ranks,
        config=cfg,
        values_ok=values_ok,
    )
