#!/usr/bin/env python
"""Co-located parallel jobs: why coordination granularity matters.

The paper situates its dedicated-job co-scheduler against *gang
schedulers* (§6, category 1) — systems that multi-program several parallel
jobs by rotating whole-machine time slots.  This example shows both sides
of that story:

1. two fine-grain Allreduce jobs timesharing the same CPUs with no
   coordination: every collective waits for straggler ranks that happen
   to be descheduled, and per-operation latency explodes;
2. the same pair under gang scheduling: clean collectives inside each
   slot;
3. the limit the paper pushes past: even a gang-scheduled (or dedicated)
   job still suffers the *intra-slot* interference of daemons and ticks —
   which is what the prototype kernel + co-scheduler attack.

Run:  python examples/multijob_gang.py
"""

import numpy as np

from repro import ClusterConfig, KernelConfig, MachineConfig, MpiConfig
from repro.apps.aggregate_trace import AggregateTraceConfig, aggregate_trace_body
from repro.cosched.gang import GangConfig, GangScheduler
from repro.machine import Cluster
from repro.mpi.world import MpiJob, run_jobs
from repro.units import format_time, ms, s

N_RANKS, TPN, CALLS = 16, 8, 200


def run_pair(label: str, gang: GangConfig | None) -> None:
    cluster = Cluster(
        ClusterConfig(
            machine=MachineConfig(n_nodes=2, cpus_per_node=8),
            mpi=MpiConfig(progress_threads_enabled=False),
            kernel=KernelConfig(),
            seed=17,
        )
    )
    placement = cluster.place(N_RANKS, TPN)
    sinks, jobs = [], []
    for j in range(2):
        sink: dict = {}
        sinks.append(sink)
        body = aggregate_trace_body(
            AggregateTraceConfig(calls_per_loop=CALLS, compute_between_us=200.0),
            sink,
            node0_ranks=set(),
        )
        jobs.append(MpiJob(cluster, placement, body, config=cluster.config.mpi, name=f"job{j}"))
    if gang is not None:
        GangScheduler(cluster, jobs, gang)
    run_jobs(jobs, horizon_us=s(300))
    per_op = float(np.mean([np.mean(sink[0][0]) for sink in sinks]))
    makespan = max(job.finish_time for job in jobs)
    print(
        f"{label:<32} mean allreduce {format_time(per_op):>10}   "
        f"makespan {format_time(makespan):>10}"
    )


def main() -> None:
    print(f"Two {N_RANKS}-rank Allreduce jobs sharing the same 16 CPUs\n")
    run_pair("uncoordinated timeshare", None)
    run_pair("gang scheduled (200 ms slots)", GangConfig(slot_us=ms(200)))
    print(
        "\nGang slots fix *inter-job* interference; the paper's co-scheduler"
        "\ntargets what remains inside a slot — daemons and ticks against a"
        "\nsingle dedicated job (see examples/quickstart.py)."
    )


if __name__ == "__main__":
    main()
