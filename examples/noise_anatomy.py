#!/usr/bin/env python
"""Noise anatomy: trace a node, find slow collectives, name the culprits.

Reproduces the paper's §5.3 investigation workflow (their Figure 4) on the
discrete-event simulator:

1. run ``aggregate_trace`` on a vanilla-kernel cluster with the full daemon
   ecology plus a pinned administrative cron hit;
2. record every dispatch interval on node 0 with the trace recorder (the
   AIX ``trace`` facility analogue);
3. sort the per-call Allreduce times, pick the outliers, and attribute the
   CPU time inside each slow window to the daemons that consumed it.

Run:  python examples/noise_anatomy.py
"""

import numpy as np

from repro import (
    AggregateTraceConfig,
    ClusterConfig,
    MachineConfig,
    System,
    TraceRecorder,
    run_aggregate_trace,
    scale_noise,
    standard_noise,
)
from repro.daemons.catalog import cron_health_check
from repro.config import NoiseConfig
from repro.trace import explain_outliers
from repro.units import format_time, ms

TIME_SCALE = 40.0
N_RANKS, TASKS_PER_NODE, CALLS = 32, 16, 448


def main() -> None:
    # Full ecology, compressed; pin one cron burst mid-run (its real
    # 15-minute period would never land inside a seconds-long window).
    noise = scale_noise(standard_noise(include_cron=False), TIME_SCALE)
    noise = NoiseConfig(
        daemons=noise.daemons + (cron_health_check(phase_us=ms(60), service_us=ms(120)),)
    )
    trace = TraceRecorder(enabled=True, nodes=[0])
    config = ClusterConfig(
        machine=MachineConfig(n_nodes=2, cpus_per_node=16), noise=noise, seed=7
    )
    system = System(config, trace=trace)
    result = run_aggregate_trace(
        system,
        N_RANKS,
        TASKS_PER_NODE,
        AggregateTraceConfig(calls_per_loop=CALLS, compute_between_us=150.0),
    )

    durs = result.node0_durations_us[0]
    ordered = np.sort(durs)
    print(f"{CALLS} Allreduce calls on rank 0 (node 0), {N_RANKS} ranks, vanilla kernel")
    for q, v in zip(
        ("min", "p25", "median", "p75", "p90", "p99", "max"),
        np.percentile(ordered, [0, 25, 50, 75, 90, 99, 100]),
    ):
        print(f"  {q:>6}: {format_time(float(v)):>10}")
    print(
        f"  slowest call = {100 * ordered[-1] / ordered.sum():.1f}% of total "
        f"(paper: the cron outlier alone exceeded half)"
    )

    # Attribute the slow calls among rank 0's call windows.
    threshold = float(np.median(durs)) * 4.0
    windows = result.call_windows()
    print(f"\nOutliers (> {format_time(threshold)}) and the CPU thieves inside them:")
    for idx, dur, top in explain_outliers(trace, windows, node=0, threshold_us=threshold)[:8]:
        culprits = ", ".join(f"{name} ({format_time(cpu)})" for name, cpu in top)
        print(f"  call {idx:4d}  {format_time(dur):>10}  <- {culprits}")


if __name__ == "__main__":
    main()
