"""CI perf smoke: quick runs pinned to golden event counts and digests.

Engine optimisations in this repo are held to a bit-identical-results
contract: faster, but the same events in the same order producing the same
floats.  This script enforces that in CI at ``--quick`` scale:

* a reduced cluster DES run — ``events_processed`` and a digest of the
  per-rank completion times;
* a reduced Figure-4 run — a digest of the sorted Allreduce durations and
  the named slowest-outlier culprit;
* the analytic model at sweep settings, co-scheduled and not, at a small
  and a paper-scale size — a digest of the per-call durations;
* a reduced co-scheduled DES run (prototype kernel, priority cycling,
  IPIs, long polling) — ``events_processed``, a digest of node 0's
  per-call durations plus the elapsed time, and the co-scheduler's cycle
  count, which must be at least one.

Both DES runs stop at the job's finish; each then also resumes its
simulator to t = 1 s and records the lifetime count as ``events_to_1s``.

Any drift fails the job.  When a change *legitimately* alters results
(a model change, not an engine change), regenerate the golden with::

    PYTHONPATH=src python benchmarks/perf_smoke.py --record

and say why in the commit message.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_perf_smoke.json")


def _digest(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _events_resumed_to_1s(system) -> int:
    """Resume a run that stopped at its job's finish to t = 1 s and return
    the lifetime event count: the count the runs had when ``MpiJob.run``
    advanced in 1-s chunks, so the events fired up to the finish are
    pinned as a prefix of that longer sequence."""
    from repro.units import s

    system.sim.run_until(s(1))
    return system.sim.events_processed


def smoke_cluster_des() -> dict:
    """Full-stack DES under x30 daemon noise: 32 ranks on 2 nodes, 80 calls."""
    from repro.apps.aggregate_trace import AggregateTraceConfig, run_aggregate_trace
    from repro.config import ClusterConfig, MachineConfig, MpiConfig
    from repro.daemons.catalog import scale_noise, standard_noise
    from repro.system import System

    cfg = ClusterConfig(
        machine=MachineConfig(n_nodes=2, cpus_per_node=16),
        mpi=MpiConfig(progress_threads_enabled=False),
        noise=scale_noise(standard_noise(include_cron=False), 30.0),
        seed=1,
    )
    system = System(cfg)
    t0 = time.perf_counter()
    result = run_aggregate_trace(
        system, 32, 16,
        AggregateTraceConfig(calls_per_loop=80, compute_between_us=200.0),
    )
    wall = time.perf_counter() - t0
    events = system.sim.events_processed
    return {
        "events_processed": events,
        "events_to_1s": _events_resumed_to_1s(system),
        "result_digest": _digest(
            [sorted(result.node0_durations_us.keys()),
             [round(d, 9) for d in result.node0_durations_us[0]]]
        ),
        "wall_s": round(wall, 3),
    }


def smoke_fig4() -> dict:
    """Figure 4 at quick scale: 236 ranks model, 112 calls, 16-rank DES."""
    from repro.experiments.fig4 import run_fig4

    t0 = time.perf_counter()
    res = run_fig4(n_ranks=236, n_calls=112, des_ranks=16, des_calls=112)
    wall = time.perf_counter() - t0
    return {
        "result_digest": hashlib.sha256(
            res.sorted_durations_us.tobytes()
        ).hexdigest(),
        "slowest_culprit": res.slowest_culprit,
        "n_outliers": len(res.outlier_attribution),
        "wall_s": round(wall, 3),
    }


def smoke_analytic_sweep() -> dict:
    """Analytic model at sweep settings: proto16 (co-scheduled) and
    vanilla16 at 128 and 944 ranks, one seed, 100 calls each."""
    from repro.analytic.model import AllreduceSeriesModel
    from repro.experiments.common import PROTO16, VANILLA16, make_config

    digest = hashlib.sha256()
    t0 = time.perf_counter()
    for scenario in (PROTO16, VANILLA16):
        for n in (128, 944):
            cfg = make_config(scenario, n, seed=1000)
            model = AllreduceSeriesModel(cfg, n, scenario.tasks_per_node, seed=1000 + n)
            digest.update(model.run_series(100, compute_between_us=200.0).durations_us.tobytes())
    wall = time.perf_counter() - t0
    return {"result_digest": digest.hexdigest(), "wall_s": round(wall, 3)}


def smoke_cosched() -> dict:
    """Co-scheduled serial DES: 16 ranks on 1x16 CPUs, prototype kernel,
    co-scheduler at period s(5)/50 and 90 % duty, long polling, noise x50."""
    from repro.apps.aggregate_trace import AggregateTraceConfig, run_aggregate_trace
    from repro.config import (
        ClusterConfig,
        CoschedConfig,
        KernelConfig,
        MachineConfig,
        MpiConfig,
    )
    from repro.daemons.catalog import scale_noise, standard_noise
    from repro.system import System
    from repro.units import s

    cfg = ClusterConfig(
        machine=MachineConfig(n_nodes=1, cpus_per_node=16),
        kernel=KernelConfig.prototype(big_tick=1),
        cosched=CoschedConfig(enabled=True, period_us=s(5) / 50, duty_cycle=0.9),
        mpi=MpiConfig.with_long_polling(progress_threads_enabled=False),
        noise=scale_noise(standard_noise(include_cron=False), 50.0),
        seed=7,
    )
    system = System(cfg)
    t0 = time.perf_counter()
    result = run_aggregate_trace(
        system, 16, 16,
        AggregateTraceConfig(calls_per_loop=150, compute_between_us=200.0),
    )
    wall = time.perf_counter() - t0
    cycles = sum(
        nc.cycles for jc in system.coscheds for nc in jc.node_coscheds.values()
    )
    events = system.sim.events_processed
    return {
        "events_processed": events,
        "events_to_1s": _events_resumed_to_1s(system),
        "result_digest": _digest(
            [[(r, d.tolist()) for r, d in sorted(result.node0_durations_us.items())],
             result.elapsed_us]
        ),
        "cosched_cycles": cycles,
        "wall_s": round(wall, 3),
    }


#: Keys whose values are timing, not semantics: never compared.
_VOLATILE = {"wall_s"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="write the golden file instead of checking it")
    parser.add_argument("--golden", default=GOLDEN)
    args = parser.parse_args(argv)

    got = {
        "cluster_des": smoke_cluster_des(),
        "fig4_quick": smoke_fig4(),
        "analytic_sweep": smoke_analytic_sweep(),
        "cosched_quick": smoke_cosched(),
    }
    for name, r in got.items():
        shown = {k: v for k, v in r.items() if k not in _VOLATILE}
        print(f"[perf-smoke] {name}: {shown} ({r['wall_s']}s)")

    if args.record:
        with open(args.golden, "w") as fh:
            json.dump(got, fh, indent=2)
            fh.write("\n")
        print(f"[perf-smoke] recorded {args.golden}")
        return 0

    try:
        with open(args.golden) as fh:
            want = json.load(fh)
    except OSError:
        print(f"[perf-smoke] FAIL: no golden at {args.golden} "
              "(run with --record to create it)")
        return 2

    failures = []
    if got["cosched_quick"]["cosched_cycles"] < 1:
        failures.append("cosched_quick: the co-scheduler completed no cycle")
    for name, wanted in want.items():
        for key, value in wanted.items():
            if key in _VOLATILE:
                continue
            actual = got.get(name, {}).get(key)
            if actual != value:
                failures.append(f"{name}.{key}: golden {value!r} != actual {actual!r}")
    if failures:
        print("[perf-smoke] FAIL — results drifted from golden:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("[perf-smoke] PASS — events and digests match golden")
    return 0


if __name__ == "__main__":
    sys.exit(main())
