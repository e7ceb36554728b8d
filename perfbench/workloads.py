"""The benchmark's six workloads: inputs from a seed, a timed run, a check.

Each workload splits into ``setup`` (imports, configuration, building the
``System`` or opening the store -- reported as ``setup_s``), ``run`` (the
timed phase, ``wall_s``) and ``check``, which returns the run's digest
plus the facts a golden file may pin and the problems found.  Every
workload adds the benchmark seed to its own base seed, so one seed gives
one set of inputs.

Why these six (see README.md for the layer table):

* ``fig4`` -- the paper's Figure-4 run at paper defaults: the analytic
  model at 944 ranks plus the traced 32-rank DES and outlier attribution.
  The only workload that uses the ``trace`` layer.
* ``cosched`` -- serial DES with the prototype kernel and the
  co-scheduler cycling priorities over about three periods: dispatch-
  and MPI-heavy, the only workload where the co-scheduler runs.
* ``pdes_1`` / ``pdes_2`` -- one sharded-DES input on 1 and 2 shards:
  interrupt- and daemon-dominated events with sparse MPI, about 11
  events per superstep.  ``pdes_2`` adds the sharded engine's windows
  and cross-shard envelopes.
* ``campaign_cold`` / ``campaign_warm`` -- one allreduce sweep through
  ``TrialRunner``: cold against an empty store (analytic trials, journal
  and store writes), warm against the cold run's store (store reads,
  journal writes, then journal-served resumes).

Timed samples run in one process: on two shared vCPUs that slow down
independently, forked shards and worker pools time the host's scheduling
more than the code.  The traced round also runs the multi-process
variants (``EXTRA_TRACED``).  ``toy`` sizes exist for the harness tests
only.
"""

from __future__ import annotations

import hashlib
import json
import os

#: The 2-shard workload's digest must equal this workload's, and the
#: warm campaign must serve exactly the cold campaign's records.
REFERENCE = {"pdes_2": "pdes_1", "campaign_warm": "campaign_cold"}


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Fig4:
    base_seed = 4

    def setup(self, seed: int, toy: bool, variant: str, work: str) -> dict:
        from repro.experiments.fig4 import run_fig4

        kwargs = dict(n_ranks=236, n_calls=112, des_ranks=16, des_calls=112) if toy else {}
        return {"run": run_fig4, "kwargs": dict(kwargs, seed=self.base_seed + seed)}

    def run(self, state: dict):
        return state["run"](**state["kwargs"])

    def check(self, state: dict, res) -> tuple:
        digest = hashlib.sha256(res.sorted_durations_us.tobytes()).hexdigest()
        problems = []
        if res.slowest_culprit == "(none)":
            problems.append("no outlier was attributed to a daemon")
        return digest, {"culprit": res.slowest_culprit}, problems


class Cosched:
    base_seed = 7

    def setup(self, seed: int, toy: bool, variant: str, work: str) -> dict:
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

        ranks, calls = (16, 150) if toy else (32, 600)
        config = ClusterConfig(
            machine=MachineConfig(n_nodes=ranks // 16, cpus_per_node=16),
            kernel=KernelConfig.prototype(big_tick=1),
            cosched=CoschedConfig(enabled=True, period_us=s(5) / 50, duty_cycle=0.9),
            mpi=MpiConfig.with_long_polling(progress_threads_enabled=False),
            noise=scale_noise(standard_noise(include_cron=False), 50.0),
            seed=self.base_seed + seed,
        )
        return {
            "run": run_aggregate_trace,
            "system": System(config),
            "ranks": ranks,
            "app": AggregateTraceConfig(calls_per_loop=calls, compute_between_us=200.0),
        }

    def run(self, state: dict):
        return state["run"](state["system"], state["ranks"], 16, state["app"])

    def check(self, state: dict, res) -> tuple:
        digest = _sha({
            "node0": {str(r): d.tolist() for r, d in sorted(res.node0_durations_us.items())},
            "elapsed_us": res.elapsed_us,
        })
        cycles = sum(
            nc.cycles for jc in state["system"].coscheds for nc in jc.node_coscheds.values()
        )
        problems = []
        if not res.values_ok:
            problems.append("allreduce returned wrong values")
        if cycles < 1:
            problems.append("the co-scheduler completed no cycle")
        return digest, {}, problems


class Pdes:
    base_seed = 1234

    def __init__(self, shards: int) -> None:
        self.shards = shards

    def setup(self, seed: int, toy: bool, variant: str, work: str) -> dict:
        from dataclasses import replace

        from repro.daemons.catalog import scale_noise, standard_noise
        from repro.experiments.common import VANILLA15, make_config
        from repro.sim import parallel

        ranks, calls = (30, 4) if toy else (120, 16)
        config = make_config(
            VANILLA15,
            n_ranks=ranks,
            noise=scale_noise(standard_noise(include_cron=False), 50.0),
            seed=self.base_seed + seed,
        )
        # Why vanilla15 on synchronized clocks: with a rank on every CPU
        # (vanilla16) the makespan is a sum of heavy-tailed daemon delays,
        # and an unsynchronized node starts its interrupt handlers up to
        # 200 ms late in a sub-second run -- both made the event count
        # swing +-20% with the seed.  Here its IQR over ten seeds is 2.4%
        # (3.4% at 12 calls, 1.8% at 24).
        config = config.replace(machine=replace(config.machine, max_clock_offset_us=0.0))
        return {
            "parallel": parallel,
            "args": (config,),
            "kwargs": dict(
                n_ranks=ranks,
                tasks_per_node=VANILLA15.tasks_per_node,
                app="repro.apps.aggregate_trace:sharded_app",
                app_params=dict(loops=1, calls_per_loop=calls, trace_block=64,
                                compute_between_us=20000.0, payload_bytes=8,
                                record_nodes=(0,)),
                shards=self.shards,
                # Timed samples step every shard in this one process: the
                # same events as forked workers, without the two shared
                # vCPUs' scheduling noise.  The "forked" traced pass
                # measures the coordinator's barrier waiting.
                use_processes=variant == "forked",
            ),
        }

    def run(self, state: dict):
        return state["parallel"].run_parallel(*state["args"], **state["kwargs"])

    def check(self, state: dict, res) -> tuple:
        return res.digest, {}, [] if res.ok else ["allreduce returned wrong values"]


class Campaign:
    base_seed = 1000

    def __init__(self, warm: bool) -> None:
        self.warm = warm

    def setup(self, seed: int, toy: bool, variant: str, work: str) -> dict:
        from repro.checkpoint.harness import SweepJournal
        from repro.experiments.common import PROTO16, VANILLA16, allreduce_trial_specs
        from repro.experiments.runner import TrialRunner
        from repro.store import ResultStore

        counts, n_seeds, calls = ((128, 256), 2, 10) if toy else ((128, 256, 512, 944, 1728), 5, 40)
        specs = [
            spec
            for scenario in (PROTO16, VANILLA16)
            for spec in allreduce_trial_specs(
                scenario, counts, calls, n_seeds, base_seed=self.base_seed + seed
            )
        ]
        return {
            "specs": specs,
            "runner": TrialRunner,
            "journal": SweepJournal,
            # The warm store is the cold reference run's, linked here
            # before this process started.
            "store": ResultStore(os.path.join(work, "store")),
            "work": work,
            # Timed samples run the trials in this process; the "jobs2"
            # traced pass runs them in two supervised workers.
            "jobs": 2 if variant == "jobs2" else 1,
            "passes": (2 if toy else 100) if self.warm else 1,
        }

    def run(self, state: dict) -> list:
        """``(records, outcomes served without running)`` per pass.

        All passes share the sample's one fresh journal: on the warm
        store the first pass is served by the store and written into the
        journal, and the later passes are resumes the journal serves
        (each checked back against the store).  A fresh journal per pass
        would make the warm run 80% journal fsyncs, whose latency on a
        shared disk swings by 20% from minute to minute.
        """
        journal = state["journal"](os.path.join(state["work"], "journal"))
        out = []
        for _ in range(state["passes"]):
            runner = state["runner"](jobs=state["jobs"], journal=journal,
                                     store=state["store"], backend="supervised")
            outcomes = runner.run(state["specs"])
            out.append(([o.record for o in outcomes], sum(o.cached for o in outcomes)))
        return out

    def check(self, state: dict, passes: list) -> tuple:
        n = len(state["specs"])
        store = state["store"]
        problems = []
        records = passes[0][0]
        if any(r is None for r in records):
            problems.append("a trial failed")
        if any(p[0] != records for p in passes[1:]):
            problems.append("passes served different records")
        if self.warm:
            served = [cached for _r, cached in passes]
            if served != [n] * len(passes) or (store.hits, store.misses) != (n, 0):
                problems.append(f"served without running per pass {served}, store hits/"
                                f"misses {store.hits}/{store.misses}; want all {n}, {n}/0")
        elif (store.hits, store.misses, store.puts) != (0, n, n):
            problems.append(f"store hits/misses/puts {store.hits}/{store.misses}/"
                            f"{store.puts}; want 0/{n}/{n}")
        return _sha(records), {}, problems


WORKLOADS = {
    "fig4": Fig4(),
    "cosched": Cosched(),
    "pdes_1": Pdes(shards=1),
    "pdes_2": Pdes(shards=2),
    "campaign_cold": Campaign(warm=False),
    "campaign_warm": Campaign(warm=True),
}

#: Extra traced passes of the multi-process variants: variant ->
#: metric-name prefixes taken from it.  Timed samples are single-process,
#: so the layers that only work across processes are traced here.
EXTRA_TRACED = {
    "pdes_2": {"forked": ("shard.coordinator_wait_pct",)},
    "campaign_cold": {"jobs2": ("supervisor.",)},
}
