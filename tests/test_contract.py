"""The correctness contract: every execution mode reproduces one golden.

Each reference scenario runs through every execution mode that applies
to it — serial, ``--jobs 2``, harness chaos, store cold/warm/repaired,
journal resume, checkpoint resume — and every mode
must land on the one digest committed for that scenario in
``tests/golden_contract.json`` (keyed by the scenario's command line).
Modes run in-process through :func:`repro.experiments.cli.main`, so the
CLI wiring is covered too.  Below the CLI, four small engine runs (the
cluster DES, Figure 4, the analytic sweep and the co-scheduled DES) pin
their event counts, digests and named culprit under ``engine <run>``
keys.

A mismatch prints the observed value.  Only a deliberate model change
re-records a golden, by hand-editing the JSON and saying why; an engine,
harness or refactoring change must leave every value alone.
"""

import contextlib
import hashlib
import io
import json
import logging
import multiprocessing
import re
from pathlib import Path

import pytest

from repro.analytic.model import AllreduceSeriesModel
from repro.apps.aggregate_trace import AggregateTraceConfig, run_aggregate_trace
from repro.chaos.harness_faults import plan_for
from repro.checkpoint.harness import SweepJournal
from repro.config import ClusterConfig, CoschedConfig, KernelConfig, MachineConfig, MpiConfig
from repro.daemons.catalog import scale_noise, standard_noise
from repro.experiments.cli import QUICK_SWEEP, main as cli_main
from repro.experiments.common import PROTO16, VANILLA16, make_config
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig6 import run_fig6
from repro.experiments.runner import TrialRunner
from repro.results import save_result
from repro.system import System
from repro.units import s

GOLDEN = json.loads(Path(__file__).with_name("golden_contract.json").read_text())

FIG6 = "fig6 --quick"
#: Seed of every injected-fault axis: worker kills, store damage.
CHAOS_SEED = 7


def cli(*argv, rc=0) -> str:
    """Run the experiments CLI in-process; assert its exit code, return stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = cli_main([str(a) for a in argv])
    assert got == rc, out.getvalue()
    return out.getvalue()


def tree_digest(root: Path) -> str:
    """SHA-256 over every JSON file under *root*: result files and journal."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.json")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def expect(scenario: str, observed) -> None:
    assert observed == GOLDEN[scenario], (
        f"{scenario!r}: observed {observed}, golden {GOLDEN[scenario]}"
    )


@pytest.fixture(autouse=True)
def _no_leaked_workers():
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def executed(monkeypatch):
    """Keys of the trials that really ran, serially or in workers.

    Every executed outcome reaches ``TrialRunner._complete`` in the
    parent; journal and store hits never do.
    """
    keys = []
    real = TrialRunner._complete

    def spy(self, outcomes, fingerprints, outcome):
        keys.append(outcome.key)
        return real(self, outcomes, fingerprints, outcome)

    monkeypatch.setattr(TrialRunner, "_complete", spy)
    return keys


# ---- fig6 --quick: the trial-runner modes ------------------------------

def test_fig6_serial_then_resumed_from_half_deleted_journal(tmp_path, executed):
    cli(*FIG6.split(), "--results", tmp_path)
    expect(FIG6, tree_digest(tmp_path))

    deleted = sorted((tmp_path / "journal").glob("*.json"))[::2]
    for path in deleted:
        path.unlink()
    executed.clear()
    cli(*FIG6.split(), "--results", tmp_path, "--resume")
    # The survivors are served from disk: only the deleted trials rerun.
    assert sorted(executed) == sorted(p.stem for p in deleted)
    expect(FIG6, tree_digest(tmp_path))


def test_fig6_jobs2(tmp_path):
    cli(*FIG6.split(), "--jobs", 2, "--results", tmp_path)
    expect(FIG6, tree_digest(tmp_path))


def test_fig6_jobs2_harness_chaos(tmp_path, caplog, fast_config):
    """Workers killed and hung mid-campaign leave no trace in the bytes.

    Runs ``run_fig6`` directly on the runner the CLI would build for
    ``--jobs 2 --harness-chaos 7``, but with the short test heartbeat
    timeout: hang detection takes a second instead of the default 10 s.
    """
    runner = TrialRunner(
        jobs=2, journal=SweepJournal(tmp_path), supervisor=fast_config(chaos_seed=CHAOS_SEED)
    )
    with caplog.at_level(logging.INFO, logger="repro.harness"):
        res = run_fig6(**QUICK_SWEEP, runner=runner)
    save_result(tmp_path / "fig6_vanilla.json", res.vanilla)
    save_result(tmp_path / "fig6_prototype.json", res.prototype)
    expect(FIG6, tree_digest(tmp_path))
    # Each planned kill or hang cost exactly one retry.
    kills = sum(
        plan_for(CHAOS_SEED, p.stem).kills
        for p in (tmp_path / "journal").glob("*.json")
    )
    retries = sum(int(n) for n in re.findall(r"(\d+) retries", caplog.text))
    assert kills and retries == kills


def test_fig6_store_cold_warm_then_repaired(tmp_path, executed):
    store = tmp_path / "store"
    run = (*FIG6.split(), "--jobs", 2, "--store", store, "--results")
    out = cli(*run, tmp_path / "cold")
    assert "[store: hits=0 misses=16 puts=16]" in out
    assert len(executed) == 16
    expect(FIG6, tree_digest(tmp_path / "cold"))

    executed.clear()
    out = cli(*run, tmp_path / "warm")
    assert "[store: hits=16 misses=0 puts=0]" in out
    expect(FIG6, tree_digest(tmp_path / "warm"))

    cli("store", "chaos", "--store", store, "--chaos-seed", CHAOS_SEED)
    cli("store", "fsck", "--store", store, rc=1)  # the damage is detected
    cli("store", "fsck", "--store", store, "--repair", "--journal", tmp_path / "cold")
    cli("store", "fsck", "--store", store)
    out = cli(*run, tmp_path / "repaired")
    assert "[store: hits=16 misses=0 puts=0]" in out
    assert executed == []  # both warm runs served every trial from the store
    expect(FIG6, tree_digest(tmp_path / "repaired"))


# ---- pdes: the digest file, and a result file free of wall time ---------

@pytest.mark.parametrize(
    "scenario", ["pdes --quick", "pdes --quick --meanfield 8"], ids=["pdes", "meanfield"]
)
def test_pdes(scenario, tmp_path):
    digest_out = tmp_path / "digest.txt"
    for run in ("a", "b"):
        cli(*scenario.split(), "--digest-out", digest_out, "--results", tmp_path / run)
        expect(scenario, digest_out.read_text().strip())
    a, b = ((tmp_path / run / "pdes.json").read_bytes() for run in ("a", "b"))
    assert a == b


# ---- chaos --quick: fault-fuzzing verdicts under every executor ---------

CHAOS = "chaos --quick --seeds 2"


def chaos_verdicts(results: Path) -> str:
    """Digest of every seed's whole journal record: the schedule, the
    verdict and all the judge's details — liveness bound, simulated end
    time, event count, state fingerprint and fault counters."""
    verdicts = [
        json.loads(path.read_text())["record"]
        for path in sorted((results / "journal").glob("*.json"))
    ]
    return hashlib.sha256(json.dumps(verdicts, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("mode", [(), ("--jobs", 2)], ids=["serial", "jobs2"])
def test_chaos(mode, tmp_path):
    cli(*CHAOS.split(), *mode, "--results", tmp_path)
    expect(CHAOS, chaos_verdicts(tmp_path))


# ---- policy zoo and resilience: serial vs --jobs 2 -----------------------

POLICIES = ("aix", "fair", "quantum", "lottery")


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "jobs2"])
@pytest.mark.parametrize(
    "scenario",
    [f"policy --quick --policy {p}" for p in POLICIES] + ["resilience --quick"],
    ids=[f"policy-{p}" for p in POLICIES] + ["resilience"],
)
def test_jobs(scenario, jobs, tmp_path):
    cli(*scenario.split(), "--jobs", jobs, "--results", tmp_path)
    expect(scenario, tree_digest(tmp_path))


# ---- e9 --quick: checkpoint-resumed and journal-resumed ------------------

def test_e9_checkpoint_and_journal_resumed(tmp_path):
    """Exit 0 means the checkpoint-resumed state fingerprint equals the
    uninterrupted one and the journal-resumed sweep equals the
    uninterrupted sweep; the digest pins both outcomes."""
    cli("e9", "--quick", "--results", tmp_path)
    expect("e9 --quick", tree_digest(tmp_path))


def test_e9_ignores_the_cli_store(tmp_path, executed):
    """E9's sweeps never see ``--store``: the uninterrupted reference
    executes all its trials instead of being served the records the
    resumed sweep just stored, so the comparison is not a sweep with
    itself."""
    out = cli("e9", "--quick", "--store", tmp_path / "store")
    assert "[store: hits=0 misses=0 puts=0]" in out
    assert "verdict: PASS" in out
    keys = [f"proto16-n{n}-s{s}" for n in (128, 256, 512) for s in (0, 1)]
    # The interrupted sweep runs the first four, the resumed sweep the
    # last two, then the reference runs all six.
    assert executed == keys + keys


# ---- e14 --quick: the mean-field oracle and its accuracy curve ----------

def test_e14(tmp_path):
    out = cli("e14", "--quick", "--results", tmp_path)
    assert "oracle (batch=1 bit-identical): PASS" in out
    expect("e14 --quick", tree_digest(tmp_path))


# ---- engine runs: the DES, Figure 4 and the analytic model --------------

def sha(payload) -> str:
    """SHA-256 of the ``repr`` of plain Python data (no NumPy scalars,
    whose ``repr`` differs between NumPy 1.x and 2.x)."""
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def des_counts(system: System) -> dict:
    """Event counts of a run that stopped at its job's finish.

    The run then resumes to t = 1 s: the lifetime count there is the one
    the runs had when ``MpiJob.run`` advanced in 1-s chunks, so the
    events fired up to the finish are pinned as a prefix of that longer
    sequence.
    """
    (job,) = system.jobs
    assert system.sim.now == job.finish_time
    events = system.sim.events_processed
    system.sim.run_until(s(1))
    return {"events_processed": events, "events_to_1s": system.sim.events_processed}


def engine_cluster_des() -> dict:
    """Full-stack DES under x30 daemon noise: 32 ranks on 2 nodes, 80 calls."""
    system = System(ClusterConfig(
        machine=MachineConfig(n_nodes=2, cpus_per_node=16),
        mpi=MpiConfig(progress_threads_enabled=False),
        noise=scale_noise(standard_noise(include_cron=False), 30.0),
        seed=1,
    ))
    result = run_aggregate_trace(
        system, 32, 16, AggregateTraceConfig(calls_per_loop=80, compute_between_us=200.0)
    )
    assert result.values_ok
    durations = result.node0_durations_us
    return {
        **des_counts(system),
        "result_digest": sha(
            [sorted(durations), [round(d, 9) for d in durations[0].tolist()]]
        ),
    }


def engine_fig4_quick() -> dict:
    """Figure 4 at quick scale: 236-rank model, 112 calls, 16-rank DES."""
    res = run_fig4(n_ranks=236, n_calls=112, des_ranks=16, des_calls=112)
    return {
        "result_digest": hashlib.sha256(res.sorted_durations_us.tobytes()).hexdigest(),
        "slowest_culprit": res.slowest_culprit,
        "n_outliers": len(res.outlier_attribution),
        # The DES side: which daemon delayed which call, and by how much.
        "attribution_digest": sha([
            (int(i), float(dur), [(name, float(cpu_us)) for name, cpu_us in top])
            for i, dur, top in res.outlier_attribution
        ]),
    }


def engine_analytic_sweep() -> dict:
    """The analytic model at sweep settings: proto16 (co-scheduled) and
    vanilla16 at 128 and 944 ranks, one seed, 100 calls each."""
    digest = hashlib.sha256()
    for scenario in (PROTO16, VANILLA16):
        for n in (128, 944):
            cfg = make_config(scenario, n, seed=1000)
            model = AllreduceSeriesModel(cfg, n, scenario.tasks_per_node, seed=1000 + n)
            digest.update(model.run_series(100, compute_between_us=200.0).durations_us.tobytes())
    return {"result_digest": digest.hexdigest()}


def engine_cosched_quick() -> dict:
    """Co-scheduled serial DES: 16 ranks on 1x16 CPUs, prototype kernel,
    co-scheduler at period s(5)/50 and 90 % duty, long polling, noise x50."""
    system = System(ClusterConfig(
        machine=MachineConfig(n_nodes=1, cpus_per_node=16),
        kernel=KernelConfig.prototype(big_tick=1),
        cosched=CoschedConfig(enabled=True, period_us=s(5) / 50, duty_cycle=0.9),
        mpi=MpiConfig.with_long_polling(progress_threads_enabled=False),
        noise=scale_noise(standard_noise(include_cron=False), 50.0),
        seed=7,
    ))
    result = run_aggregate_trace(
        system, 16, 16, AggregateTraceConfig(calls_per_loop=150, compute_between_us=200.0)
    )
    return {
        **des_counts(system),
        "result_digest": sha([
            [(r, d.tolist()) for r, d in sorted(result.node0_durations_us.items())],
            result.elapsed_us,
        ]),
        "cosched_cycles": sum(
            nc.cycles for jc in system.coscheds for nc in jc.node_coscheds.values()
        ),
    }


ENGINE_RUNS = {
    "cluster_des": engine_cluster_des,
    "fig4_quick": engine_fig4_quick,
    "analytic_sweep": engine_analytic_sweep,
    "cosched_quick": engine_cosched_quick,
}


@pytest.mark.parametrize("run", ENGINE_RUNS)
def test_engine(run):
    expect(f"engine {run}", ENGINE_RUNS[run]())
