"""The correctness contract: every execution mode reproduces one golden.

Each reference scenario runs through every execution mode that applies
to it — serial, ``--jobs 2``, harness chaos, store cold/warm/repaired,
journal resume, 1/2/killed shards, checkpoint resume — and every mode
must land on the one digest committed for that scenario in
``tests/golden_contract.json`` (keyed by the scenario's command line).
Modes run in-process through :func:`repro.experiments.cli.main`, so the
CLI wiring is covered too.

A mismatch prints the observed digest.  Only a deliberate model change
re-records a golden, by hand-editing the JSON; an engine, harness or
refactoring change must leave every digest alone.
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

from repro.chaos.harness_faults import plan_for, shard_kill_plan
from repro.checkpoint import SweepJournal
from repro.experiments import run_fig6
from repro.experiments.cli import _quick_kwargs, main as cli_main
from repro.experiments.runner import TrialRunner, set_execution_defaults
from repro.results import save_result
from tests.test_supervisor import fast_config

GOLDEN = json.loads(Path(__file__).with_name("golden_contract.json").read_text())

FIG6 = "fig6 --quick"
#: Seed of every injected-fault axis: worker kills, shard kills, store damage.
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


def expect(scenario: str, digest: str) -> None:
    assert digest == GOLDEN[scenario], (
        f"{scenario!r}: observed digest {digest}, golden {GOLDEN[scenario]}"
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


def test_fig6_jobs2_harness_chaos(tmp_path, caplog):
    """Workers killed and hung mid-campaign leave no trace in the bytes.

    Runs ``run_fig6`` directly rather than through the CLI, which would
    install the 10 s default heartbeat timeout; the short test timeouts
    make hang detection take a second instead.
    """
    previous = set_execution_defaults(
        supervisor=fast_config(chaos_seed=CHAOS_SEED)
    )
    try:
        with caplog.at_level(logging.INFO, logger="repro.harness"):
            res = run_fig6(**_quick_kwargs(True), journal=SweepJournal(tmp_path), jobs=2)
    finally:
        set_execution_defaults(*previous)
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


# ---- pdes: shard count and shard-worker kills ----------------------------

PDES_MODES = {
    "1-shard": ("--shards", 1),
    "2-shards": ("--shards", 2),
    "2-shards-killed": ("--shards", 2, "--harness-chaos", CHAOS_SEED),
}


@pytest.mark.parametrize("mode", PDES_MODES)
@pytest.mark.parametrize(
    "scenario", ["pdes --quick", "pdes --quick --meanfield 8"], ids=["pdes", "meanfield"]
)
def test_pdes(scenario, mode, tmp_path):
    digest_out = tmp_path / "digest.txt"
    out = cli(*scenario.split(), *PDES_MODES[mode], "--digest-out", digest_out)
    expect(scenario, digest_out.read_text().strip())
    kills = 0
    if mode == "2-shards-killed":
        kills = sum(shard_kill_plan(CHAOS_SEED, sh).kills for sh in range(2))
        assert kills, "the chaos seed must kill at least one shard worker"
    respawns = re.search(r"recoveries\s+: (\d+)", out)
    assert (int(respawns[1]) if respawns else 0) == kills


# ---- chaos --quick: fault-fuzzing verdicts under every executor ---------

CHAOS = "chaos --quick --seeds 2"


def chaos_verdicts(results: Path) -> str:
    """Digest of what both chaos judges report per seed.

    The serial judge records oracle details and the sharded judge
    records shard digests; the schedule, the verdict, the liveness
    bound and the simulated end time are common to both.
    """
    shared = ("bound_us", "completed", "elapsed_us", "values_ok")
    verdicts = []
    for path in sorted((results / "journal").glob("*.json")):
        record = json.loads(path.read_text())["record"]
        details = record.pop("details")
        verdicts.append({**record, **{k: details[k] for k in shared}})
    return hashlib.sha256(json.dumps(verdicts, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "mode",
    [(), ("--jobs", 2), ("--shards", 2, "--jobs", 1)],
    ids=["serial", "jobs2", "shards2"],
)
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


# ---- e14 --quick: the mean-field oracle and its accuracy curve ----------

def e14_digest(results: Path) -> str:
    """Digest of E14's deterministic fields: digests and event counts.

    The wall-clock fields (``exact_wall_s``, ``wall_s``,
    ``wall_speedup``) vary from run to run and stay out.
    """
    fields = json.loads((results / "e14.json").read_text())["fields"]
    kept = {
        k: fields[k]
        for k in ("exact_digest", "exact_events", "batches", "digests", "events")
    }
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()


def test_e14(tmp_path):
    out = cli("e14", "--quick", "--results", tmp_path)
    assert "oracle (batch=1 bit-identical): PASS" in out
    expect("e14 --quick", e14_digest(tmp_path))
