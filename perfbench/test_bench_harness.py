"""Tests of the benchmark harness itself, at toy sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_bench_harness.py -q

Every sample runs in a child process, exactly as in a real run, so these
tests take a minute or two.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench  # noqa: E402
import layertrace  # noqa: E402

BENCH = os.path.join(HERE, "bench.py")
SRC = os.path.join(bench.ROOT, "src")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")


def _run_bench(*args, cwd=bench.ROOT):
    proc = subprocess.run([sys.executable, BENCH, "--toy", *args], capture_output=True,
                          text=True, cwd=cwd, timeout=900)
    return proc, (json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else None)


def _opts():
    opts = bench.parse_args(["--toy"])
    opts.golden = {}
    return opts


@pytest.fixture(scope="module")
def full_report():
    proc, report = _run_bench("--samples", "2")
    assert proc.returncode == 0, proc.stderr
    return report


def test_every_metric_is_declared_and_well_named(full_report):
    declared = bench.load_benchmark()
    e2e = {d["name"] for d in declared["end_to_end"]}
    layers = {d["name"] for d in declared["per_layer"]}
    assert set(full_report) == set(bench.NAMES)
    for name, res in full_report.items():
        assert set(res["end_to_end"]["metrics"]) == e2e, name
        assert set(res["per_layer"]) == layers, name
    for metric in e2e | layers:
        assert NAME_RE.match(metric), metric


def test_every_sample_passes_its_check(full_report):
    for name, res in full_report.items():
        assert res["end_to_end"]["correct"], name
        assert res["end_to_end"]["failed"] == 0, name
        assert all(v["value"] > 0 for v in res["end_to_end"]["metrics"].values()), name


@pytest.mark.parametrize("name", bench.NAMES)
def test_traced_digest_equals_untraced(name):
    session = bench.Session(name, 0, _opts(), SRC)
    try:
        plain = session.run()
        traced = session.run(trace="full")
    finally:
        session.close()
    assert plain["ok"] and traced["ok"], (plain["problems"], traced["problems"])
    assert traced["digest"] == plain["digest"]


def test_times_are_corrected_by_the_probed_host_speed():
    session = bench.Session("cosched", 0, _opts(), SRC)
    try:
        r = session.run()
    finally:
        session.close()
    assert r["ok"], r["problems"]
    assert 0 < r["host_speed"] < 10
    assert r["setup_s"] > 0 and r["setup_raw_s"] > 0
    assert r["wall_s"] == pytest.approx(
        r["wall_raw_s"] * r["host_speed"] ** bench.SPEED_ELASTICITY)


def test_traced_counters_repeat_and_self_times_fit_the_wall():
    session = bench.Session("cosched", 0, _opts(), SRC)
    try:
        session.traced_round()
        session.traced_round()
        raw = session.run(trace="full")["trace"]
    finally:
        session.close()
    assert not session.failures
    first, second = session.rounds
    counts = [k for k, v in first.items() if isinstance(v, int)]
    assert counts and all(first[k] == second[k] for k in counts)
    assert first["sim.events"] > 0 and first["kernel.dispatches"] > 0
    total = sum(raw["self_s"].values())
    assert total <= raw["wall_s"] * (1 + 1e-9)
    assert total >= raw["wall_s"] * 0.99
    assert layertrace.layer_metrics(raw)["sim.events"] == first["sim.events"]


def test_forced_digest_mismatch_is_a_failed_op(tmp_path):
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps({"toy": {"fig4": {"digest": "0" * 64}}}))
    proc, result = _run_bench("--workload", "fig4", "--seed", "0", "--seconds", "0.1",
                              "--golden", str(bad))
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] >= result["failed"]
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/bench.py", "--workload", "fig4",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.skipif(shutil.which("git") is None
                    or not os.path.isdir(os.path.join(bench.ROOT, ".git")),
                    reason="needs a git checkout")
def test_ab_against_head_never_reports_improved():
    proc, report = _run_bench("--base", "HEAD", "--workload", "fig4", "--pairs", "16")
    assert proc.returncode == 0, proc.stderr
    row = report["fig4"]
    assert not row["failed"] and row["digests_equal"]
    verdicts = [row[m]["verdict"] for m in ("wall_s", "setup_s", "peak_rss_mb")]
    assert "improved" not in verdicts
