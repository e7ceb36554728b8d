"""Content-addressed result store: envelope integrity, fingerprints,
put/get semantics, fsck detection+repair, crash-safe GC, and the
runner/store memoization wiring."""

import json
import math

import pytest

from repro.checkpoint.harness import SweepJournal
from repro.experiments.common import PROTO16
from repro.experiments.runner import TrialRunner, TrialSpec, set_execution_defaults
from repro.results import canonical_dumps
from repro.store import (
    DeterminismViolation,
    IntegrityError,
    ResultStore,
    StoreError,
    decode_record,
    encode_record,
    spec_fingerprint,
)
from repro.store.fingerprint import fingerprint_payload


def _count_trial(params):
    """Deterministic trial that also bumps a module-level counter, so
    tests can assert how many trials actually *executed*."""
    _count_trial.calls += 1
    return {"twice": params["x"] * 2}


_count_trial.calls = 0


@pytest.fixture(autouse=True)
def _reset_counter():
    _count_trial.calls = 0


def _spec(key="k1", x=1):
    return TrialSpec(key, "tests.test_store:_count_trial", {"x": x})


class TestCanonicalDumps:
    def test_sorted_compact_deterministic(self):
        a = canonical_dumps({"b": 1, "a": [1, 2], "c": {"y": 2, "x": 1}})
        assert a == '{"a":[1,2],"b":1,"c":{"x":1,"y":2}}'
        assert canonical_dumps({"a": [1, 2], "c": {"x": 1, "y": 2}, "b": 1}) == a

    def test_nan_and_infinity_rejected_loudly(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="NaN/Infinity"):
                canonical_dumps({"v": bad})


class TestRecordEnvelope:
    def test_round_trip_and_byte_determinism(self):
        payload = {"fingerprint": "f", "key": "k", "status": "ok", "record": {"v": 1}}
        data = encode_record(payload)
        assert data == encode_record(dict(reversed(list(payload.items()))))
        decoded = decode_record(data)
        assert {k: decoded[k] for k in payload} == payload
        assert "sha256" in decoded

    def test_truncation_is_torn(self):
        data = encode_record({"v": 1})
        with pytest.raises(IntegrityError) as exc:
            decode_record(data[: len(data) // 2])
        assert exc.value.kind == "torn"

    def test_bit_flip_is_detected(self):
        data = bytearray(encode_record({"v": 12345}))
        i = len(data) // 2
        data[i] ^= 0x01
        with pytest.raises(IntegrityError) as exc:
            decode_record(bytes(data))
        assert exc.value.kind in ("torn", "checksum", "shape")

    def test_unchecksummed_json_is_wrong_shape(self):
        with pytest.raises(IntegrityError) as exc:
            decode_record(json.dumps({"v": 1}))
        assert exc.value.kind == "shape"
        with pytest.raises(IntegrityError) as exc:
            decode_record("[1, 2, 3]")
        assert exc.value.kind == "shape"

    def test_reserved_field_and_non_dict_rejected(self):
        with pytest.raises(ValueError, match="sha256"):
            encode_record({"sha256": "x"})
        with pytest.raises(TypeError):
            encode_record([1, 2])


class TestFingerprint:
    def test_pure_function_of_spec_and_version(self):
        assert spec_fingerprint(_spec()) == spec_fingerprint(_spec())
        assert spec_fingerprint(_spec(x=1)) != spec_fingerprint(_spec(x=2))
        assert spec_fingerprint(_spec(key="other")) != spec_fingerprint(_spec())
        assert spec_fingerprint(_spec(), version="v2") != spec_fingerprint(
            _spec(), version="v1"
        )

    def test_env_version_salts_the_fingerprint(self, monkeypatch):
        before = spec_fingerprint(_spec())
        monkeypatch.setenv("REPRO_CODE_VERSION", "deadbeef")
        assert spec_fingerprint(_spec()) != before

    def test_scenario_params_fingerprint(self):
        # Scenario carries an importable classmethod (kernel config
        # factory); the fallback encodes it by qualified name.
        spec = TrialSpec("s", "repro.experiments.common:_allreduce_trial",
                         {"scenario": PROTO16, "n_ranks": 4})
        payload = fingerprint_payload(spec, version="t")
        assert "__callable__" in json.dumps(payload)
        assert spec_fingerprint(spec, version="t") == spec_fingerprint(spec, version="t")

    def test_lambda_params_rejected(self):
        spec = TrialSpec("s", "m:f", {"fn": lambda: None})
        with pytest.raises(TypeError, match="no.*stable|stable.*identity"):
            spec_fingerprint(spec)


FP_A = "a" * 64
FP_B = "b" * 64


class TestResultStorePutGet:
    def test_round_trip_and_counters(self, tmp_path):
        s = ResultStore(tmp_path)
        assert s.put(FP_A, "k1", {"v": 1}) == "stored"
        assert s.get(FP_A) == {"v": 1}
        assert s.get(FP_B) is None
        assert (s.hits, s.misses, s.puts) == (1, 1, 1)

    def test_identical_concurrent_write_is_benign(self, tmp_path):
        s = ResultStore(tmp_path)
        s.put(FP_A, "k1", {"v": 1})
        assert s.put(FP_A, "k1", {"v": 1}) == "identical"
        assert s.puts == 1 and s.identical == 1

    def test_nonidentical_write_is_a_determinism_violation(self, tmp_path):
        s = ResultStore(tmp_path)
        s.put(FP_A, "k1", {"v": 1})
        with pytest.raises(DeterminismViolation, match="determinism violation"):
            s.put(FP_A, "k1", {"v": 2})
        assert s.get(FP_A) == {"v": 1}  # original record untouched

    def test_corrupt_record_is_quarantined_not_served(self, tmp_path):
        s = ResultStore(tmp_path)
        s.put(FP_A, "k1", {"v": 1})
        path = s.object_path(FP_A)
        path.write_bytes(path.read_bytes()[:30])
        assert s.get(FP_A) is None
        assert not path.exists()
        assert list(s.quarantine_dir.iterdir())

    def test_put_over_corrupt_carcass_self_heals(self, tmp_path):
        s = ResultStore(tmp_path)
        s.put(FP_A, "k1", {"v": 1})
        s.object_path(FP_A).write_bytes(b"garbage")
        assert s.put(FP_A, "k1", {"v": 1}) == "replaced-corrupt"
        assert s.get(FP_A) == {"v": 1}

    def test_bad_fingerprint_rejected(self, tmp_path):
        s = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="not a fingerprint"):
            s.put("xyz", "k", {})
        with pytest.raises(ValueError, match="not a fingerprint"):
            s.get("A" * 64)  # uppercase: also not canonical


class TestFsck:
    def _seeded(self, tmp_path):
        s = ResultStore(tmp_path / "store")
        s.put(FP_A, "k1", {"v": 1})
        s.put(FP_B, "k2", {"v": 2})
        return s

    def test_clean_store_is_clean(self, tmp_path):
        s = self._seeded(tmp_path)
        report = s.fsck()
        assert report.clean and report.checked == 2

    def test_detects_every_corruption_kind(self, tmp_path):
        s = self._seeded(tmp_path)
        # torn
        pa = s.object_path(FP_A)
        pa.write_bytes(pa.read_bytes()[:25])
        # valid envelope, wrong payload shape
        pb = s.object_path(FP_B)
        pb.write_bytes(encode_record({"not": "a record"}))
        # valid record stored at the wrong address
        fp_c = "c" * 64
        pc = s.object_path(fp_c)
        pc.parent.mkdir(parents=True, exist_ok=True)
        pc.write_bytes(encode_record(
            {"fingerprint": FP_A, "key": "k1", "status": "ok", "record": {"v": 1}}
        ))
        # stray tmp spill + corrupt index entry
        (s.objects_dir / "aa").mkdir(exist_ok=True)
        (s.objects_dir / "aa" / ".x.json.123.tmp").write_text("spill")
        (s.index_dir / "broken.json").write_text('{"kind": "ind')
        report = s.fsck()
        kinds = sorted(f.kind for f in report.findings)
        assert kinds == [
            "fingerprint-mismatch", "index-corrupt", "shape", "stray-tmp", "torn",
        ]
        assert all(f.action == "reported" for f in report.findings)

    def test_repair_restores_from_journal_byte_identically(self, tmp_path):
        s = self._seeded(tmp_path)
        journal = SweepJournal(tmp_path / "results")
        journal.record("k1", {"v": 1})
        original = s.object_path(FP_A).read_bytes()
        s.object_path(FP_A).write_bytes(original[:25])
        report = s.fsck(repair=True, journal_dirs=[journal.dir])
        assert report.repaired == 1 and report.resolved
        assert s.object_path(FP_A).read_bytes() == original
        assert s.fsck().clean

    def test_repair_without_journal_quarantines_and_converges(self, tmp_path):
        s = self._seeded(tmp_path)
        s.object_path(FP_A).write_bytes(b"junk")
        report = s.fsck(repair=True)
        assert not report.clean and report.resolved
        # Unrestorable record quarantined; its index entry now dangles
        # and is removed, so the next pass is clean.
        assert s.fsck().clean
        assert s.get(FP_B) == {"v": 2}  # untouched record still served

    def test_index_dangling_detected_and_removed(self, tmp_path):
        s = self._seeded(tmp_path)
        s.object_path(FP_A).unlink()
        report = s.fsck()
        assert [f.kind for f in report.findings] == ["index-dangling"]
        assert s.fsck(repair=True).resolved
        assert s.fsck().clean


class TestGc:
    def test_sweeps_dead_keeps_live(self, tmp_path):
        s = ResultStore(tmp_path)
        s.put(FP_A, "k1", {"v": 1})
        s.put(FP_B, "k2", {"v": 2})
        report = s.gc(live=[FP_A])
        assert report.kept == 1 and report.swept == 1
        assert s.get(FP_A) == {"v": 1}
        assert not s.object_path(FP_B).exists()
        assert not s.index_path("k2").exists()  # index pruned with it
        assert not s.gc_mark_path.exists()
        assert s.fsck().clean

    def test_dry_run_deletes_nothing(self, tmp_path):
        s = ResultStore(tmp_path)
        s.put(FP_A, "k1", {"v": 1})
        report = s.gc(live=[], dry_run=True)
        assert report.dead == [FP_A] and report.swept == 0
        assert s.object_path(FP_A).exists()

    def test_interrupted_sweep_resumes_idempotently(self, tmp_path):
        s = ResultStore(tmp_path)
        s.put(FP_A, "k1", {"v": 1})
        s.put(FP_B, "k2", {"v": 2})
        # Crash between mark and sweep: mark on disk, nothing deleted.
        from repro.atomicio import atomic_write_bytes

        atomic_write_bytes(s.gc_mark_path, encode_record(
            {"kind": "gc-mark", "dead": [FP_B]}
        ))
        # A record put *after* the mark must survive the resumed sweep.
        fp_c = "c" * 64
        s.put(fp_c, "k3", {"v": 3})
        assert s.finish_gc() == 1
        assert s.finish_gc() == 0  # idempotent
        assert s.get(FP_A) == {"v": 1} and s.get(fp_c) == {"v": 3}
        assert not s.object_path(FP_B).exists()
        assert s.fsck().clean

    def test_fsck_detects_and_completes_interrupted_gc(self, tmp_path):
        s = ResultStore(tmp_path)
        s.put(FP_A, "k1", {"v": 1})
        from repro.atomicio import atomic_write_bytes

        atomic_write_bytes(s.gc_mark_path, encode_record(
            {"kind": "gc-mark", "dead": [FP_A]}
        ))
        report = s.fsck()
        assert "interrupted-gc" in [f.kind for f in report.findings]
        assert s.fsck(repair=True).resolved
        assert not s.object_path(FP_A).exists() and s.fsck().clean

    def test_corrupt_mark_fails_loudly_and_repairs_leak_safe(self, tmp_path):
        s = ResultStore(tmp_path)
        s.put(FP_A, "k1", {"v": 1})
        s.gc_mark_path.parent.mkdir(parents=True, exist_ok=True)
        s.gc_mark_path.write_text('{"kind": "gc-ma')
        with pytest.raises(StoreError, match="fsck --repair"):
            s.gc(live=[FP_A])
        assert s.fsck(repair=True).resolved
        assert s.get(FP_A) == {"v": 1}  # unknown dead set: keep everything
        assert s.fsck().clean


class TestRunnerStoreIntegration:
    def test_warm_rerun_executes_zero_trials(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = [_spec(f"t{i}", i) for i in range(4)]
        cold = TrialRunner(store=store).run(specs)
        assert _count_trial.calls == 4 and store.puts == 4
        warm = TrialRunner(store=ResultStore(tmp_path / "store")).run(specs)
        assert _count_trial.calls == 4  # nothing executed
        assert all(o.cached for o in warm)
        assert [o.record for o in warm] == [o.record for o in cold]

    def test_store_hit_materialises_journal_byte_identically(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = [_spec("t0", 5)]
        TrialRunner(journal=SweepJournal(tmp_path / "cold"), store=store).run(specs)
        TrialRunner(journal=SweepJournal(tmp_path / "warm"), store=store).run(specs)
        cold = (tmp_path / "cold" / "journal" / "t0.json").read_bytes()
        warm = (tmp_path / "warm" / "journal" / "t0.json").read_bytes()
        assert cold == warm

    def test_journal_hit_backfills_the_store(self, tmp_path):
        journal = SweepJournal(tmp_path / "res")
        TrialRunner(journal=journal).run([_spec("t0", 3)])
        store = ResultStore(tmp_path / "store")
        outs = TrialRunner(journal=SweepJournal(tmp_path / "res"), store=store).run(
            [_spec("t0", 3)]
        )
        assert outs[0].cached and store.puts == 1
        assert store.get(spec_fingerprint(_spec("t0", 3))) == {"twice": 6}

    def test_no_cache_recomputes_but_still_writes_back(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        TrialRunner(store=store).run([_spec("t0", 2)])
        assert _count_trial.calls == 1
        s2 = ResultStore(tmp_path / "store")
        TrialRunner(store=s2, use_cache=False).run([_spec("t0", 2)])
        assert _count_trial.calls == 2  # recomputed despite warm store
        assert s2.hits == 0 and s2.identical == 1

    def test_result_drift_trips_the_determinism_oracle(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        fp = spec_fingerprint(_spec("t0", 2))
        store.put(fp, "t0", {"twice": 999})  # a prior run's (wrong) record
        with pytest.raises(DeterminismViolation):
            TrialRunner(store=store, use_cache=False).run([_spec("t0", 2)])

    def test_parallel_fills_the_store_like_serial(self, tmp_path):
        serial_store = ResultStore(tmp_path / "serial")
        pool_store = ResultStore(tmp_path / "pool")
        specs = [_spec(f"t{i}", i) for i in range(4)]
        TrialRunner(store=serial_store).run(specs)
        TrialRunner(jobs=2, store=pool_store).run(specs)
        serial = {fp: serial_store.object_path(fp).read_bytes()
                  for fp in serial_store.fingerprints()}
        parallel = {fp: pool_store.object_path(fp).read_bytes()
                    for fp in pool_store.fingerprints()}
        assert serial and serial == parallel
        # Each result is stored once, as its trial completes: no
        # end-of-run re-put that re-reads and byte-compares it.
        assert serial_store.puts == 4 and serial_store.identical == 0
        assert pool_store.puts == 4 and pool_store.identical == 0

    def test_execution_defaults_route_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        previous = set_execution_defaults(store=store, use_cache=True)
        try:
            TrialRunner().run([_spec("t0", 1)])
            assert store.puts == 1
        finally:
            set_execution_defaults(*previous)


class TestStoreCli:
    def test_stats_fsck_gc_round_trip(self, tmp_path, capsys):
        from repro.store.cli import main

        store_dir = tmp_path / "store"
        s = ResultStore(store_dir)
        s.put(FP_A, "k1", {"v": 1})
        journal = SweepJournal(tmp_path / "res")
        journal.record("k1", {"v": 1})

        assert main(["stats", "--store", str(store_dir)]) == 0
        assert "records=1" in capsys.readouterr().out
        assert main(["fsck", "--store", str(store_dir)]) == 0

        s.object_path(FP_A).write_bytes(b"junk")
        assert main(["fsck", "--store", str(store_dir)]) == 1
        assert main([
            "fsck", "--store", str(store_dir),
            "--repair", "--journal", str(tmp_path / "res"),
        ]) == 0
        assert main(["fsck", "--store", str(store_dir)]) == 0

        # GC against the journal's live set keeps k1, sweeps strangers.
        ResultStore(store_dir).put(FP_B, "stranger", {"v": 2})
        (tmp_path / "res" / "journal" / "stranger.json").unlink(missing_ok=True)
        assert main([
            "gc", "--store", str(store_dir), "--live-from", str(tmp_path / "res"),
        ]) == 0
        s = ResultStore(store_dir)
        assert s.get(FP_A) == {"v": 1} and s.get(FP_B) is None

    def test_experiments_cli_delegates_store_subcommand(self, tmp_path, capsys):
        from repro.experiments.cli import main as exp_main

        store_dir = tmp_path / "store"
        ResultStore(store_dir).put(FP_A, "k1", {"v": 1})
        assert exp_main(["store", "stats", "--store", str(store_dir)]) == 0
        assert "records=1" in capsys.readouterr().out

    def test_missing_store_dir_errors(self, tmp_path):
        from repro.store.cli import main

        with pytest.raises(SystemExit, match="does not exist"):
            main(["stats", "--store", str(tmp_path / "nope")])
