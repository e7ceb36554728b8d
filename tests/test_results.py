"""Result serialisation round-trips."""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from repro.experiments.common import SweepResult, VANILLA16, allreduce_sweep
from repro.experiments.e14_meanfield import E14Result
from repro.experiments.e9_resume import E9Result
from repro.experiments.fig1 import run_fig1
from repro.experiments.pdes import PdesResult
from repro.experiments.policyzoo import PolicyZooResult
from repro.experiments.resilience import ResilienceResult
from repro.results import REGISTRY, load_result, register_result, save_result, to_jsonable


class TestJsonable:
    def test_scalars_pass_through(self):
        assert to_jsonable(3) == 3
        assert to_jsonable(2.5) == 2.5
        assert to_jsonable("x") == "x"
        assert to_jsonable(None) is None
        assert to_jsonable(True) is True

    def test_numpy_scalars_coerced(self):
        assert to_jsonable(np.int64(4)) == 4
        assert to_jsonable(np.float64(1.5)) == 1.5

    def test_ndarray_encoding(self):
        enc = to_jsonable(np.array([1.0, 2.0]))
        assert enc["__ndarray__"] == [1.0, 2.0]

    def test_unserialisable_raises(self):
        with pytest.raises(TypeError):
            to_jsonable(object())

    def test_non_dataclass_register_raises(self):
        with pytest.raises(TypeError):
            register_result(int)


class TestRoundTrip:
    def test_sweep_result(self, tmp_path):
        sweep = allreduce_sweep(VANILLA16, proc_counts=(128, 256), n_calls=30, n_seeds=1)
        p = tmp_path / "sweep.json"
        save_result(p, sweep)
        loaded = load_result(p)
        assert isinstance(loaded, SweepResult)
        assert loaded.scenario == sweep.scenario
        assert np.array_equal(loaded.proc_counts, sweep.proc_counts)
        assert np.allclose(loaded.mean_us, sweep.mean_us)

    def test_fig1_result(self, tmp_path):
        res = run_fig1(bursts_per_cpu=50)
        p = tmp_path / "fig1.json"
        save_result(p, res)
        loaded = load_result(p)
        assert loaded.green_overlapped == res.green_overlapped

    def test_dict_of_results(self, tmp_path):
        res = run_fig1(bursts_per_cpu=50)
        p = tmp_path / "both.json"
        save_result(p, {"a": res, "b": res})
        loaded = load_result(p)
        assert loaded["a"].n_cpus == res.n_cpus

    def test_unknown_type_raises_on_load(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"type": "NoSuchResult", "fields": {}}')
        with pytest.raises(KeyError):
            load_result(p)

    def test_builtin_registry_populated(self, tmp_path):
        p = tmp_path / "fig1.json"
        save_result(p, run_fig1(bursts_per_cpu=50))
        load_result(p)  # the first load registers every shipped type
        for name in ("SweepResult", "Fig1Result", "SpeedupResult", "AblationResult"):
            assert name in REGISTRY


class TestLoadInFreshInterpreter:
    """``load_result`` knows the shipped types whatever the caller imported."""

    @staticmethod
    def _loaded_type_names(paths) -> list:
        code = ("import json, sys\nfrom repro.results import load_result\n"
                "print(json.dumps([type(load_result(p)).__name__ for p in sys.argv[1:]]))")
        out = subprocess.run([sys.executable, "-c", code, *map(str, paths)],
                             check=True, capture_output=True, text=True).stdout
        return json.loads(out)

    def test_policy_results_round_trip(self, tmp_path):
        subprocess.run([sys.executable, "-m", "repro.experiments.cli", "policy", "--quick",
                        "--results", str(tmp_path)], check=True, capture_output=True)
        assert self._loaded_type_names([tmp_path / "policyzoo.json"]) == ["PolicyZooResult"]

    def test_every_cli_json_type_resolves(self, tmp_path):
        classes = (SweepResult, ResilienceResult, E9Result, PolicyZooResult, E14Result,
                   PdesResult)
        paths = []
        for cls in classes:
            path = tmp_path / f"{cls.__name__}.json"
            fields = {f.name: None for f in dataclasses.fields(cls)}
            path.write_text(json.dumps({"type": cls.__name__, "fields": fields}))
            paths.append(path)
        assert self._loaded_type_names(paths) == [cls.__name__ for cls in classes]


class TestValidation:
    def test_fast_checks_pass(self):
        from repro.experiments.validate import (
            _check_base_latency,
            _check_des_model_agreement,
            _check_noise_budget,
            format_validation,
        )

        checks = [_check_noise_budget(), _check_base_latency(), _check_des_model_agreement()]
        assert all(c.passed for c in checks)
        out = format_validation(checks)
        assert "PASS" in out and "all anchors hold" in out

    def test_format_reports_failures(self):
        from repro.experiments.validate import ValidationCheck, format_validation

        out = format_validation(
            [ValidationCheck("x", False, "broke"), ValidationCheck("y", True, "ok")]
        )
        assert "FAIL" in out and "1 anchor(s) FAILED" in out
