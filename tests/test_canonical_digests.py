"""Byte identity of the canonical encodings the result store hashes.

Store records, key-index entries and spec fingerprints are all SHA-256s
or byte compares over :func:`repro.results.canonical_dumps` of
:func:`repro.results.to_jsonable` data.  Any change to those two
functions, to :func:`repro.store.records.encode_record` or to
:func:`repro.store.fingerprint.spec_fingerprint` must leave every byte
the same, or every stored trial stops matching its address.  Each case
below pins a SHA-256 over one encoding of a value that takes a different
branch: nested dataclasses, importable callables in params, numpy
scalars and arrays, an ``IntEnum``, ``bool``, ``-0.0``, big ints,
tuples, non-ASCII keys.  The two rejections (NaN/Infinity, a local
callable) keep their messages, and numpy booleans encode like ``bool``.
"""

import dataclasses
import enum
import hashlib

import numpy as np
import pytest

from repro.config import KernelConfig
from repro.experiments.common import PROTO16, VANILLA16, allreduce_trial_specs, make_config
from repro.experiments.runner import TrialSpec
from repro.results import canonical_dumps, to_jsonable
from repro.store import encode_record, spec_fingerprint


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


@dataclasses.dataclass(frozen=True)
class Inner:
    weight: float
    tags: tuple


@dataclasses.dataclass(frozen=True, eq=False)
class Outer:
    name: str
    inner: Inner
    samples: np.ndarray
    level: Level


def _corpus() -> dict:
    outer = Outer("ü-outer", Inner(-0.0, ("a", 1, (2.5, None))),
                  np.arange(6, dtype=np.float64).reshape(2, 3) / 7, Level.HIGH)
    return {
        "nested_dataclass": outer,
        "machine_config": make_config(PROTO16, 32, seed=3).machine,
        "mpi_config": make_config(VANILLA16, 32, seed=3).mpi,
        "numpy_scalars": {"i64": np.int64(-7), "f64": np.float64(0.1),
                          "i32": np.int32(2**31 - 1), "f32": np.float32(1.5)},
        "numpy_arrays": [np.array([1, 2, 3], dtype=np.int64),
                         np.array([[0.5, -0.0], [1e300, 5e-324]]),
                         np.array([True, False]), np.zeros((0, 2))],
        "int_enum": [Level.LOW, {Level.HIGH: Level.LOW}],
        "bools_and_none": [True, False, None, {"t": True, "n": None}],
        "floats": [-0.0, 0.0, 0.1, 1e-310, 1.7976931348623157e308, 2.0**53 + 1, 1 / 3],
        "big_ints": [2**70, -(2**65), 10**30 + 1, 0, -1],
        "tuples": (1, (2, (3, ("four",))), ()),
        "non_ascii_keys": {"λ": 1, "ü": [2], "日本": {"é": "é"}, "\U0001f600": "x",
                           "a\"b\n": "\t\\", "\x7f": " "},
        "int_keys": {3: "c", 1: "a", 10: "j", "2": "b"},
        "strings": ["", "plain", "quote\"back\\slash", "ctrl\x00\x1f", "퟿", np.str_("np-str")],
    }


#: sha256(canonical_dumps(to_jsonable(value))) per corpus entry.
DUMPS = {
    "nested_dataclass": "01292ff1748490be7a90dcfc0ecb7240c7743e4d4c8967859f88fdebc7b3ca61",
    "machine_config": "ee46b1d57a813449e9acad1011bf3988640878ffe0fad27e0408c535af759559",
    "mpi_config": "60a30a3fcc85741c2bb190c1498cde0b9893eb843bb3828142a65da1e1b994a9",
    "numpy_scalars": "052b135e6e0e173263d78c600e6425ff8aa493cd748f563e29c5c1418fa00666",
    "numpy_arrays": "04a858db77576fef716b4f460be4b4652e4e6aa448af14d1aeec667dca50bb7b",
    "int_enum": "3adbabdcffbf20f280202f8fe89bc378660676d3af3c9e2580227bce860a727d",
    "bools_and_none": "44083c3fc50d6ce970fb9a9e9d0bc372cff8e5bc851d4ac5e5ae13d696efb093",
    "floats": "47a4df08a9c0fb1927019cfd1f1bf943390e9d395fd7785e0009522799565f1a",
    "big_ints": "e80d040de69861dc90b336c12c16370123dd0034fc9a2f08b2e8d2f40fa48623",
    "tuples": "029a4b58ad93cb5fc3e8df9a232afa1924534d078bb1abbeadd6e3599567d628",
    "non_ascii_keys": "3eb4860567935df4a7e12c95ee7a1d735d6716bc7b0b3f44a569e24673af1899",
    "int_keys": "d9af8518e0b2c2d88c8c5fcfa890b9c81ccb87ed08e610e8193f468dd465066f",
    "strings": "99ee1adf1009f4e6a7e4e23d997936e798fbaab9ed4e79aa2d89380112848604",
}

#: sha256(encode_record(...)) of a store record holding each corpus entry.
RECORDS = {
    "nested_dataclass": "6356d77e8050d7ce65676333412197cc5af67b736cf8b1d4cadffbe9799f9dde",
    "machine_config": "255d28f134d75385354360509481c9dcf38a819b7395e4afc9693c59a5681788",
    "mpi_config": "19a3e4ce13571eb22709fc5ca1658f4b3452f4967212dafca5143eaf5aa861ef",
    "numpy_scalars": "e435efb7814800cd7644bf669c8ed8a6fbc202abd58d3503259d6120eccafc54",
    "numpy_arrays": "f2025e598376f188e7d89ffbb0eaed7c8b806dc2c565a5544dfd909c5e7ec254",
    "int_enum": "40c131ebe97c7defbe0ca99f5271b693a26d50de0194a7dcf67f593ee3c62746",
    "bools_and_none": "a9966fbc93bd8fb8e1ed0572776a1a75bfa5c2225d6fd3cc53666c437825252c",
    "floats": "5bd08a54c0405031a9505ab091d5d24a22230a8c5e3b9ff25a599146ea58c8a2",
    "big_ints": "befc7426ca7ec7e1021810405cf9c383adbb012d36c7766b4c2c43fed5c0aee3",
    "tuples": "c49b8a788c5d58b4702fe8ef71e7502169f7f53d97ff019b3534981f94dc8907",
    "non_ascii_keys": "9e769473753fbd64e51b2199012d33161b5641e0a6e753981c49e5ce2b549aca",
    "int_keys": "107021467ca2dda3f8b7926bf9471adf364948c5c5132acffb88acf25699a931",
    "strings": "b216ded5b151853d4772b4584ed6fe1180c8dcdbe39c493e215caa64469b2e7d",
}

#: spec_fingerprint(..., version="pin") of specs built from the corpus.
FINGERPRINTS = {
    "nested_dataclass": "e549496b485c6ee60090f71c7f49f65a8a5ff20f72c1810f05765e9c276b1dca",
    "machine_config": "26405d4288ff692599507d4237c11e87ba1eb9e45b19696376c99efc49951769",
    "mpi_config": "85e935f55019fc8f3ab261ca191ddba9b172301e55d9e94fdcfe8a99e48f7ca6",
    "numpy_scalars": "ae6662e46c4ea58ec09fea780888a51a44bebcec8ba9bfb818dd0877e6136c03",
    "numpy_arrays": "3949ff297a884dfb4576b2688cdd83281cccc6d1456843b8e755846ca074fcb3",
    "int_enum": "ec07817e276f6307e06f463b3cd63ecf7ec3831c64ea0bb8f25fbc7a6cf30ed9",
    "bools_and_none": "a838a6e8e649655f0032bb42b7875836569c20955b8935fa9c4627b3131c6377",
    "floats": "20927dc845f17a06f280d131d5fbe9a3c2d85fca5bfda516940ef3ec82f6b6e1",
    "big_ints": "76c16631100cdc6291f834ff64cae2e36585deccd2bc84a915067c0c9e632770",
    "tuples": "511f3982097dc1fad299c68f54d6be5813aa19080b2a191dc4628fb448900ca5",
    "non_ascii_keys": "1c503dcea559e62fa91027513fe3c7cbba3cf927bd9ff974ac4e55a48b946512",
    "int_keys": "80ff0a424f134a092a05c4caa42e369e931984fcfa19780a79da25f0ee77ac4c",
    "strings": "be43c78a93221418470841da3290d419565d536c3adf6116af5cf7a3d97cdec5",
    "callables": "91e3625a7dbecc5ab63935c12597d52e0e9eeea13183a069bc9154408356257f",
    "vanilla16-n128-s0": "bc40b299f85ae84b95f2da5f3bf43eda45555a585d9cd24690657e9f31061d5c",
    "vanilla16-n128-s1": "3934b31bad10917cad4691f981f78d9c20eb8b206c5d7db67a1624a3c507ec54",
    "vanilla16-n944-s0": "4f6a1164d71aaf97f86da5b1f477502f2de79036e6b8e933c600a5628ac536ec",
    "vanilla16-n944-s1": "9b8b8dd8be9629fb23dc6890627c27ff4cad90f6bdb702ef02c7b17b76bfc59f",
}


def _sha(text) -> str:
    data = text if isinstance(text, bytes) else text.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _dumps_digests() -> dict:
    return {name: _sha(canonical_dumps(to_jsonable(v))) for name, v in _corpus().items()}


def _record_digests() -> dict:
    return {
        name: _sha(encode_record({"fingerprint": "ab" * 32, "key": f"k-{name}",
                                  "status": "ok", "record": to_jsonable(v)}))
        for name, v in _corpus().items()
    }


def _fingerprints() -> dict:
    corpus = _corpus()
    specs = {
        name: TrialSpec(f"pin-{name}", "tests.test_canonical_digests:_corpus", {"v": v})
        for name, v in corpus.items()
    }
    specs["callables"] = TrialSpec(
        "pin-callables", "m:f",
        {"factory": KernelConfig.prototype, "vanilla": KernelConfig.vanilla,
         "scenarios": (PROTO16, VANILLA16), "fn": _corpus},
    )
    for spec in allreduce_trial_specs(VANILLA16, (128, 944), 10, 2, base_seed=1000):
        specs[spec.key] = spec
    return {name: spec_fingerprint(spec, version="pin") for name, spec in specs.items()}


def test_canonical_dumps_bytes_are_pinned():
    assert _dumps_digests() == DUMPS


def test_encode_record_bytes_are_pinned():
    assert _record_digests() == RECORDS


def test_spec_fingerprints_are_pinned():
    assert _fingerprints() == FINGERPRINTS


def test_to_jsonable_keeps_numpy_and_enum_conversions():
    out = to_jsonable({"f": np.float64(0.25), "i": np.int64(3), "e": Level.HIGH,
                       "t": (True, None)})
    assert type(out["f"]) is float and type(out["i"]) is int
    assert out["e"] is Level.HIGH and out["t"] == [True, None]


def test_numpy_bools_encode_like_python_bools():
    for flag in (True, False):
        out = to_jsonable(np.bool_(flag))
        assert type(out) is bool and out is flag
        assert (canonical_dumps(to_jsonable({"ok": np.bool_(flag)}))
                == canonical_dumps({"ok": flag}))
        spec = TrialSpec("pin-bool", "m:f", {"ok": np.bool_(flag)})
        assert spec_fingerprint(spec, version="pin") == spec_fingerprint(
            TrialSpec("pin-bool", "m:f", {"ok": flag}), version="pin")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 {"x": [1.0, float("nan")]}])
def test_nan_and_infinity_keep_their_message(bad):
    with pytest.raises(ValueError) as info:
        canonical_dumps(bad)
    assert str(info.value) == (
        "canonical JSON cannot encode NaN/Infinity (or other out-of-range "
        "floats): Out of range float values are not JSON compliant"
    )


def test_local_callable_keeps_its_message():
    def local():
        return None

    for fn in (local, lambda: None):
        with pytest.raises(TypeError) as info:
            spec_fingerprint(TrialSpec("s", "m:f", {"fn": fn}))
        msg = str(info.value)
        assert msg.startswith(f"cannot fingerprint local/lambda callable {fn!r}")
        assert msg.endswith(": it has no stable cross-process identity; use an "
                            "importable top-level name")
