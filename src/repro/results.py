"""Result serialisation: experiment outputs ↔ JSON.

Experiment runners return plain dataclasses (possibly holding numpy
arrays).  This module round-trips them through JSON so sweeps can be
archived next to EXPERIMENTS.md, diffed across calibrations, or re-plotted
without re-simulating.

The format is deliberately simple: ``{"type": <registered name>,
"fields": {...}}`` with numpy arrays stored as lists and rebuilt on load.
Only registered result types load back as objects; anything else raises —
loading should never silently produce a half-typed dict.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
from typing import Any, Type

import numpy as np

from repro.atomicio import atomic_write

__all__ = [
    "register_result",
    "save_result",
    "load_result",
    "to_jsonable",
    "canonical_dumps",
    "rank_digest",
    "REGISTRY",
]

#: name -> dataclass for reconstruction.
REGISTRY: dict[str, Type] = {}

#: The modules whose result classes register themselves (with
#: :func:`register_result`) on import.
_RESULT_MODULES = tuple(
    f"repro.experiments.{name}"
    for name in (
        "ablation", "ale3d_io", "common", "e14_meanfield", "e9_resume", "extensions", "fig1",
        "pdes", "policyzoo", "resilience", "speedup", "timer_threads", "workloads",
    )
)


def register_result(cls: Type) -> Type:
    """Class decorator/registrar making a result dataclass serialisable."""
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls!r} is not a dataclass")
    REGISTRY[cls.__name__] = cls
    return cls


#: Exact types :func:`to_jsonable` returns unchanged before any other
#: test.  Subclasses (``np.float64``, ``IntEnum``) take the full chain.
_PLAIN = frozenset({str, int, float, bool, type(None)})


def to_jsonable(value: Any, fallback=None) -> Any:
    """Recursively convert dataclasses/arrays/tuples to JSON-native data.

    *fallback*, when given, is applied to any value this function cannot
    serialise instead of raising; it must return JSON-able data (its
    result is converted recursively too).  The store's fingerprint layer
    uses it to encode callables in trial params by qualified name.
    """
    if type(value) in _PLAIN:
        return value
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "type": type(value).__name__,
            "fields": {
                f.name: to_jsonable(getattr(value, f.name), fallback)
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        return {str(k): to_jsonable(v, fallback) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v, fallback) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if fallback is not None:
        return to_jsonable(fallback(value), fallback)
    raise TypeError(f"cannot serialise {type(value).__name__}: {value!r}")


#: The one encoder :func:`canonical_dumps` uses (it keeps no state
#: between calls; ``json.dumps`` with these options would build a new one
#: per call).
_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False, ensure_ascii=False
)


def canonical_dumps(obj: Any) -> str:
    """*The* canonical JSON encoding: one byte sequence per value.

    Everything that is hashed or checksummed — store record bytes, spec
    fingerprints (:mod:`repro.store`) — must go through this function so
    "same data" always means "same bytes": keys sorted, separators fixed
    (no whitespace), unicode kept as-is.  NaN and Infinity are rejected
    with a clear error instead of being emitted as the non-JSON literals
    ``NaN``/``Infinity`` that :func:`json.dumps` writes by default —
    a fingerprint over non-interoperable bytes would be a landmine.

    Human-facing files (journal entries, archived results) keep their
    indented layouts; canonical bytes are for integrity, not for reading.
    """
    try:
        return _CANONICAL.encode(obj)
    except ValueError as exc:
        raise ValueError(
            "canonical JSON cannot encode NaN/Infinity (or other "
            f"out-of-range floats): {exc}"
        ) from exc


def rank_digest(n_ranks: int, ranks: dict, ok: bool, elapsed_us: float) -> str:
    """SHA-256 of a run's rank-visible outcome: the recorded ranks'
    per-call durations (*ranks*, ``{str(rank): [us, ...]}``), whether
    every reduction returned the right value, and the makespan.

    Event counts stay out: they are work done, not a result.
    """
    payload = {"n_ranks": n_ranks, "ranks": ranks, "ok": ok, "elapsed_us": elapsed_us}
    return hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()


def _from_jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.asarray(value["__ndarray__"], dtype=value.get("dtype", "float64"))
        if "type" in value and "fields" in value:
            name = value["type"]
            cls = REGISTRY.get(name)
            if cls is None:
                raise KeyError(
                    f"unknown result type {name!r}; register it with register_result"
                )
            fields = {k: _from_jsonable(v) for k, v in value["fields"].items()}
            return cls(**fields)
        return {k: _from_jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_from_jsonable(v) for v in value]
    return value


def save_result(path, result: Any) -> None:
    """Write a registered result dataclass (or a dict of them) as JSON.

    The write is atomic: a crash mid-serialisation (hours into a sweep)
    cannot truncate or corrupt a previously saved file.
    """
    atomic_write(path, lambda fh: json.dump(to_jsonable(result), fh, indent=1))


def load_result(path) -> Any:
    """Load a result written by :func:`save_result`.

    Imports the modules of ``_RESULT_MODULES`` first, so every shipped
    result type is registered whatever the caller has imported.
    """
    for module in _RESULT_MODULES:
        importlib.import_module(module)
    with open(path, "r", encoding="utf-8") as fh:
        return _from_jsonable(json.load(fh))
