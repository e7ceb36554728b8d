"""Trial fingerprints: the store's content-addressed keys.

A trial is a pure function of its :class:`~repro.experiments.runner.TrialSpec`
— that is the determinism contract every byte-identity test in this repo
pins — so its result can be keyed by a canonical fingerprint of
``(spec, code version)`` and memoized across runs, campaigns, and
machines.  The fingerprint is the SHA-256 of the canonical JSON encoding
(:func:`repro.results.canonical_dumps`) of the spec's key, trial-function
reference, params, and the code version; two specs that could ever
compute different results must fingerprint differently.

Params may contain dataclasses (``Scenario`` and friends) and importable
callables (e.g. ``KernelConfig.prototype`` held in a scenario field);
callables are encoded by qualified name, which is exactly the identity
the spec's ``"module:function"`` convention already relies on.  A local
or lambda callable has no stable cross-process name and is rejected
loudly — memoizing on it would be a lie.

``code_version()`` salts every fingerprint: results only hit the cache
while the code that produced them is current.  It reads
``REPRO_CODE_VERSION`` when set (CI can pass a commit hash) and falls
back to the package version — bump one of them when changing anything
that affects trial results, or stale hits will be served.  The store's
determinism oracle (:class:`repro.store.DeterminismViolation`) catches
the failure mode where the version was *not* bumped but results drifted.
"""

from __future__ import annotations

import hashlib
import os

from repro import __version__
from repro.results import canonical_dumps, to_jsonable

__all__ = ["code_version", "spec_fingerprint", "fingerprint_payload"]

#: Environment override for the code-version salt (e.g. a commit hash).
VERSION_ENV_VAR = "REPRO_CODE_VERSION"


def code_version() -> str:
    """The code-version salt baked into every fingerprint."""
    env = os.environ.get(VERSION_ENV_VAR, "").strip()
    if env:
        return env
    return __version__


def _callable_fallback(value):
    """Encode an importable callable by qualified name; reject the rest."""
    if callable(value):
        mod = getattr(value, "__module__", None)
        qualname = getattr(value, "__qualname__", None)
        if mod and qualname and "<locals>" not in qualname and "<lambda>" not in qualname:
            return {"__callable__": f"{mod}:{qualname}"}
        raise TypeError(
            f"cannot fingerprint local/lambda callable {value!r}: it has no "
            "stable cross-process identity; use an importable top-level name"
        )
    raise TypeError(
        f"cannot fingerprint {type(value).__name__}: {value!r} — trial params "
        "must be pure data (or importable callables)"
    )


def fingerprint_payload(spec, version: str = None) -> dict:
    """The exact JSON-able payload a fingerprint hashes (for forensics)."""
    return {
        "code_version": version if version is not None else code_version(),
        "fn": spec.fn,
        "key": spec.key,
        "params": to_jsonable(spec.params, fallback=_callable_fallback),
    }


def spec_fingerprint(spec, version: str = None) -> str:
    """Content-addressed key for *spec* under *version* (hex SHA-256)."""
    payload = fingerprint_payload(spec, version)
    return hashlib.sha256(canonical_dumps(payload).encode("utf-8")).hexdigest()
