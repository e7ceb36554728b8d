"""Deterministic *harness-level* fault plans: killing our own workers.

The chaos engine in this package fuzzes the *simulated* cluster.  This
module points the same seed-stream discipline at the execution substrate
itself: given a harness-chaos seed, every trial key gets a pure-function
fault plan — die this many times, in this mode, at this point — drawn
from its own named :mod:`repro.rng` stream (``harness.kill.<key>``).
Keying the stream by trial key (rather than by worker or by dispatch
order) is what makes the plan independent of scheduling: ``--jobs 2``
and ``--jobs 4`` kill exactly the same attempts of exactly the same
trials, so the supervised runner's retry counts, backoff sequences, and
final journals are comparable across worker counts — the property
``tests/test_supervisor.py`` pins.

Modes:

* ``crash`` — the worker ``os._exit``\\ s mid-trial, as an OOM kill or
  segfault would.  ``point`` refines it: ``pre`` dies before the trial
  function runs; ``mid`` dies after computing the record but before
  reporting it, so the finished work is lost and the parent sees only a
  crash.
* ``hang`` — the worker goes silent (no heartbeats) without exiting,
  the failure only a missed-heartbeat deadline can catch.

``kills`` is capped at 2 draws so any plan is transient under the
default ``max_retries=3``: a chaos campaign retries through every
injected kill and converges to the same results as a clean serial run.
Poison behaviour (quarantine) is exercised by planting genuinely
poisonous trial functions, not by the plan.

**Store faults.**  The same seed-stream discipline also attacks the
content-addressed result store (:mod:`repro.store`): every stored
fingerprint gets its own plan from stream ``harness.store.<fingerprint>``
— torn record (truncated write), bit flip (silent media corruption),
duplicate identical writer (benign by the canonical-bytes contract), or
left alone — plus one injected crash-mid-GC (a mark journal with no
completed sweep).  ``store fsck`` must detect every one of the damaging
injections, ``fsck --repair`` must return the store to clean, and the
``dup`` axis must produce *zero* findings; that is the store-chaos
acceptance loop ``tests/test_contract.py`` drives through the CLI.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.rng import StreamFactory

__all__ = [
    "HarnessFault",
    "plan_for",
    "injection_for",
    "StoreFault",
    "STORE_FAULT_MODES",
    "store_plan_for",
    "inject_store_fault",
    "inject_interrupted_gc",
]

@dataclass(frozen=True)
class HarnessFault:
    """The fault plan for one trial key under one harness-chaos seed."""

    #: ``None`` (left alone), ``"crash"``, or ``"hang"``.
    mode: Optional[str]
    #: Attempts ``0 .. kills-1`` are killed; attempt ``kills`` survives.
    kills: int
    #: For crashes: ``"pre"`` (before the trial runs) or ``"mid"``
    #: (after computing, before reporting).  Irrelevant for hangs.
    point: str


def plan_for(chaos_seed: int, key: str) -> HarnessFault:
    """The fault plan for *key* — a pure function of ``(seed, key)``.

    All three axes are drawn unconditionally and in a fixed order so the
    plan never shifts when one draw's interpretation changes.
    """
    rng = StreamFactory(int(chaos_seed)).stream(f"harness.kill.{key}")
    r_mode = float(rng.random())
    point = "pre" if float(rng.random()) < 0.5 else "mid"
    kills = 2 if float(rng.random()) < 0.25 else 1
    if r_mode < 0.45:
        return HarnessFault(None, 0, point)
    if r_mode < 0.85:
        return HarnessFault("crash", kills, point)
    return HarnessFault("hang", kills, point)


def injection_for(
    chaos_seed: int, key: str, attempt: int
) -> Optional[tuple[str, str]]:
    """What attempt *attempt* of *key* should suffer: ``(mode, point)``
    to inject, or ``None`` to run the trial honestly."""
    plan = plan_for(chaos_seed, key)
    if plan.mode is not None and attempt < plan.kills:
        return plan.mode, plan.point
    return None


# ---------------------------------------------------------------------------
# Store faults: attacking the content-addressed result store's bytes.

#: Damage modes a store record can be dealt.  ``torn`` and ``bitflip``
#: must be *detected* (fsck finding, quarantined on read); ``dup`` must
#: be *survived silently* (identical bytes are the benign case).
STORE_FAULT_MODES = ("torn", "bitflip", "dup")


@dataclass(frozen=True)
class StoreFault:
    """The fault plan for one stored fingerprint under one chaos seed."""

    #: ``None`` (left alone) or one of :data:`STORE_FAULT_MODES`.
    mode: Optional[str]


def store_plan_for(chaos_seed: int, fingerprint: str) -> StoreFault:
    """The store-fault plan for *fingerprint* — a pure function of
    ``(seed, fingerprint)``, so re-running a chaos campaign against the
    same store damages exactly the same records."""
    rng = StreamFactory(int(chaos_seed)).stream(f"harness.store.{fingerprint}")
    r = float(rng.random())
    if r < 0.40:
        return StoreFault(None)
    if r < 0.65:
        return StoreFault("torn")
    if r < 0.90:
        return StoreFault("bitflip")
    return StoreFault("dup")


def inject_store_fault(store, fingerprint: str, mode: str) -> bool:
    """Deal *mode* damage to the record at *fingerprint* in-place.

    Writes are deliberately *non*-atomic — the whole point is simulating
    the failure modes the store's own write discipline rules out (torn
    half-writes, flipped bits under the checksum).  Returns ``False`` if
    no record exists at that fingerprint.
    """
    if mode not in STORE_FAULT_MODES:
        raise ValueError(f"unknown store fault mode {mode!r}; pick from {STORE_FAULT_MODES}")
    path = store.object_path(fingerprint)
    if not path.is_file():
        return False
    data = path.read_bytes()
    if mode == "torn":
        path.write_bytes(data[: len(data) // 2])
    elif mode == "bitflip":
        i = len(data) // 2
        path.write_bytes(data[:i] + bytes([data[i] ^ 0x01]) + data[i + 1 :])
    else:  # dup: an identical concurrent writer landed the same bytes again
        path.write_bytes(data)
    return True


def inject_interrupted_gc(store, chaos_seed: int) -> str:
    """Simulate a crash mid-GC: mark written, sweep never run.

    Plants one deterministic bait record and a ``gc/mark.json`` whose
    dead list names *only* that bait, then "crashes" before sweeping.
    fsck must flag ``interrupted-gc``; ``--repair`` (or the next
    :meth:`~repro.store.ResultStore.gc`) completes the sweep, removing
    the bait and leaving every real record untouched — so a warm rerun
    after repair still serves every trial from the store.  Returns the
    bait fingerprint.
    """
    from repro.store.records import encode_record
    from repro.atomicio import atomic_write_bytes

    bait_key = f"chaos-gc-bait-s{int(chaos_seed)}"
    bait_fp = hashlib.sha256(bait_key.encode("utf-8")).hexdigest()
    store.put(bait_fp, bait_key, {"chaos": "gc-bait", "seed": int(chaos_seed)})
    mark = encode_record({"kind": "gc-mark", "dead": [bait_fp]})
    atomic_write_bytes(store.gc_mark_path, mark)
    return bait_fp
