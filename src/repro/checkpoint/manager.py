"""Policy-driven checkpoint writing and replay-based restore.

A checkpoint file is a pickled dict::

    {"version": 1, "builder": "pkg.mod:fn", "args": {...},
     "sim_now": float, "events_processed": int,
     "fingerprint": sha256-hex, "state": <canonical state dict>}

No wall-clock timestamps or machine identifiers go into the payload —
two checkpoints of the same run at the same position are byte-comparable.

Restore does **not** unpickle live simulation objects (suspended
generators can't be pickled): it imports the builder its ``"pkg.mod:fn"``
reference names, so a fresh interpreter restores any checkpoint, rebuilds
the run and replays the deterministic event calendar up to the saved
position, then verifies that the replayed state's fingerprint matches
the stored one bit-for-bit.  A mismatch — a code change, a non-replayed
source of randomness, a wall-clock dependency — raises
:class:`RestoreMismatch` naming the first diverging state path.

Writes are atomic (temp file in the target directory + ``os.replace``)
and pruned to ``CheckpointPolicy.keep_last``, so a crash mid-write never
leaves a truncated checkpoint and disk use is bounded.
"""

from __future__ import annotations

import pickle
import re
from pathlib import Path
from typing import Optional

from repro.atomicio import atomic_write
from repro.checkpoint.monitor import InvariantError, InvariantMonitor
from repro.checkpoint.snapshot import capture_state, state_fingerprint
from repro.config import CheckpointPolicy
from repro.experiments.runner import resolve_trial_fn

__all__ = ["CheckpointError", "RestoreMismatch", "CheckpointManager", "list_checkpoints"]

FORMAT_VERSION = 1

_CKPT_NAME = re.compile(r"^ckpt-e(\d{12})\.pkl$")


class CheckpointError(RuntimeError):
    """Base class for checkpoint read/write failures."""


class RestoreMismatch(CheckpointError):
    """Replay reached the saved position but the state differs."""


def _first_divergence(saved, replayed, path: str = "$") -> str:
    """Human-readable path of the first difference between two states."""
    if type(saved) is not type(replayed):
        return f"{path}: type {type(saved).__name__} != {type(replayed).__name__}"
    if isinstance(saved, dict):
        for k in saved:
            if k not in replayed:
                return f"{path}.{k}: missing after replay"
            if saved[k] != replayed[k]:
                return _first_divergence(saved[k], replayed[k], f"{path}.{k}")
        for k in replayed:
            if k not in saved:
                return f"{path}.{k}: appeared after replay"
        return f"{path}: dicts compare unequal but no key differs"
    if isinstance(saved, list):
        if len(saved) != len(replayed):
            return f"{path}: length {len(saved)} != {len(replayed)}"
        for i, (a, b) in enumerate(zip(saved, replayed)):
            if a != b:
                return _first_divergence(a, b, f"{path}[{i}]")
        return f"{path}: lists compare unequal but no element differs"
    return f"{path}: {saved!r} != {replayed!r}"


def list_checkpoints(directory) -> list[Path]:
    """Checkpoint files in *directory*, oldest first (by event position)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for p in directory.iterdir():
        m = _CKPT_NAME.match(p.name)
        if m:
            found.append((int(m.group(1)), p))
    return [p for _, p in sorted(found)]


class CheckpointManager:
    """Writes checkpoints of one run per a :class:`CheckpointPolicy`.

    Parameters
    ----------
    driver:
        The run driver (must expose ``.system``); what *builder* returns.
    builder, args:
        ``"pkg.mod:fn"`` reference to a module-level builder and the
        picklable kwargs that rebuild *driver* with it — the replay
        recipe stored in every checkpoint file.
    policy:
        Cadence and retention.
    out_dir:
        Directory for checkpoint files (created if needed).
    """

    def __init__(
        self,
        driver,
        builder: str,
        args: dict,
        policy: CheckpointPolicy,
        out_dir,
    ) -> None:
        self.driver = driver
        self.builder = builder
        self.args = dict(args)
        self.policy = policy
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.written: list[Path] = []
        self.monitor = InvariantMonitor(driver.system)
        self._last_sim = driver.system.sim.now

    @property
    def system(self):
        return self.driver.system

    # ------------------------------------------------------------------
    # Cadence
    # ------------------------------------------------------------------
    def due(self) -> bool:
        """Is a checkpoint due under the policy's cadence?"""
        p = self.policy
        return p.enabled and self.system.sim.now - self._last_sim >= p.interval_sim_us

    def tick(self) -> Optional[Path]:
        """Write a checkpoint if one is due; the driver's advance loop
        calls this between ``run_until`` chunks."""
        if self.due():
            return self.write()
        return None

    # ------------------------------------------------------------------
    # Write
    # ------------------------------------------------------------------
    def write(self) -> Path:
        """Capture, fingerprint, and atomically write one checkpoint.

        Runs the invariant monitor first — a checkpoint of a corrupted
        state would replay its corruption.
        """
        sim = self.system.sim
        report = self.monitor.check()
        if not report.ok:
            raise InvariantError(report)
        state = capture_state(self.system)
        payload = {
            "version": FORMAT_VERSION,
            "builder": self.builder,
            "args": self.args,
            "sim_now": sim.now,
            "events_processed": sim.events_processed,
            "fingerprint": state_fingerprint(state),
            "state": state,
        }
        final = self.out_dir / f"ckpt-e{sim.events_processed:012d}.pkl"
        atomic_write(
            final,
            lambda fh: pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL),
            binary=True,
        )
        if final not in self.written:
            self.written.append(final)
        self._last_sim = sim.now
        self._prune()
        return final

    def _prune(self) -> None:
        keep = self.policy.keep_last
        while len(self.written) > keep:
            victim = self.written.pop(0)
            try:
                victim.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------
    @classmethod
    def restore(
        cls,
        path,
        policy: Optional[CheckpointPolicy] = None,
        out_dir=None,
    ) -> "CheckpointManager":
        """Rebuild the run from *path* and replay to the saved position.

        Returns a fresh manager wrapping the restored driver, ready to
        continue checkpointing into *out_dir* (defaults to the file's own
        directory) under *policy* (defaults to a disabled policy when not
        given — callers resuming a run normally pass their own).  The
        checkpoints already in *out_dir* count against ``keep_last``.
        """
        path = Path(path)
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        if payload.get("version") != FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: format version {payload.get('version')!r}, "
                f"expected {FORMAT_VERSION}"
            )
        driver = resolve_trial_fn(payload["builder"])(**payload["args"])
        sim = driver.system.sim
        sim.run_until(payload["sim_now"])
        if sim.events_processed != payload["events_processed"]:
            raise RestoreMismatch(
                f"{path}: replay processed {sim.events_processed} events, "
                f"checkpoint recorded {payload['events_processed']} — the "
                f"builder no longer reproduces the checkpointed run"
            )
        if policy is None:
            policy = CheckpointPolicy()
        manager = cls(
            driver,
            payload["builder"],
            payload["args"],
            policy,
            out_dir if out_dir is not None else path.parent,
        )
        manager.written = list_checkpoints(manager.out_dir)
        state = capture_state(driver.system)
        if state_fingerprint(state) != payload["fingerprint"]:
            where = _first_divergence(payload["state"], state)
            raise RestoreMismatch(
                f"{path}: replayed state diverges from checkpoint at "
                f"{where}"
            )
        return manager

    @classmethod
    def resume_latest(
        cls,
        directory,
        policy: Optional[CheckpointPolicy] = None,
        out_dir=None,
    ) -> Optional["CheckpointManager"]:
        """Restore from the newest checkpoint in *directory*, or None when
        the directory holds no checkpoint (caller starts fresh)."""
        found = list_checkpoints(directory)
        if not found:
            return None
        return cls.restore(found[-1], policy=policy, out_dir=out_dir)
