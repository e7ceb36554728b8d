"""Crash-safe file writes: temp file + fsync + ``os.replace``.

Every durable artifact the harness leaves behind — saved results,
journal entries, result-store records, simulation checkpoints — is
written through :func:`atomic_write`, so a crash (or an exception from
the serialiser) at any point leaves either the previous file intact or
the new file whole, never a truncated mix, and no temp file behind.

A leaf module: it imports nothing from :mod:`repro`, so any layer can
use it without an import cycle.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import IO, Any, Callable

__all__ = ["atomic_write", "atomic_write_bytes"]


def atomic_write(path, write_fn: Callable[[IO], Any], binary: bool = False) -> None:
    """Write *path* atomically: *write_fn(fh)* streams into a temp file in
    the destination directory (created if missing), which is fsynced and
    renamed over *path*.  *fh* is a UTF-8 text handle, or a binary one
    when *binary* is set.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb" if binary else "w", encoding=None if binary else "utf-8") as fh:
            write_fn(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_bytes(path, data: bytes) -> None:
    """:func:`atomic_write` of a ready-made byte string."""
    atomic_write(path, lambda fh: fh.write(data), binary=True)
