"""Deterministic checkpoint/restore, invariant monitors, crash-safe harness.

Generator-based threads cannot be pickled, so checkpoints are
*replay-based*: a checkpoint stores a ``"pkg.mod:fn"`` reference to the
builder that creates the run, the builder's (picklable) arguments, the
simulation position, and a fingerprint of the complete captured state;
restore imports the builder, rebuilds the run, replays the event
calendar up to the saved position, then verifies the fingerprint
bit-for-bit.  Event replay is
exact because the simulator is deterministic and chunked ``run_until``
calls process the same event sequence as a single one.

Public surface:

* :mod:`repro.checkpoint.registry` — stable names for scheduled
  callbacks, and the audit for callbacks a rebuild could not recreate.
* :mod:`repro.checkpoint.snapshot` — :class:`StateDescriber` (identity
  normalisation), :func:`capture_state`, :func:`state_fingerprint`.
* :mod:`repro.checkpoint.manager` — :class:`CheckpointManager`
  (policy-driven atomic writes, keep-last-K, restore/resume in any
  interpreter).
* :mod:`repro.checkpoint.monitor` — :class:`InvariantMonitor` and its
  opt-in per-event sanitizer (``install_sanitizer``).
* :mod:`repro.checkpoint.harness` — :class:`SweepJournal` and
  :func:`trial_watchdog` for crash-safe resumable experiment sweeps.
"""
