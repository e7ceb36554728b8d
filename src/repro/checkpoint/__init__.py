"""Deterministic checkpoint/restore, invariant monitors, crash-safe harness.

Generator-based threads cannot be pickled, so checkpoints are
*replay-based*: a checkpoint stores the registered builder that creates
the run, the builder's (picklable) arguments, the simulation position,
and a fingerprint of the complete captured state; restore rebuilds the
run from the builder and replays the event calendar up to the saved
position, then verifies the fingerprint bit-for-bit.  Event replay is
exact because the simulator is deterministic and chunked ``run_until``
calls process the same event sequence as a single one.

Public surface:

* :mod:`repro.checkpoint.registry` — builder registration so callbacks
  and run constructors can be named in a checkpoint file.
* :mod:`repro.checkpoint.snapshot` — :class:`StateDescriber` (identity
  normalisation), :func:`capture_state`, :func:`state_fingerprint`.
* :mod:`repro.checkpoint.manager` — :class:`CheckpointManager`
  (policy-driven atomic writes, keep-last-K, restore/resume).
* :mod:`repro.checkpoint.monitor` — :class:`InvariantMonitor` and the
  per-event sanitizer.
* :mod:`repro.checkpoint.harness` — :class:`SweepJournal` and
  :func:`trial_watchdog` for crash-safe resumable experiment sweeps.
"""
