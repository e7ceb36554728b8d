"""Chaos campaign engine: randomized fault-schedule fuzzing with oracles.

Pipeline: :mod:`~repro.chaos.generator` draws seed-deterministic fault
schedules across every fault axis → :mod:`~repro.chaos.oracles` judges
each run for liveness, safety, and determinism → failures are minimized
by :mod:`~repro.chaos.shrink`'s ddmin → minimized counterexamples land in
the regression corpus (``tests/chaos_corpus/``) via
:mod:`~repro.chaos.campaign`, which also owns the campaign driver behind
``repro-experiments chaos``.

:mod:`~repro.chaos.harness_faults` points the same seed-stream discipline
at the execution substrate itself: deterministic worker-kill plans for
the supervised trial backend (``--harness-chaos``).
"""
