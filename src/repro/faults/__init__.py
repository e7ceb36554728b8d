"""Deterministic fault injection and resilience (see :mod:`repro.faults.injector`).

The paper's argument is about what happens when coordination is absent or
broken; this package makes the broken cases expressible.  Everything is
seed-driven through :mod:`repro.rng` named streams and scheduled on the
shared :class:`~repro.sim.core.Simulator` — no wall-clock randomness — so
every fault scenario replays exactly.
"""
