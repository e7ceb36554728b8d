"""Workloads: the paper's benchmark and application analogues.

* :mod:`repro.apps.bsp` — generic Bulk-Synchronous SPMD generator
  (paper Fig 2): compute phases alternating with fine-grain collective
  communication, with configurable imbalance.
* :mod:`repro.apps.aggregate_trace` — the synthetic benchmark
  ``aggregate_trace.c``: loops of timed Allreduce calls with trace marks
  every 64th call (paper §5.1).
* :mod:`repro.apps.ale3d` — a proxy for the ALE3D multi-physics code's
  explicit-hydro test problem: ~50 timesteps of nearest-neighbour
  exchange + global reductions, bracketed by I/O phases that depend on
  the node I/O service (paper §5.1/§5.3).
"""
