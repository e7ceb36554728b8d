"""Experiment runners: one per paper table/figure (see DESIGN.md §3).

Each runner is a pure function from (parameters, seed) to a result
dataclass with the series the paper plots, plus a ``format_*`` helper that
renders the same rows as an aligned text table (no plotting libraries in
this environment).  The CLI (``repro-experiments``) and the benchmark
suite both call these runners.

Execution goes through :mod:`repro.experiments.runner`: campaigns build
declarative :class:`TrialSpec` lists and a :class:`TrialRunner` executes
them — serially or across ``--jobs N`` worker processes — with journal
resume and per-trial watchdogs applied uniformly.  Parallel and serial
runs are bit-identical by construction.

Scale note: sweeps at paper processor counts (128–1728 CPUs) run on the
vectorised :mod:`repro.analytic` model; mechanism-level experiments
(Fig 4 attribution, ALE3D I/O, timer threads, Fig 1 overlap) run on the
discrete-event simulator at reduced scale, stating any time compression
they apply.
"""
