"""Attribution analysis over recorded traces.

Reproduces the paper's §5.3 methodology: take the trace of a slow window
(e.g. one Allreduce), compute how much CPU time each non-application thread
consumed inside it, and name the culprits.  The paper's worst outlier was
an administrative cron job consuming >600 ms across multiple nodes; lesser
outliers were syncd/mmfsd/hatsd-class daemons, device interrupt handlers,
and the MPI timer ("progress engine") threads.

Performance: every window query runs against the recorder's per-node
interval index (:class:`repro.trace.recorder.NodeIntervalIndex`), so a
sweep attributing W windows over I recorded intervals costs
O(I log I + W·(log I + k)) instead of the naive O(W·I) full re-scan that
used to dominate the Figure-4 analysis.  The naive implementations are
kept (``*_naive``) as the executable specification: results must match
them **bit-identically** — candidate intervals are accumulated in
insertion order precisely so the float sums agree to the last ulp.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.trace.recorder import FaultEvent, RunInterval, TraceRecorder

__all__ = [
    "WindowAttribution",
    "attribute_window",
    "attribute_window_naive",
    "attribute_windows",
    "window_breakdown",
    "explain_outliers",
    "overhead_report",
    "OverheadReport",
    "attribute_faults",
    "attribute_faults_naive",
    "fault_summary",
]


@dataclass(frozen=True)
class WindowAttribution:
    """Attribution of one time window on one node."""

    node: int
    t0: float
    t1: float
    #: CPU-µs by thread name for non-app threads active in the window.
    by_name: dict[str, float]
    #: CPU-µs by thread category.
    by_category: dict[str, float]

    @property
    def interference_us(self) -> float:
        """Total non-application CPU inside the window."""
        return sum(self.by_name.values())

    def top(self, n: int = 3) -> list[tuple[str, float]]:
        """The *n* biggest interferers, (name, CPU-µs), descending."""
        return sorted(self.by_name.items(), key=lambda kv: -kv[1])[:n]


def _overlap(iv: RunInterval, t0: float, t1: float) -> float:
    return max(0.0, min(iv.t1, t1) - max(iv.t0, t0))


def _window_rows(trace: TraceRecorder, node: int, t0: float, t1: float):
    """``(name, category, iv.t0, iv.t1)`` of node-*node* intervals possibly
    overlapping ``[t0, t1]``, insertion order.

    Uses the recorder's stabbing index, which reads the interval columns
    without building a :class:`RunInterval` per candidate; objects that
    merely quack like a recorder (bare ``intervals`` sequence) fall back
    to the full scan with identical semantics.
    """
    index_of = getattr(trace, "interval_index", None)
    if index_of is not None:
        idx = index_of(node)
        return idx.rows(t0, t1) if idx is not None else ()
    return [(iv.name, iv.category, iv.t0, iv.t1) for iv in trace.intervals if iv.node == node]


def attribute_window(
    trace: TraceRecorder, node: int, t0: float, t1: float
) -> WindowAttribution:
    """Attribute non-application CPU time inside ``[t0, t1]`` on *node*.

    Every thread whose ``category`` is not ``"app"`` counts as
    interference; the MPI timer threads use category ``mpi_timer`` and thus
    show up as interference, matching the paper's classification of the
    "auxiliary threads of the user processes".
    """
    by_name: dict[str, float] = defaultdict(float)
    by_category: dict[str, float] = defaultdict(float)
    for name, category, iv_t0, iv_t1 in _window_rows(trace, node, t0, t1):
        ov = min(iv_t1, t1) - max(iv_t0, t0)
        if ov <= 0.0:
            continue
        by_category[category] += ov
        if category != "app":
            by_name[name] += ov
    return WindowAttribution(node, t0, t1, dict(by_name), dict(by_category))


def attribute_window_naive(
    trace: TraceRecorder, node: int, t0: float, t1: float
) -> WindowAttribution:
    """Reference full-scan implementation of :func:`attribute_window`.

    O(I) per window; kept as the executable specification the indexed
    path is equivalence-tested against (bit-identical sums included).
    """
    by_name: dict[str, float] = defaultdict(float)
    by_category: dict[str, float] = defaultdict(float)
    for iv in trace.intervals:
        if iv.node != node:
            continue
        ov = _overlap(iv, t0, t1)
        if ov <= 0.0:
            continue
        by_category[iv.category] += ov
        if iv.category != "app":
            by_name[iv.name] += ov
    return WindowAttribution(node, t0, t1, dict(by_name), dict(by_category))


def attribute_windows(
    trace: TraceRecorder,
    node: int,
    windows: list[tuple[float, float]],
) -> list[WindowAttribution]:
    """Attribute a batch of windows on *node* in one sweep.

    The per-node index is built once (lazily, on the first query) and
    every window then resolves in O(log I + k) — this is the API the
    Figure-4 outlier scan and the ALE3D analysis should prefer over
    calling :func:`attribute_window` in a hand-rolled loop.
    """
    return [attribute_window(trace, node, t0, t1) for t0, t1 in windows]


def window_breakdown(
    trace: TraceRecorder, node: int, t0: float, t1: float, n_cpus: int
) -> dict[str, float]:
    """Fractional CPU occupancy by category for a window (idle included).

    Returns fractions of the window's total CPU capacity
    (``(t1 - t0) × n_cpus``) consumed by each thread category, plus an
    ``"idle"`` entry for the remainder.
    """
    if t1 <= t0:
        raise ValueError("empty window")
    att = attribute_window(trace, node, t0, t1)
    capacity = (t1 - t0) * n_cpus
    out = {cat: cpu / capacity for cat, cpu in att.by_category.items()}
    out["idle"] = max(0.0, 1.0 - sum(out.values()))
    return out


@dataclass(frozen=True)
class OverheadReport:
    """System-overhead accounting for one node over an observation window.

    The empirical counterpart of the paper's claim that "typical operating
    system and daemon activity consumes 0.2% to 1.1% of each CPU" — here
    measured from the recorded dispatch intervals rather than assumed.
    """

    node: int
    t0: float
    t1: float
    n_cpus: int
    #: CPU-µs by daemon/interrupt thread name.
    by_daemon: dict[str, float]

    @property
    def total_overhead_us(self) -> float:
        return sum(self.by_daemon.values())

    @property
    def per_cpu_fraction(self) -> float:
        """Overhead as a fraction of each CPU (the paper's 0.2–1.1% metric)."""
        capacity = (self.t1 - self.t0) * self.n_cpus
        return self.total_overhead_us / capacity if capacity > 0 else 0.0

    def daemon_fraction(self, name: str) -> float:
        """One daemon's consumption as a fraction of a single CPU."""
        window = self.t1 - self.t0
        return self.by_daemon.get(name, 0.0) / window if window > 0 else 0.0

    def top(self, n: int = 5) -> list[tuple[str, float]]:
        """The *n* biggest overhead sources, (name, CPU-µs), descending."""
        return sorted(self.by_daemon.items(), key=lambda kv: -kv[1])[:n]


def overhead_report(
    trace: TraceRecorder,
    node: int,
    t0: float,
    t1: float,
    n_cpus: int,
    categories: tuple[str, ...] = ("daemon", "interrupt", "io"),
) -> OverheadReport:
    """Measure per-daemon CPU consumption on *node* over ``[t0, t1]``."""
    by_daemon: dict[str, float] = defaultdict(float)
    for name, category, iv_t0, iv_t1 in _window_rows(trace, node, t0, t1):
        if category not in categories:
            continue
        ov = min(iv_t1, t1) - max(iv_t0, t0)
        if ov > 0.0:
            # Per-CPU instances (caddpin.c3) fold into their base name.
            if category == "interrupt":
                name = name.split(".c")[0]
            by_daemon[name] += ov
    return OverheadReport(node, t0, t1, n_cpus, dict(by_daemon))


def explain_outliers(
    trace: TraceRecorder,
    windows: list[tuple[float, float]],
    node: int,
    threshold_us: float,
) -> list[tuple[int, float, list[tuple[str, float]]]]:
    """For each window longer than *threshold_us*, name the top interferers.

    Returns ``(window index, duration, [(name, cpu_us), ...])`` for the
    outliers, sorted by duration descending — the shape of the paper's
    Figure 4 discussion.
    """
    out = []
    for i, (t0, t1) in enumerate(windows):
        dur = t1 - t0
        if dur <= threshold_us:
            continue
        att = attribute_window(trace, node, t0, t1)
        out.append((i, dur, att.top()))
    out.sort(key=lambda row: -row[1])
    return out


def attribute_faults(
    trace: TraceRecorder,
    windows: list[tuple[float, float]],
    node: int | None = None,
    slack_us: float = 0.0,
) -> list[tuple[int, float, list[FaultEvent]]]:
    """Attribute recorded fault events to the windows they land in.

    For each window overlapping at least one fault event (optionally
    filtered to *node*; cluster-wide events with ``node == -1`` always
    match), returns ``(window index, duration, [events...])``.  A fault's
    effects outlive its instant — ``slack_us`` extends each window
    backwards so an injection shortly *before* a window still gets the
    blame (e.g. a node freeze starting between two Allreduces).
    """
    faults_in = getattr(trace, "faults_in", None)
    if faults_in is None:
        return attribute_faults_naive(trace, windows, node, slack_us)
    out = []
    for i, (t0, t1) in enumerate(windows):
        hits = [
            ev
            for ev in faults_in(t0 - slack_us, t1)
            if node is None or ev.node == -1 or ev.node == node
        ]
        if hits:
            out.append((i, t1 - t0, hits))
    return out


def attribute_faults_naive(
    trace: TraceRecorder,
    windows: list[tuple[float, float]],
    node: int | None = None,
    slack_us: float = 0.0,
) -> list[tuple[int, float, list[FaultEvent]]]:
    """Reference full-scan implementation of :func:`attribute_faults`."""
    out = []
    for i, (t0, t1) in enumerate(windows):
        hits = [
            ev
            for ev in trace.faults
            if t0 - slack_us <= ev.time <= t1
            and (node is None or ev.node == -1 or ev.node == node)
        ]
        if hits:
            out.append((i, t1 - t0, hits))
    return out


def fault_summary(trace: TraceRecorder) -> dict[str, int]:
    """Count recorded fault events by kind (quick sanity/reporting aid)."""
    counts: dict[str, int] = defaultdict(int)
    for ev in trace.faults:
        counts[ev.kind] += 1
    return dict(counts)
