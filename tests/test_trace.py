"""Trace recorder and attribution analysis."""

import hashlib
import json
import tracemalloc

import pytest

from repro.apps.aggregate_trace import AggregateTraceConfig, run_aggregate_trace
from repro.config import ClusterConfig, MachineConfig, MpiConfig
from repro.daemons.catalog import scale_noise, standard_noise
from repro.kernel.thread import Thread
from repro.system import System
from repro.trace.analysis import attribute_window, explain_outliers, window_breakdown
from repro.trace.recorder import TraceRecorder
from repro.units import ms, us


def thread(name, category):
    return Thread(None, name=name, priority=60, node_id=0, affinity_cpu=0, category=category)


class TestRecorder:
    def test_records_interval(self):
        tr = TraceRecorder()
        tr.record_interval(0, 1, thread("a", "app"), 0.0, 10.0)
        assert len(tr) == 1
        iv = tr.intervals[0]
        assert iv.duration == 10.0
        assert iv.category == "app"

    def test_disabled_is_noop(self):
        tr = TraceRecorder(enabled=False)
        tr.record_interval(0, 1, thread("a", "app"), 0.0, 10.0)
        tr.mark("m", 0, 0, 5.0)
        assert len(tr) == 0 and tr.marks == []

    def test_node_filter(self):
        tr = TraceRecorder(nodes=[1])
        tr.record_interval(0, 0, thread("a", "app"), 0.0, 1.0)
        tr.record_interval(1, 0, thread("b", "app"), 0.0, 1.0)
        assert [iv.node for iv in tr.intervals] == [1]

    def test_marks_and_queries(self):
        tr = TraceRecorder()
        tr.mark("aggr.block", 0, 3, 42.0, payload=(1, 64))
        tr.mark("other", 0, 3, 43.0)
        assert len(tr.marks_named("aggr.block")) == 1
        assert tr.marks_named("aggr.block")[0].payload == (1, 64)

    def test_clear(self):
        tr = TraceRecorder()
        tr.record_interval(0, 0, thread("a", "app"), 0.0, 1.0)
        tr.mark("m", 0, 0, 0.0)
        tr.clear()
        assert len(tr) == 0 and tr.marks == []

    def test_intervals_on(self):
        tr = TraceRecorder()
        tr.record_interval(0, 0, thread("a", "app"), 0.0, 1.0)
        tr.record_interval(2, 0, thread("b", "app"), 0.0, 1.0)
        assert len(tr.intervals_on(2)) == 1


class TestAttribution:
    def make_trace(self):
        tr = TraceRecorder()
        # App runs 0-100 on cpu 0; daemon interrupts 40-60 on cpu 1;
        # timer thread 80-90 on cpu 1.
        tr.record_interval(0, 0, thread("job.r0", "app"), 0.0, 100.0)
        tr.record_interval(0, 1, thread("syncd", "daemon"), 40.0, 60.0)
        tr.record_interval(0, 1, thread("job.r0.timer", "mpi_timer"), 80.0, 90.0)
        return tr

    def test_window_attribution_sums_overlap(self):
        att = attribute_window(self.make_trace(), node=0, t0=0.0, t1=100.0)
        assert att.by_name == {"syncd": 20.0, "job.r0.timer": 10.0}
        assert att.interference_us == 30.0

    def test_partial_overlap_clipped(self):
        att = attribute_window(self.make_trace(), node=0, t0=50.0, t1=85.0)
        assert att.by_name["syncd"] == pytest.approx(10.0)
        assert att.by_name["job.r0.timer"] == pytest.approx(5.0)

    def test_top_orders_by_cpu(self):
        att = attribute_window(self.make_trace(), node=0, t0=0.0, t1=100.0)
        assert att.top(1) == [("syncd", 20.0)]

    def test_other_node_excluded(self):
        att = attribute_window(self.make_trace(), node=1, t0=0.0, t1=100.0)
        assert att.interference_us == 0.0

    def test_window_breakdown_includes_idle(self):
        bd = window_breakdown(self.make_trace(), node=0, t0=0.0, t1=100.0, n_cpus=2)
        assert bd["app"] == pytest.approx(0.5)
        assert bd["daemon"] == pytest.approx(0.1)
        assert bd["mpi_timer"] == pytest.approx(0.05)
        assert bd["idle"] == pytest.approx(0.35)

    def test_window_breakdown_empty_window_raises(self):
        with pytest.raises(ValueError):
            window_breakdown(self.make_trace(), 0, 5.0, 5.0, 2)

    def test_explain_outliers_sorted_and_thresholded(self):
        tr = self.make_trace()
        windows = [(0.0, 30.0), (35.0, 95.0), (95.0, 100.0)]
        out = explain_outliers(tr, windows, node=0, threshold_us=20.0)
        # Window 1 (60 long) and window 0 (30 long) exceed 20; sorted desc.
        assert [o[0] for o in out] == [1, 0]
        top_names = [name for name, _ in out[0][2]]
        assert "syncd" in top_names


def traced_run() -> TraceRecorder:
    """A small traced DES: 8 ranks on 2x4 CPUs, node 0 recorded, noise x30,
    MPI timer threads every 20 ms, so app, daemon, interrupt and mpi_timer
    intervals all land in the trace."""
    trace = TraceRecorder(enabled=True, nodes=[0])
    system = System(
        ClusterConfig(
            machine=MachineConfig(n_nodes=2, cpus_per_node=4),
            mpi=MpiConfig(progress_interval_us=ms(20)),
            noise=scale_noise(standard_noise(include_cron=False), 30.0),
            seed=3,
        ),
        trace=trace,
    )
    run_aggregate_trace(
        system, 8, 4, AggregateTraceConfig(calls_per_loop=100, compute_between_us=us(200))
    )
    return trace


#: ``traced_run``'s interval count and stream digest (tids renumbered by
#: first appearance) and its ``snapshot_state`` digest.
STREAM_LEN = 759
STREAM_DIGEST = "d850f8c4a1db0f87334d05a2127b957d3ffea5d1ce01f218e58333be4c3668dd"
SNAPSHOT_DIGEST = "65fb01e4cf0eeb1edc5b5dfa1147eda7ce1bed8ac8c39b435fb975227157871d"


def sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class TestTraceStreamPins:
    """The recorded stream and its checkpoint view, pinned bit for bit:
    a change of the recorder's storage must not move either."""

    def test_interval_stream_digest(self):
        trace = traced_run()
        remap: dict[int, int] = {}
        rows = [
            [iv.node, iv.cpu, remap.setdefault(iv.tid, len(remap)),
             iv.name, iv.category, iv.t0, iv.t1]
            for iv in trace.intervals
        ]
        assert {r[4] for r in rows} >= {"app", "daemon", "interrupt", "mpi_timer"}
        assert (len(rows), sha(rows)) == (STREAM_LEN, STREAM_DIGEST)

    def test_snapshot_state_digest(self):
        assert sha(traced_run().snapshot_state(None)) == SNAPSHOT_DIGEST


class TestRecordingMemory:
    def test_an_interval_costs_at_most_64_bytes(self):
        """Recording keeps typed columns, not one object per interval."""
        tr = TraceRecorder()
        threads = [
            thread(f"t{i}", cat)
            for i, cat in enumerate(("app", "daemon", "interrupt", "mpi_timer"))
        ]
        n = 20_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(n):
                tr.record_interval(0, i % 4, threads[i % 4], float(i), i + 0.5)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tr) == n
        assert grown / n <= 64, f"{grown / n:.1f} B per interval"
