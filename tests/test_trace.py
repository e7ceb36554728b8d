"""Trace recorder and attribution analysis."""

import pytest

from repro.kernel.thread import Thread
from repro.trace.analysis import attribute_window, explain_outliers, window_breakdown
from repro.trace.recorder import TraceRecorder


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
