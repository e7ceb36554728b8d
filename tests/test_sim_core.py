"""DES engine: ordering, cancellation, determinism."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.core import EventPriority, SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_and_run(self):
        sim = Simulator()
        hits = []
        sim.schedule(10.0, hits.append, "a")
        sim.schedule(5.0, hits.append, "b")
        sim.run()
        assert hits == ["b", "a"]
        assert sim.now == 10.0

    def test_schedule_at_absolute(self):
        sim = Simulator()
        hits = []
        sim.schedule_at(7.0, hits.append, 1)
        sim.run()
        assert sim.now == 7.0 and hits == [1]

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_zero_delay_allowed(self):
        sim = Simulator()
        hits = []
        sim.schedule(0.0, hits.append, 1)
        sim.run()
        assert hits == [1]

    def test_callback_can_schedule_more(self):
        sim = Simulator()
        hits = []

        def chain(k):
            hits.append(k)
            if k < 3:
                sim.schedule(1.0, chain, k + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert hits == [0, 1, 2, 3]
        assert sim.now == 3.0


NAN = float("nan")


class TestNaNTimes:
    """NaN compares false with everything, so a NaN-timed heap entry used
    to poison the heap order and a NaN bound used to drain the whole
    queue.  Every entry point rejects NaN instead."""

    def test_schedule_nan_delay_raises(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(NAN, lambda: None)

    @pytest.mark.parametrize("offset", [0.0, 2.0])
    def test_schedule_at_nan_raises(self, offset):
        sim = Simulator()
        sim.run_until(offset)
        with pytest.raises(SimulationError):
            sim.schedule_at(sim.now + NAN, lambda: None)
        assert sim.pending == 0

    def test_rejected_nan_keeps_firing_order(self):
        sim = Simulator()
        hits = []
        sim.schedule_at(5.0, hits.append, "a")
        with pytest.raises(SimulationError):
            sim.schedule_at(NAN, hits.append, "nan")
        with pytest.raises(SimulationError):
            sim.schedule_at(sim.now + NAN, hits.append, "nan2")
        sim.schedule_at(1.0, hits.append, "b")
        sim.schedule_at(3.0, hits.append, "c")
        sim.run()
        assert hits == ["b", "c", "a"]

    @pytest.mark.parametrize("method", ["run_until", "run_until_before"])
    def test_run_to_nan_raises_and_keeps_queue(self, method):
        sim = Simulator()
        hits = []
        sim.schedule_at(1.0, hits.append, 1)
        with pytest.raises(SimulationError):
            getattr(sim, method)(NAN)
        assert hits == [] and sim.now == 0.0 and sim.pending == 1


class TestOrdering:
    def test_fifo_among_exact_ties(self):
        sim = Simulator()
        hits = []
        for i in range(10):
            sim.schedule(5.0, hits.append, i)
        sim.run()
        assert hits == list(range(10))

    def test_priority_orders_same_instant(self):
        sim = Simulator()
        hits = []
        sim.schedule(5.0, hits.append, "normal", priority=EventPriority.NORMAL)
        sim.schedule(5.0, hits.append, "interrupt", priority=EventPriority.INTERRUPT)
        sim.schedule(5.0, hits.append, "kernel", priority=EventPriority.KERNEL)
        sim.schedule(5.0, hits.append, "message", priority=EventPriority.MESSAGE)
        sim.run()
        assert hits == ["interrupt", "message", "kernel", "normal"]

    def test_interrupt_tier_is_lowest_value(self):
        assert EventPriority.INTERRUPT < EventPriority.MESSAGE < EventPriority.KERNEL
        assert EventPriority.KERNEL < EventPriority.NORMAL < EventPriority.LATE


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        hits = []
        ev = sim.schedule(5.0, hits.append, 1)
        ev.cancel()
        sim.run()
        assert hits == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        ev = sim.schedule(5.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert not ev.active

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        hits = []
        ev = sim.schedule(1.0, hits.append, 1)
        sim.run()
        ev.cancel()
        assert hits == [1]

    def test_active_flag(self):
        sim = Simulator()
        ev = sim.schedule(5.0, lambda: None)
        assert ev.active
        ev.cancel()
        assert not ev.active

    def test_pending_counts_only_live(self):
        sim = Simulator()
        e1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        e1.cancel()
        assert sim.pending == 1


class TestRunUntil:
    def test_runs_only_due_events(self):
        sim = Simulator()
        hits = []
        sim.schedule(5.0, hits.append, "early")
        sim.schedule(15.0, hits.append, "late")
        sim.run_until(10.0)
        assert hits == ["early"]
        assert sim.now == 10.0

    def test_event_exactly_at_bound_runs(self):
        sim = Simulator()
        hits = []
        sim.schedule(10.0, hits.append, 1)
        sim.run_until(10.0)
        assert hits == [1]

    def test_run_until_past_raises(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.run_until(1.0)

    def test_max_events_guard(self):
        sim = Simulator()

        def storm():
            sim.schedule(0.0, storm)

        sim.schedule(0.0, storm)
        with pytest.raises(SimulationError):
            sim.run_until(1.0, max_events=100)

    def test_returns_processed_count(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        assert sim.run_until(10.0) == 5

    def test_max_events_exact_cap_is_not_exceeded(self):
        """Regression: exactly max_events due events must run cleanly
        (the guard used to fire one event early)."""
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        assert sim.run_until(10.0, max_events=5) == 5

    def test_max_events_one_below_due_count_raises(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        with pytest.raises(SimulationError):
            sim.run_until(10.0, max_events=4)

    def test_run_exact_cap_is_not_exceeded(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i), lambda: None)
        assert sim.run(max_events=3) == 3

    def test_run_cap_below_pending_raises(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i), lambda: None)
        with pytest.raises(SimulationError):
            sim.run(max_events=2)

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 3


class TestStop:
    @staticmethod
    def _log_events(sim, stop_at=None):
        """Schedule 10 events at t = 0..9, the one at *stop_at* calling
        ``stop()``; return the list the events append to."""
        hits = []

        def hit(i):
            hits.append((i, sim.now))
            if i == stop_at:
                sim.stop()

        for i in range(10):
            sim.schedule(float(i), hit, i)
        return hits

    def test_returns_after_the_stopping_event_with_now_at_it(self):
        sim = Simulator()
        hits = self._log_events(sim, stop_at=3)
        assert sim.run_until(100.0) == 4
        assert [i for i, _ in hits] == [0, 1, 2, 3]
        assert sim.now == 3.0
        assert sim.pending == 6

    def test_resume_fires_the_rest_in_order(self):
        full = Simulator()
        full_hits = self._log_events(full)
        full.run_until(100.0)

        sim = Simulator()
        hits = self._log_events(sim, stop_at=3)
        sim.run_until(100.0)
        assert sim.run_until(100.0) == 6
        assert hits == full_hits
        assert sim.now == full.now == 100.0
        assert sim.events_processed == full.events_processed

    def test_stop_in_the_last_due_event_leaves_now_at_that_event(self):
        sim = Simulator()
        self._log_events(sim, stop_at=5)
        sim.run_until(5.0)
        assert sim.now == 5.0
        sim.run_until(7.0)
        assert sim.now == 7.0

    def test_stop_between_runs_does_not_shorten_the_next(self):
        sim = Simulator()
        hits = self._log_events(sim)
        sim.stop()
        assert sim.run_until(100.0) == 10
        assert len(hits) == 10
        assert sim.now == 100.0

    def test_run_until_before_and_run_ignore_stop(self):
        for drive in (lambda sim: sim.run_until_before(100.0), lambda sim: sim.run()):
            sim = Simulator()
            hits = self._log_events(sim, stop_at=3)
            assert drive(sim) == 10
            assert len(hits) == 10
            # The request made during that run is stale: it cannot cut a
            # later run_until short.
            sim.schedule(1.0, hits.append, "late")
            sim.schedule(2.0, hits.append, "later")
            assert sim.run_until(sim.now + 5.0) == 2

    def test_on_event_hook_sees_the_stopping_event(self):
        sim = Simulator()
        self._log_events(sim, stop_at=2)
        seen = []
        sim.on_event = lambda: seen.append(sim.now)
        sim.run_until(100.0)
        assert seen == [0.0, 1.0, 2.0]


class TestStep:
    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_step_processes_one(self):
        sim = Simulator()
        hits = []
        sim.schedule(1.0, hits.append, 1)
        sim.schedule(2.0, hits.append, 2)
        assert sim.step() is True
        assert hits == [1]


def _reference_run_until(sim, time, max_events=None):
    """The pre-fusion ``run_until`` loop: peek_time() then step(), two heap
    walks per event.  Kept here as the semantic reference for the fused
    single-walk loop inside :meth:`Simulator.run_until`."""
    if time < sim.now:
        raise SimulationError(f"run_until({time!r}) is in the past")
    processed = 0
    while True:
        nxt = sim.peek_time()
        if nxt is None or nxt > time:
            break
        if max_events is not None and processed >= max_events:
            raise SimulationError(f"exceeded max_events={max_events}")
        sim.step()
        processed += 1
    sim.now = time
    return processed


def _drive(sim, run_until, bounds, *, cancel_every=None, reschedule=True):
    """One deterministic workload: self-rescheduling chains with periodic
    cancellations, run in segments.  Returns the firing log."""
    fired = []
    handles = {}

    def tick(name, t, k):
        fired.append((name, t, k))
        if reschedule and k < 6:
            handles[name] = sim.schedule(
                1.5 + 0.25 * k, tick, name, t + 1.5 + 0.25 * k, k + 1,
                priority=k % 5,
            )

    for i, name in enumerate("abcde"):
        handles[name] = sim.schedule(float(i) * 0.7, tick, name, float(i) * 0.7, 0)
    for j, bound in enumerate(bounds):
        if cancel_every and j % cancel_every == 1:
            victim = "abcde"[j % 5]
            if handles.get(victim) is not None and handles[victim].active:
                handles[victim].cancel()
        fired.append(("segment", bound, run_until(sim, bound)))
    return fired


class TestFusedPopMatchesReference:
    """Regression guard for the fused single-heap-walk ``run_until``:
    identical event order, ``now`` and ``events_processed`` to the old
    peek_time()+step() loop, on workloads with cancellation and
    re-scheduling."""

    BOUNDS = [1.0, 2.0, 4.5, 4.5, 9.0, 30.0]

    def _compare(self, **drive_kw):
        fused_sim, ref_sim = Simulator(), Simulator()
        fused = _drive(fused_sim, lambda s, t: s.run_until(t), self.BOUNDS, **drive_kw)
        ref = _drive(ref_sim, _reference_run_until, self.BOUNDS, **drive_kw)
        assert fused == ref  # firing order AND per-segment processed counts
        assert fused_sim.now == ref_sim.now
        assert fused_sim.events_processed == ref_sim.events_processed
        assert fused_sim.pending == ref_sim.pending

    def test_identical_on_rescheduling_workload(self):
        self._compare()

    def test_identical_with_cancellations(self):
        self._compare(cancel_every=2)

    def test_identical_without_rescheduling(self):
        self._compare(reschedule=False, cancel_every=3)

    def test_run_until_skips_dead_entries_without_firing(self):
        sim = Simulator()
        live = []
        e1 = sim.schedule(1.0, live.append, 1)
        sim.schedule(2.0, live.append, 2)
        e1.cancel()
        assert sim.run_until(1.5) == 0  # only the dead head was due
        assert sim.run_until(2.5) == 1
        assert live == [2]

    def test_run_until_leaves_future_head_in_place(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        assert sim.run_until(5.0) == 0
        assert sim.pending == 1
        assert sim.peek_time() == 10.0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                st.integers(min_value=0, max_value=4),
                st.booleans(),  # cancel this event before running?
            ),
            min_size=1,
            max_size=40,
        ),
        st.lists(
            st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
            min_size=1,
            max_size=6,
        ),
    )
    def test_property_fused_equals_reference(self, specs, raw_bounds):
        bounds = sorted(raw_bounds)
        logs = []
        sims = []
        for run_until in (lambda s, t: s.run_until(t), _reference_run_until):
            sim = Simulator()
            fired = []
            handles = [
                sim.schedule_at(t, lambda i=i: fired.append(i), priority=p)
                for i, (t, p, _c) in enumerate(specs)
            ]
            for h, (_t, _p, c) in zip(handles, specs):
                if c:
                    h.cancel()
            for b in bounds:
                fired.append(("seg", run_until(sim, b)))
            logs.append(fired)
            sims.append(sim)
        assert logs[0] == logs[1]
        assert sims[0].now == sims[1].now
        assert sims[0].events_processed == sims[1].events_processed


class TestPropertyOrdering:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                st.integers(min_value=0, max_value=4),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_events_fire_in_time_then_priority_then_fifo_order(self, specs):
        sim = Simulator()
        fired = []
        for idx, (t, prio) in enumerate(specs):
            sim.schedule_at(t, lambda i=idx: fired.append(i), priority=prio)
        sim.run()
        keys = [(specs[i][0], specs[i][1], i) for i in fired]
        assert keys == sorted(keys)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
    def test_clock_is_monotone(self, times):
        sim = Simulator()
        observed = []
        for t in times:
            sim.schedule_at(t, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)


# ----------------------------------------------------------------------
# Tuple-heap engine regression suite
# ----------------------------------------------------------------------

class _ObjectHeapSimulator:
    """The seed engine, preserved as a semantic twin: ``Event`` objects
    compared via ``__lt__`` directly in the heap, no live counter, no
    compaction.  The production tuple-heap engine must match its firing
    order, clock, and counters exactly on any workload."""

    class _Ev:
        __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled")

        def __init__(self, time, priority, seq, fn, args):
            self.time, self.priority, self.seq = time, priority, seq
            self.fn, self.args = fn, args
            self.cancelled = False

        @property
        def active(self):
            return not self.cancelled and self.fn is not None

        def cancel(self):
            self.cancelled = True
            self.fn = None
            self.args = ()

        def __lt__(self, other):
            return (self.time, self.priority, self.seq) < (
                other.time, other.priority, other.seq
            )

    def __init__(self):
        import heapq as _hq
        import itertools as _it

        self._hq = _hq
        self.now = 0.0
        self._heap = []
        self._seq = _it.count()
        self.events_processed = 0

    def schedule(self, delay, fn, *args, priority=EventPriority.NORMAL):
        return self.schedule_at(self.now + delay, fn, *args, priority=priority)

    def schedule_at(self, time, fn, *args, priority=EventPriority.NORMAL):
        ev = self._Ev(time, int(priority), next(self._seq), fn, args)
        self._hq.heappush(self._heap, ev)
        return ev

    @property
    def pending(self):
        return sum(1 for ev in self._heap if ev.active)

    def run_until(self, time):
        processed = 0
        heap = self._heap
        while heap:
            head = heap[0]
            if not head.active:
                self._hq.heappop(heap)
                continue
            if head.time > time:
                break
            ev = self._hq.heappop(heap)
            self.now = ev.time
            fn, args = ev.fn, ev.args
            ev.fn = None
            ev.args = ()
            self.events_processed += 1
            fn(*args)
            processed += 1
        self.now = time
        return processed


def _twin_workload(sim, specs, bounds):
    """Drive *sim* (either engine) with one deterministic workload: initial
    events from *specs*, per-firing rescheduling plus cancellation of the
    previous handle (the dispatcher's cancel-and-reschedule shape)."""
    fired = []
    last = {"h": None}

    def hit(i, t, p, depth):
        fired.append((i, sim.now, depth))
        if last["h"] is not None and last["h"].active:
            last["h"].cancel()
        if depth < 3:
            last["h"] = sim.schedule(
                0.5 + (i % 7) * 0.25, hit, i, t, p, depth + 1, priority=p
            )

    for i, (t, p, cancel) in enumerate(specs):
        h = sim.schedule_at(t, hit, i, t, p, 0, priority=p)
        if cancel:
            h.cancel()
    log = []
    for b in bounds:
        log.append(("segment", b, sim.run_until(b)))
    return fired + log


class TestTupleHeapTwin:
    """The tuple-heap production engine against the object-heap twin:
    identical firing order, events_processed, pending, and clock."""

    def _compare(self, specs, raw_bounds):
        bounds = sorted(raw_bounds)
        tuple_sim, object_sim = Simulator(), _ObjectHeapSimulator()
        tuple_log = _twin_workload(tuple_sim, specs, bounds)
        object_log = _twin_workload(object_sim, specs, bounds)
        assert tuple_log == object_log
        assert tuple_sim.now == object_sim.now
        assert tuple_sim.events_processed == object_sim.events_processed
        assert tuple_sim.pending == object_sim.pending

    def test_twin_on_mixed_workload(self):
        specs = [(float(i % 13) * 0.75, i % 5, i % 4 == 3) for i in range(40)]
        self._compare(specs, [2.0, 5.0, 9.0, 40.0])

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                st.integers(min_value=0, max_value=4),
                st.booleans(),
            ),
            min_size=1,
            max_size=40,
        ),
        st.lists(
            st.floats(min_value=0.0, max_value=80.0, allow_nan=False),
            min_size=1,
            max_size=5,
        ),
    )
    def test_property_twin_equivalence(self, specs, raw_bounds):
        self._compare(specs, raw_bounds)


class TestCompaction:
    def _cancel_heavy(self, sim, rounds):
        """Every firing schedules a far-future decoy and cancels the
        previous one — the preemption shape that used to accrete dead
        entries without bound.  Returns (firing log, peak heap length)."""
        fired = []
        state = {"decoy": None, "peak": 0, "k": 0}

        def nop():
            raise AssertionError("decoy fired")

        def tick():
            state["k"] += 1
            fired.append(state["k"])
            if state["decoy"] is not None:
                state["decoy"].cancel()
            state["peak"] = max(state["peak"], len(sim._heap))
            if state["k"] < rounds:
                state["decoy"] = sim.schedule(1e9, nop)
                sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        sim.run_until(float(rounds) + 1.0)
        return fired, state["peak"]

    def test_cancel_heavy_heap_stays_bounded(self):
        from repro.sim.core import _COMPACT_MIN_ENTRIES

        sim = Simulator()
        fired, peak = self._cancel_heavy(sim, rounds=5_000)
        assert fired == list(range(1, 5_001))
        # Live events never exceed ~2 here; without compaction the heap
        # would end ~5000 entries deep.  Compaction caps dead weight at
        # the live count or the compaction floor, whichever is larger.
        assert peak <= 2 * _COMPACT_MIN_ENTRIES
        assert len(sim._heap) <= _COMPACT_MIN_ENTRIES
        assert sim.pending == 0

    def test_cancel_heavy_matches_object_heap_twin(self):
        tuple_sim, object_sim = Simulator(), _ObjectHeapSimulator()
        tuple_fired, _ = self._cancel_heavy(tuple_sim, rounds=500)
        object_fired, object_peak = self._cancel_heavy(object_sim, rounds=500)
        assert tuple_fired == object_fired
        assert tuple_sim.events_processed == object_sim.events_processed
        assert object_peak >= 450  # the twin really does accrete dead weight

    def test_compaction_preserves_firing_order(self):
        """Force a compaction mid-stream and check the survivors still
        fire in exact (time, priority, seq) order."""
        sim = Simulator()
        fired = []
        handles = []
        for i in range(300):
            t = float((i * 37) % 100) + 1.0
            handles.append(
                sim.schedule_at(t, lambda i=i, t=t: fired.append((t, i)), priority=i % 5)
            )
        # Cancel enough to cross the dead > live threshold (triggers
        # _compact inside cancel()).
        survivors = []
        for i, h in enumerate(handles):
            if i % 5 == 0:
                survivors.append(i)
            else:
                h.cancel()
        assert len(sim._heap) < 300  # compaction actually ran
        sim.run()
        expected = sorted(
            ((float((i * 37) % 100) + 1.0), i % 5, i) for i in survivors
        )
        assert [i for _t, _p, i in expected] == [i for _t, i in fired]

    def test_explicit_compact_is_idempotent_and_orderless(self):
        sim = Simulator()
        hits = []
        for i in range(10):
            sim.schedule(float(10 - i), hits.append, i)
        sim._compact()
        sim._compact()
        sim.run()
        assert hits == list(range(9, -1, -1))


class TestPendingCounter:
    """``Simulator.pending`` is a maintained O(1) counter; these pin it to
    the ground truth (a scan of live heap entries) under every transition:
    schedule, fire, cancel, double-cancel, cancel-after-fire, compaction."""

    def _ground_truth(self, sim):
        return sum(1 for entry in sim._heap if not entry[3]._cancelled)

    def test_counter_tracks_schedule_fire_cancel(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending == 10 == self._ground_truth(sim)
        handles[3].cancel()
        handles[3].cancel()  # double-cancel must not double-decrement
        assert sim.pending == 9 == self._ground_truth(sim)
        sim.run_until(5.0)
        assert sim.pending == 5 == self._ground_truth(sim)
        handles[0].cancel()  # cancel-after-fire must not decrement
        assert sim.pending == 5 == self._ground_truth(sim)
        sim.run()
        assert sim.pending == 0 == self._ground_truth(sim)

    def test_counter_matches_active_events(self):
        sim = Simulator()
        handles = [
            sim.schedule(float((i * 13) % 29) + 0.5, lambda: None, priority=i % 5)
            for i in range(200)
        ]
        for i, h in enumerate(handles):
            if i % 3 != 0:
                h.cancel()
        assert sim.pending == len(sim.active_events()) == self._ground_truth(sim)
        sim.run_until(10.0)
        assert sim.pending == len(sim.active_events()) == self._ground_truth(sim)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        ),
        st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
    )
    def test_property_counter_equals_scan(self, specs, bound):
        sim = Simulator()
        handles = [sim.schedule_at(t, lambda: None) for t, _ in specs]
        for h, (_, cancel) in zip(handles, specs):
            if cancel:
                h.cancel()
        assert sim.pending == self._ground_truth(sim)
        sim.run_until(bound)
        assert sim.pending == self._ground_truth(sim)


#: One operation of :class:`TestPendingUnderOperations`' sequences.
_OPS = st.one_of(
    st.tuples(
        st.just("schedule"),
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        st.integers(min_value=0, max_value=4),
        # what the event does when it fires: nothing, cancel handle j,
        # cancel itself, stop the run, or schedule a follow-up
        st.sampled_from(["none", "cancel", "self", "stop", "chain"]),
        st.integers(min_value=0, max_value=1000),
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=1000)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run_until"), st.floats(min_value=0.0, max_value=15.0, allow_nan=False)),
    st.tuples(st.just("run_until_before"), st.floats(min_value=0.0, max_value=15.0,
                                                     allow_nan=False)),
    st.tuples(st.just("peek_time")),
    st.tuples(st.just("compact")),
    # enough dead entries to make Event.cancel compact the heap itself
    st.tuples(st.just("burst"), st.integers(min_value=60, max_value=150)),
)


class TestPendingUnderOperations:
    """``pending`` equals the number of live queued events after every
    operation of an arbitrary sequence: schedules, cancels (before firing,
    after firing, twice, from inside a callback), steps, runs cut short by
    ``stop()`` and resumed, half-open runs, peeks and compactions."""

    @staticmethod
    def _check(sim):
        live = sum(1 for entry in sim._heap if not entry[3]._cancelled)
        assert sim.pending == len(sim.active_events()) == live

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_OPS, min_size=1, max_size=60))
    def test_pending_equals_active_events(self, ops):
        sim = Simulator()
        handles = []
        fired = []

        def act(i, what, j):
            fired.append(i)
            if what == "cancel" and handles:
                handles[j % len(handles)].cancel()
            elif what == "self":
                handles[i].cancel()  # already fired: a no-op
            elif what == "stop":
                sim.stop()
            elif what == "chain":
                handles.append(sim.schedule(float(j % 7), act, len(handles), "none", 0))
            self._check(sim)

        for op in ops:
            kind = op[0]
            if kind == "schedule":
                _, dt, prio, what, j = op
                handles.append(
                    sim.schedule_at(sim.now + dt, act, len(handles), what, j, priority=prio)
                )
            elif kind == "cancel":
                if handles:
                    handles[op[1] % len(handles)].cancel()
            elif kind == "step":
                sim.step()
            elif kind == "run_until":
                sim.run_until(sim.now + op[1])
            elif kind == "run_until_before":
                sim.run_until_before(sim.now + op[1])
            elif kind == "peek_time":
                sim.peek_time()
            elif kind == "compact":
                sim._compact()
            else:
                burst = [
                    sim.schedule_at(sim.now + 1.0 + k % 9, act, len(handles) + k, "none", 0)
                    for k in range(op[1])
                ]
                handles.extend(burst)
                for h in burst[1:]:
                    h.cancel()
            self._check(sim)
        sim.run()
        self._check(sim)
        assert sim.pending == 0

    def test_event_scheduled_before_a_head_left_beyond_the_bound(self):
        """``run_until(t)`` stops at a live head later than *t*; an event
        scheduled afterwards, earlier than that head, still fires first,
        and ties keep ``(time, priority, seq)`` order."""
        sim = Simulator()
        fired = []
        sim.schedule_at(10.0, fired.append, "head", priority=3)
        sim.schedule_at(12.0, fired.append, "later", priority=0)
        assert sim.run_until(5.0) == 0
        assert sim.pending == 2
        sim.schedule_at(8.0, fired.append, "before")
        sim.schedule_at(10.0, fired.append, "tie-prio", priority=1)
        sim.schedule_at(10.0, fired.append, "tie-seq", priority=3)
        assert sim.run_until_before(10.0) == 1
        sim.schedule_at(10.0, fired.append, "tie-last", priority=3)
        sim.run_until(20.0)
        assert fired == ["before", "tie-prio", "head", "tie-seq", "tie-last", "later"]
        assert sim.pending == 0
