"""Tick arithmetic: phases, boundary counting, cost folding."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import KernelConfig
from repro.kernel.ticks import _EPS, _SPAN_MARGIN, TickSchedule
from repro.units import ms


def sched(**kw):
    defaults = dict(tick_cost_us=18.0)
    defaults.update(kw)
    return TickSchedule(KernelConfig(**defaults), n_cpus=4)


class TestPhases:
    def test_staggered_phases_differ(self):
        ts = sched(tick_phase="staggered", stagger_offset_us=ms(1))
        phases = [ts.phase(i) for i in range(4)]
        assert len(set(phases)) == 4
        assert phases[1] - phases[0] == pytest.approx(ms(1))

    def test_aligned_phases_equal(self):
        ts = sched(tick_phase="aligned")
        assert len({ts.phase(i) for i in range(4)}) == 1

    def test_node_phase_offsets_all_cpus(self):
        ts = TickSchedule(KernelConfig(tick_phase="aligned"), 2, node_phase_us=3000.0)
        assert ts.phase(0) == pytest.approx(3000.0)

    def test_global_alignment_uses_clock_offset(self):
        cfg = KernelConfig(tick_phase="aligned", align_ticks_to_global_time=True)
        ts = TickSchedule(cfg, 2, node_phase_us=1234.0, clock_offset_us=3000.0)
        # Local boundaries at multiples of the period land at global
        # times k*P - offset.
        assert ts.phase(0) == pytest.approx((-3000.0) % cfg.tick_period_us)

    def test_global_alignment_two_nodes_same_boundaries_when_synced(self):
        cfg = KernelConfig(tick_phase="aligned", align_ticks_to_global_time=True)
        a = TickSchedule(cfg, 1, clock_offset_us=0.0)
        b = TickSchedule(cfg, 1, clock_offset_us=0.0)
        assert a.next_boundary(0, 12345.0) == b.next_boundary(0, 12345.0)


class TestBoundaries:
    def test_next_boundary_strictly_after(self):
        ts = sched(tick_phase="aligned")
        b = ts.next_boundary(0, 0.0)
        assert b == pytest.approx(ms(10))
        assert ts.next_boundary(0, b) == pytest.approx(ms(20))

    def test_boundary_at_or_after_includes_exact(self):
        ts = sched(tick_phase="aligned")
        assert ts.boundary_at_or_after(0, ms(10)) == pytest.approx(ms(10))
        assert ts.boundary_at_or_after(0, ms(10) + 1) == pytest.approx(ms(20))

    def test_is_boundary(self):
        ts = sched(tick_phase="aligned")
        assert ts.is_boundary(0, ms(10))
        assert not ts.is_boundary(0, ms(10) + 5.0)

    def test_count_boundaries_inclusive(self):
        ts = sched(tick_phase="aligned")
        assert ts.boundaries_in(0, 0.0, ms(30)) == 3

    def test_count_boundaries_exclusive_end(self):
        ts = sched(tick_phase="aligned")
        assert ts.boundaries_in(0, 0.0, ms(30), inclusive_end=False) == 2

    def test_count_empty_interval(self):
        ts = sched()
        assert ts.boundaries_in(0, ms(5), ms(5)) == 0
        assert ts.boundaries_in(0, ms(7), ms(5)) == 0

    def test_big_tick_spreads_boundaries(self):
        ts = TickSchedule(KernelConfig(big_tick_multiplier=25, tick_phase="aligned"), 1)
        assert ts.period == pytest.approx(ms(250))
        assert ts.boundaries_in(0, 0.0, ms(1000)) == 4

    def test_quantize_wake_snaps_up(self):
        ts = sched(tick_phase="aligned")
        assert ts.quantize_wake(0, ms(3)) == pytest.approx(ms(10))
        assert ts.quantize_wake(0, ms(10)) == pytest.approx(ms(10))


class TestInflation:
    def test_zero_work(self):
        ts = sched()
        assert ts.inflate(0, 123.0, 0.0) == 123.0

    def test_work_within_one_tick_uninflated(self):
        ts = sched(tick_phase="aligned")
        # Start just after a boundary; 1 ms of work crosses nothing.
        assert ts.inflate(0, ms(10) + 1.0, ms(1)) == pytest.approx(ms(11) + 1.0)

    def test_work_crossing_one_tick_pays_cost(self):
        ts = sched(tick_phase="aligned")
        done = ts.inflate(0, ms(5), ms(8))  # crosses boundary at 10ms
        assert done == pytest.approx(ms(13) + 18.0)

    def test_cost_pushing_across_another_boundary(self):
        cfg = KernelConfig(tick_cost_us=ms(2))  # absurd cost to force it
        ts = TickSchedule(cfg, 1, node_phase_us=0.0)
        # 9.5ms of work from t=0.5ms: naive end 10ms (1 tick, +2ms = 12ms),
        # which stays before 20ms, so exactly one tick is paid.
        done = ts.inflate(0, 500.0, 9_500.0)
        assert done == pytest.approx(ms(12))

    def test_zero_cost_fast_path(self):
        ts = sched(tick_cost_us=0.0)
        assert ts.inflate(0, 0.0, ms(35)) == pytest.approx(ms(35))

    def test_consumed_work_inverse_of_inflate(self):
        ts = sched(tick_phase="aligned")
        start, work = ms(5), ms(25)
        end = ts.inflate(0, start, work)
        assert ts.consumed_work(0, start, end, work) == pytest.approx(work, abs=1e-6)

    def test_consumed_work_partial(self):
        ts = sched(tick_phase="aligned")
        # Run from 5ms to 12ms: one boundary (10ms) strictly inside.
        got = ts.consumed_work(0, ms(5), ms(12), run_work=ms(100))
        assert got == pytest.approx(ms(7) - 18.0)

    def test_consumed_work_clamped_nonnegative(self):
        ts = sched()
        assert ts.consumed_work(0, ms(5), ms(5), run_work=10.0) == 0.0

    def test_consumed_work_clamped_to_run_work(self):
        ts = sched(tick_cost_us=0.0)
        assert ts.consumed_work(0, 0.0, ms(50), run_work=ms(10)) == pytest.approx(ms(10))


class TestInflationProperties:
    @settings(max_examples=200)
    @given(
        start=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
        work=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        cost=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
        mult=st.integers(min_value=1, max_value=25),
        cpu=st.integers(min_value=0, max_value=3),
    )
    def test_inflate_consumed_roundtrip(self, start, work, cost, mult, cpu):
        """inflate then consumed_work must return (almost) the same work."""
        cfg = KernelConfig(tick_cost_us=cost, big_tick_multiplier=mult)
        ts = TickSchedule(cfg, 4, node_phase_us=start % 77.7)
        end = ts.inflate(cpu, start, work)
        assert end >= start + work - 1e-6
        got = ts.consumed_work(cpu, start, end, work)
        # The boundary-at-endpoint convention may skip at most one tick.
        assert got == pytest.approx(work, abs=cost + 1e-6)

    @settings(max_examples=100)
    @given(
        t0=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        dt1=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        dt2=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    )
    def test_boundary_count_additive(self, t0, dt1, dt2):
        ts = sched(tick_phase="staggered")
        whole = ts.boundaries_in(1, t0, t0 + dt1 + dt2)
        split = ts.boundaries_in(1, t0, t0 + dt1) + ts.boundaries_in(1, t0 + dt1, t0 + dt1 + dt2)
        assert whole == split

    @settings(max_examples=100)
    @given(t=st.floats(min_value=0.0, max_value=1e7, allow_nan=False))
    def test_next_boundary_is_boundary_and_after(self, t):
        ts = sched()
        b = ts.next_boundary(2, t)
        assert b > t
        assert ts.is_boundary(2, b)


def _reference_inflate(ts, cpu, start, work):
    """The plain fixed-point loop ``inflate`` computes, kept as its oracle:
    every call must return this value exactly, fast path or not."""
    if work <= 0:
        return start
    cost = ts.cost
    base = start + work
    if cost == 0.0:
        return base
    period = ts.period
    ph = ts.phase(cpu)
    lo = math.floor((start - ph + _EPS) / period)
    t = base
    while True:
        k = math.floor((t - ph + _EPS) / period) - lo
        t2 = base + cost * k
        if t2 <= t + _EPS:
            return t2
        t = t2


def _ulps(x, n):
    """*x* moved *n* ulps (n may be negative)."""
    direction = math.inf if n > 0 else -math.inf
    for _ in range(abs(n)):
        x = math.nextafter(x, direction)
    return x


#: Offsets (µs) from a boundary-adjacent time, on either side of it.
_NEAR = [0.0, _EPS / 2, _EPS, 2 * _EPS, 5e-4, 1e-3, 2e-3, 1.0]

_SCHEDULES = [
    dict(tick_phase="aligned"),
    dict(tick_phase="staggered", stagger_offset_us=ms(1)),
    dict(tick_phase="staggered", stagger_offset_us=333.3),
    dict(tick_phase="aligned", big_tick_multiplier=25),
    dict(tick_phase="staggered", big_tick_multiplier=4, tick_cost_us=ms(3)),
    dict(tick_phase="aligned", tick_cost_us=0.0),
    dict(tick_phase="staggered", tick_period_us=1.0, stagger_offset_us=0.25, tick_cost_us=0.1),
]


def _oracle_schedule(kw, node_phase_us=3000.25):
    cfg = KernelConfig(**{"tick_cost_us": 18.0, **kw})
    return TickSchedule(cfg, 4, node_phase_us=node_phase_us)


def _near_boundary_times(ts, cpu, k):
    """Times within a few ulps, within ``_EPS`` and within 1 µs of both
    the *k*-th boundary of *cpu* and the floor's eps-shifted switch point."""
    edge = ts.phase(cpu) + k * ts.period
    for anchor in (edge, edge - _EPS):
        for n in (-4, -2, -1, 0, 1, 2, 4):
            yield _ulps(anchor, n)
        for d in _NEAR:
            for sign in (-1.0, 1.0):
                for n in (-1, 0, 1):
                    yield _ulps(anchor + sign * d, n)


class TestInflateOracle:
    """``inflate`` against the fixed-point loop, compared with ``==``."""

    @pytest.mark.parametrize("kw", _SCHEDULES)
    def test_completion_near_a_boundary(self, kw):
        ts = _oracle_schedule(kw)
        for cpu in range(4):
            for k in (1, 2, 7, 1000):
                for start_back in (0.5, 17.0, ts.period / 3):
                    start = ts.phase(cpu) + (k - 1) * ts.period + start_back
                    for end in _near_boundary_times(ts, cpu, k):
                        work = end - start
                        assert ts.inflate(cpu, start, work) == _reference_inflate(
                            ts, cpu, start, work
                        ), (cpu, k, start, work)

    @pytest.mark.parametrize("kw", _SCHEDULES)
    def test_start_near_a_boundary(self, kw):
        ts = _oracle_schedule(kw)
        for cpu in range(4):
            for start in _near_boundary_times(ts, cpu, 3):
                for work in (1e-9, 0.3, 5.0, 250.0, ts.period, 3.5 * ts.period):
                    assert ts.inflate(cpu, start, work) == _reference_inflate(
                        ts, cpu, start, work
                    ), (cpu, start, work)

    @pytest.mark.parametrize("kw", _SCHEDULES)
    def test_start_before_the_first_phase(self, kw):
        # start < phase: the start-side floor is negative.
        ts = _oracle_schedule(kw, node_phase_us=7777.0)
        for cpu in range(4):
            ph = ts.phase(cpu)
            for start in (0.0, ph / 2, _ulps(ph - _EPS, -1), _ulps(ph - _EPS, 1)):
                if start < 0:
                    continue
                for work in (1e-3, 1.0, ph - start, _ulps(ph - start, -1), ts.period):
                    assert ts.inflate(cpu, start, work) == _reference_inflate(
                        ts, cpu, start, work
                    ), (cpu, start, work)
            for start in (-0.5, -ts.period - 3.0):
                assert ts.inflate(cpu, start, 2.0) == _reference_inflate(ts, cpu, start, 2.0)

    def test_zero_and_negative_work(self):
        ts = _oracle_schedule({})
        for work in (0.0, -1.0, -0.0):
            assert ts.inflate(1, 1234.5, work) == 1234.5

    def test_far_times(self):
        # Up to 1e15 µs, where a double's spacing (0.125 µs) is far
        # coarser than the span margin.
        ts = _oracle_schedule({"tick_phase": "staggered"})
        for start in (1e9 + 0.5, 3.6e9 + 17.0, 1e12 + 3.0, 1e15 + 7.0):
            for work in (1.0, 2.5, 1e4):
                for _ in range(2):  # second call may take the cached path
                    assert ts.inflate(2, start, work) == _reference_inflate(
                        ts, 2, start, work
                    ), (start, work)
        for k in (10**7, 10**9, 10**11):
            start = ts.phase(2) + (k - 1) * ts.period + 5.0
            for end in _near_boundary_times(ts, 2, k):
                work = end - start
                for _ in range(2):
                    assert ts.inflate(2, start, work) == _reference_inflate(
                        ts, 2, start, work
                    ), (k, start, work)

    def test_back_and_forth_on_one_cpu(self):
        """Many calls on one CPU, returning to intervals already visited and
        leaving them, so a cached interval is both hit and replaced."""
        ts = _oracle_schedule({"tick_phase": "staggered"})
        cpu, period = 1, ts.period
        ph = ts.phase(cpu)
        for i in range(2000):
            k = (i * 7) % 5 - 1                      # intervals -1 .. 3, revisited
            offset = ((i * 7919) % 10_000) / 10_000 * period
            start = ph + k * period + offset
            work = (0.5, 3.0, period - offset, period - offset - _EPS, 0.75 * period)[i % 5]
            assert ts.inflate(cpu, start, work) == _reference_inflate(
                ts, cpu, start, work
            ), (i, start, work)

    @settings(max_examples=300)
    @given(
        calls=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=-1, max_value=40),
                st.floats(min_value=0.0, max_value=1.0),
                st.one_of(
                    st.floats(min_value=0.0, max_value=3e4, allow_nan=False),
                    st.sampled_from([0.0, 1e-3, _EPS, 1.0]),
                ),
                st.integers(min_value=-3, max_value=3),
            ),
            min_size=1,
            max_size=40,
        ),
        kw=st.sampled_from(_SCHEDULES),
    )
    def test_property_sequences_equal_the_loop(self, calls, kw):
        ts = _oracle_schedule(kw)
        for cpu, k, frac, work, nudge in calls:
            start = max(0.0, ts.phase(cpu) + (k + frac) * ts.period)
            work = _ulps(work, nudge) if work > 0 else work
            assert ts.inflate(cpu, start, work) == _reference_inflate(ts, cpu, start, work)


def _reference_consumed(ts, cpu, start, now, run_work):
    """The bare ``boundaries_in`` formula ``consumed_work`` computes, kept
    as its oracle: every call must return this value exactly."""
    elapsed = now - start
    if elapsed <= 0:
        return 0.0
    ph, period = ts.phase(cpu), ts.period
    lo = math.floor((start - ph + _EPS) / period)
    hi = math.ceil((now - ph - _EPS) / period) - 1
    k = max(0, hi - lo)
    return min(max(0.0, elapsed - ts.cost * k), run_work)


def _near_edges(ts, cpu, k):
    """Times within 4 ulps, ``_EPS`` and ``_SPAN_MARGIN`` of the *k*-th
    boundary of *cpu* and of both of its eps-shifted switch points."""
    edge = ts.phase(cpu) + k * ts.period
    for anchor in (edge - _EPS, edge, edge + _EPS):
        for n in (-4, -1, 0, 1, 4):
            yield _ulps(anchor, n)
        for d in (_EPS / 2, _EPS, 2 * _EPS, _SPAN_MARGIN, 2 * _SPAN_MARGIN):
            for sign in (-1.0, 1.0):
                for n in (-1, 0, 1):
                    yield _ulps(anchor + sign * d, n)


class TestConsumedWorkOracle:
    """``consumed_work`` against the bare boundary count, compared with
    ``==``, with the span ``inflate`` caches placed as the dispatcher
    places it: by the ``inflate`` of the run being measured."""

    @pytest.mark.parametrize("kw", _SCHEDULES)
    def test_preemption_near_a_boundary(self, kw):
        ts = _oracle_schedule(kw)
        for cpu in range(4):
            for k in (1, 2, 7, 1000):
                for start_back in (0.5, 17.0, ts.period / 3):
                    start = ts.phase(cpu) + (k - 1) * ts.period + start_back
                    for run_work in (1.0, ts.period / 2, 5 * ts.period):
                        ts.inflate(cpu, start, run_work)
                        for now in _near_edges(ts, cpu, k):
                            assert ts.consumed_work(cpu, start, now, run_work) == (
                                _reference_consumed(ts, cpu, start, now, run_work)
                            ), (cpu, k, start, now, run_work)

    @pytest.mark.parametrize("kw", _SCHEDULES)
    def test_start_near_a_boundary(self, kw):
        ts = _oracle_schedule(kw)
        for cpu in range(4):
            for start in _near_edges(ts, cpu, 3):
                for run_work in (0.3, ts.period, 3.5 * ts.period):
                    ts.inflate(cpu, start, run_work)
                    for elapsed in (1e-9, 0.3, 5.0, ts.period / 2, ts.period, 2.5 * ts.period):
                        now = start + elapsed
                        assert ts.consumed_work(cpu, start, now, run_work) == (
                            _reference_consumed(ts, cpu, start, now, run_work)
                        ), (cpu, start, now, run_work)

    def test_no_time_elapsed(self):
        ts = _oracle_schedule({})
        ts.inflate(1, 1234.5, 10.0)
        for now in (1234.5, 1234.0, _ulps(1234.5, -1)):
            assert ts.consumed_work(1, 1234.5, now, 10.0) == 0.0

    def test_far_times(self):
        # Past _SPAN_LIMIT no span is cached; up to 1e15 µs a double's
        # spacing (0.125 µs) is far coarser than the span margin.
        ts = _oracle_schedule({"tick_phase": "staggered"})
        for k in (10**5, 10**7, 10**9, 10**11):
            start = ts.phase(2) + (k - 1) * ts.period + 5.0
            ts.inflate(2, start, 1.0)
            for now in _near_edges(ts, 2, k):
                for run_work in (1.0, 1e5):
                    assert ts.consumed_work(2, start, now, run_work) == (
                        _reference_consumed(ts, 2, start, now, run_work)
                    ), (k, start, now, run_work)

    def test_calls_between_inflates_that_move_the_span(self):
        """The span cached by the last ``inflate`` on a CPU may belong to
        another interval than the run being measured, on either side."""
        ts = _oracle_schedule({"tick_phase": "staggered"})
        cpu, period = 1, ts.period
        ph = ts.phase(cpu)
        for i in range(2000):
            k = (i * 7) % 5 - 1                      # intervals -1 .. 3, revisited
            offset = ((i * 7919) % 10_000) / 10_000 * period
            start = ph + k * period + offset
            ts.inflate(cpu, ph + ((i * 3) % 5 - 1) * period + 0.25 * period, 1.0)
            elapsed = (0.5, 3.0, period - offset, period - offset - _EPS, 1.75 * period)[i % 5]
            now = start + elapsed
            assert ts.consumed_work(cpu, start, now, 0.8 * period) == (
                _reference_consumed(ts, cpu, start, now, 0.8 * period)
            ), (i, start, now)

    @settings(max_examples=300)
    @given(
        calls=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=-1, max_value=40),
                st.floats(min_value=0.0, max_value=1.0),
                st.one_of(
                    st.floats(min_value=0.0, max_value=3e4, allow_nan=False),
                    st.sampled_from([0.0, _EPS, _SPAN_MARGIN, 1.0]),
                ),
                st.integers(min_value=-3, max_value=3),
                st.booleans(),
            ),
            min_size=1,
            max_size=40,
        ),
        kw=st.sampled_from(_SCHEDULES),
    )
    def test_property_sequences_equal_the_formula(self, calls, kw):
        ts = _oracle_schedule(kw)
        for cpu, k, frac, elapsed, nudge, inflate_first in calls:
            start = max(0.0, ts.phase(cpu) + (k + frac) * ts.period)
            if inflate_first:
                ts.inflate(cpu, start, elapsed + 1.0)
            now = _ulps(start + elapsed, nudge)
            run_work = 0.9 * elapsed + 1.0
            assert ts.consumed_work(cpu, start, now, run_work) == (
                _reference_consumed(ts, cpu, start, now, run_work)
            )
