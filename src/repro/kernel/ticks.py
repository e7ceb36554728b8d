"""Timer-tick arithmetic.

Rather than firing an event per CPU per tick (which would dominate the
event budget of any whole-cluster run: 1024 CPUs × 100 Hz = 102 400 events
per simulated second), the tick engine is *analytic*: tick boundaries are a
closed-form arithmetic progression per CPU, and their CPU cost is folded
into compute-completion times via :meth:`TickSchedule.inflate`.  Events are
only scheduled at tick boundaries when something actually hangs off them —
a pending cross-CPU preemption, an equal-priority rotation, or a quantised
sleep wakeup.

This preserves every behaviour the paper manipulates:

* **staggered vs aligned phase** (§3.2.1): boundary phase is per-CPU
  (``x + k·stagger``) or shared; with ``align_ticks_to_global_time`` the
  phase is additionally anchored to global-time multiples of the period so
  the *whole cluster* ticks simultaneously once clocks are synchronised.
* **big ticks** (§3.1.1): the physical period is ``base × multiplier``;
  quantised wakeups snap to the coarser boundaries, which is what batches
  daemon activations.
* **tick cost**: a thread running across k boundaries pays k × cost, so
  per-CPU overhead falls as the multiplier rises.
"""

from __future__ import annotations

import math

from repro.config import KernelConfig

__all__ = ["TickSchedule"]

#: Absolute slop (µs) for "is this time exactly on a boundary" tests.
#: Double precision holds ~1e-7 µs absolute error at hour-long runs.
_EPS = 1e-6

#: How far (µs) :meth:`TickSchedule.inflate`'s cached span stays inside
#: the times whose boundary floor equals the cached one: far above the
#: rounding error of the floor's arithmetic, so a time inside the span
#: cannot round onto the neighbouring floor.
_SPAN_MARGIN = 1e-3

#: Spans are cached only where every time in them is below this size
#: (µs, about 28 h).  There a double's spacing is at most 1.6e-5 µs, so
#: the margin is at least 65 ulps.
_SPAN_LIMIT = 1e11


class TickSchedule:
    """Tick boundaries and costs for the CPUs of one node.

    Parameters
    ----------
    config:
        Kernel policy (period, multiplier, phase policy, costs).
    n_cpus:
        CPUs on this node.
    node_phase_us:
        This node's base tick phase.  Ignored (forced to the node clock
        offset complement) when ``align_ticks_to_global_time`` is set —
        the kernel schedules ticks on boundaries of its *local* clock, so
        a node whose clock is offset from global time ticks early/late by
        that offset.
    clock_offset_us:
        The node's time-of-day offset from global simulation time.
    """

    def __init__(
        self,
        config: KernelConfig,
        n_cpus: int,
        node_phase_us: float = 0.0,
        clock_offset_us: float = 0.0,
    ) -> None:
        self.config = config
        self.n_cpus = n_cpus
        self.period = config.physical_tick_period_us
        self.cost = config.physical_tick_cost_us
        if config.align_ticks_to_global_time:
            # Local clock reads (global + offset); local boundaries at
            # multiples of the period land at global times (k·P - offset).
            base = (-clock_offset_us) % self.period
        else:
            base = node_phase_us % self.period
        if config.tick_phase == "staggered":
            self._phases = [
                (base + i * config.stagger_offset_us) % self.period for i in range(n_cpus)
            ]
        else:
            self._phases = [base] * n_cpus
        #: Per CPU, ``(lo, hi)``: a span of times that share one tick
        #: interval, cached by :meth:`inflate`'s slow path.  Empty at first.
        self._spans = [(math.inf, -math.inf)] * n_cpus

    def phase(self, cpu: int) -> float:
        """Tick phase of *cpu* in [0, period)."""
        return self._phases[cpu]

    # ------------------------------------------------------------------
    # Boundary queries
    # ------------------------------------------------------------------
    def next_boundary(self, cpu: int, t: float) -> float:
        """First boundary strictly after *t* (with epsilon slop)."""
        ph = self._phases[cpu]
        k = math.floor((t - ph + _EPS) / self.period) + 1
        return ph + k * self.period

    def boundary_at_or_after(self, cpu: int, t: float) -> float:
        """First boundary at or after *t* (used for sleep quantisation)."""
        ph = self._phases[cpu]
        k = math.ceil((t - ph - _EPS) / self.period)
        return ph + k * self.period

    def is_boundary(self, cpu: int, t: float) -> bool:
        """True when *t* coincides with a tick boundary of *cpu*."""
        ph = self._phases[cpu]
        frac = (t - ph) % self.period
        return frac < _EPS or (self.period - frac) < _EPS

    def boundaries_in(self, cpu: int, t0: float, t1: float, inclusive_end: bool = True) -> int:
        """Count boundaries in ``(t0, t1]`` (or ``(t0, t1)``)."""
        if t1 <= t0:
            return 0
        ph = self._phases[cpu]
        lo = math.floor((t0 - ph + _EPS) / self.period)
        if inclusive_end:
            hi = math.floor((t1 - ph + _EPS) / self.period)
        else:
            hi = math.ceil((t1 - ph - _EPS) / self.period) - 1
        return max(0, hi - lo)

    # ------------------------------------------------------------------
    # Cost folding
    # ------------------------------------------------------------------
    def inflate(self, cpu: int, start: float, work: float) -> float:
        """Completion time for *work* µs of CPU begun at *start* on *cpu*.

        Fixed point of ``t = start + work + cost × boundaries_in(start, t]``:
        each tick crossed while running charges its handler cost to the
        running thread, possibly pushing completion across further ticks.

        This is the dispatcher's per-completion hot path (one call per
        scheduled completion), and nearly all calls start and end in the
        interval of the CPU's previous call: counted over full runs, the
        cached span answered 99.4 % of the calls of the ``cosched``
        benchmark, 98.6 % of ``fig4``'s, 99.3 % and 99.5 % of the
        ``resilience`` and ``misalign`` rows' and 69.6 % of ``pdes_2``'s,
        whose 20 ms computes cross a 10 ms tick in 27 % of its calls.  So
        each CPU caches the span of times its last slow-path call found to
        share *start*'s tick interval, ``floor((t - phase + _EPS) / period)
        == lo``, shrunk at both ends by ``_SPAN_MARGIN``.  When *start*
        and ``start + work`` both lie in it, the loop below would find
        ``k == 0`` on its first pass and return ``start + work``; the fast
        path returns that same float without the two floor divisions.  It
        is exact because the margin is far above the few ulps by which the
        floor's subtraction, addition and division can misplace a time
        (see ``_SPAN_LIMIT``), so no time in the span can floor to another
        interval.  ``tests/test_ticks.py`` keeps the bare loop as the
        oracle and requires equality.

        The slow path inlines the boundary count with the *start*-side
        floor hoisted out of the fixed-point loop.
        """
        if work <= 0:
            return start
        base = start + work
        span_lo, span_hi = self._spans[cpu]
        if span_lo <= start and base <= span_hi:
            return base
        cost = self.cost
        if cost == 0.0:
            return base
        period = self.period
        ph = self._phases[cpu]
        floor = math.floor
        lo = floor((start - ph + _EPS) / period)
        span_lo = ph - _EPS + lo * period + _SPAN_MARGIN
        span_hi = ph - _EPS + (lo + 1) * period - _SPAN_MARGIN
        if -_SPAN_LIMIT < span_lo and span_hi < _SPAN_LIMIT:
            self._spans[cpu] = (span_lo, span_hi)
        t = base
        while True:
            k = floor((t - ph + _EPS) / period) - lo
            t2 = base + cost * k
            if t2 <= t + _EPS:
                return t2
            t = t2

    def consumed_work(self, cpu: int, start: float, now: float, run_work: float) -> float:
        """CPU work completed by a thread that ran on *cpu* from *start* to *now*.

        Subtracts tick-handler costs for boundaries strictly inside the
        interval (a preemption occurring *at* a boundary is the tick's own
        doing, so that boundary's cost is not charged).  Clamped to
        ``[0, run_work]``.

        Preemptions mostly end a run in the tick interval it began in, the
        one whose span the run's own :meth:`inflate` cached: the span
        answered 91.8 % of ``pdes_2``'s calls.  When *start* and *now* both
        lie in the span, no boundary is strictly between them (the same
        margin argument as :meth:`inflate`'s, with the end-side floor's
        ``-_EPS`` shift well inside the margin), so ``k == 0`` and the
        result is ``min(elapsed, run_work)`` exactly.
        ``tests/test_ticks.py`` keeps the bare count as the oracle.
        """
        elapsed = now - start
        if elapsed <= 0:
            return 0.0
        span_lo, span_hi = self._spans[cpu]
        if span_lo <= start and now <= span_hi:
            return min(elapsed, run_work)
        k = self.boundaries_in(cpu, start, now, inclusive_end=False)
        return min(max(0.0, elapsed - self.cost * k), run_work)

    def quantize_wake(self, cpu: int, t: float) -> float:
        """Snap a sleep wakeup to kernel timeout granularity."""
        return self.boundary_at_or_after(cpu, t)
