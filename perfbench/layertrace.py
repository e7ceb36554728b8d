"""Per-layer spans and counters for the benchmark's traced samples.

:func:`install` patches the public entry points of every simulator and
harness layer so each call runs inside a *span*.  Spans share one stack
and aggregate online, so a traced run keeps a few dicts, not a log:

* ``counts``  -- calls and fired events, by metric name;
* ``self_s``  -- per layer, time inside its spans minus nested spans;
* ``incl_s``  -- per layer, time inside its outermost spans;
* ``timer_s`` -- inclusive time of a few named entry points (store
  get/put, journal record/lookup/merge, fingerprinting) and of
  ``multiprocessing.connection.wait``, keyed by the layer that waited.

Every callback scheduled through ``Simulator.schedule_at`` is wrapped
too, so each fired event is a span of the layer whose module holds the
callback.  The event's *owner*, counted in ``sim.events_by.<owner>``, is
the thread's category when the callback's first argument is a
``Thread``, and otherwise the layer that scheduled it: a delivery the
fabric scheduled is ``net``, an envelope delivered at a shard barrier is
``shard``.  Thread bodies are spans of their category's layer (``app``,
``daemons``, ``cosched``, ``mpi`` for timer threads), and the generators
behind ``MpiApi`` are ``mpi`` spans, so a resumed rank splits into its
application, MPI, network, kernel and tick shares.

Time outside every span (the benchmark's own code, numpy work in the
figure script) is the root layer ``other``, so the self times of all
layers add up to the traced wall time.

Only a traced child process calls :func:`install`; nothing is ever
uninstalled.  The patches change no simulated behaviour: a traced run
fires the same events in the same order, which the benchmark checks by
comparing its result digest with the untraced one.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

_clock = time.perf_counter

#: Owners of fired events (``sim.events_by.<owner>``).
EVENT_OWNERS = (
    "app", "daemon", "interrupt", "cosched", "mpi_timer",
    "mpi", "net", "kernel", "shard", "other",
)

#: Module prefix -> layer; the first match wins, so longer prefixes go first.
_MODULE_LAYERS = (
    ("repro.kernel.ticks", "ticks"),
    ("repro.kernel.", "kernel"),
    ("repro.sim.parallel", "shard"),
    ("repro.sim.shard", "shard"),
    ("repro.sim.", "sim"),
    ("repro.mpi.", "mpi"),
    ("repro.net.", "net"),
    ("repro.daemons.", "daemons"),
    ("repro.cosched.", "cosched"),
    ("repro.trace.", "trace"),
    ("repro.analytic.", "analytic"),
    ("repro.apps.", "app"),
)

#: Thread category -> the layer its body's code belongs to.
_BODY_LAYER = {
    "app": "app",
    "mpi_timer": "mpi",
    "daemon": "daemons",
    "interrupt": "daemons",
    "io": "daemons",
    "cosched": "cosched",
}

#: Layer that scheduled an event -> the event's owner, for callbacks
#: that do not act on a thread.
_SCHEDULER_OWNER = {
    "kernel": "kernel",
    "ticks": "kernel",
    "mpi": "mpi",
    "net": "net",
    "shard": "shard",
    "cosched": "cosched",
    "daemons": "daemon",
    "app": "app",
}


class Tracer:
    """One process's span stack and aggregates (see the module docstring)."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: Objects built while installed, read for end-of-run counters.
        self.systems: list = []
        self.stores: list = []
        self.counts: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.incl_s: dict = defaultdict(float)
        self.timer_s: dict = defaultdict(float)
        self._depth: dict = defaultdict(int)
        self.reset()

    def reset(self) -> None:
        """Zero the aggregates and open the root span (start of timing).

        Dicts are cleared in place: wrappers and already-scheduled events
        hold references to them.
        """
        for d in (self.counts, self.self_s, self.incl_s, self.timer_s, self._depth):
            d.clear()
        self._step_group = []
        self._stack = [["other", _clock(), 0.0]]

    def enter(self, layer: str) -> None:
        self._depth[layer] += 1
        self._stack.append([layer, _clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        layer, t0, child = self._stack.pop()
        dt = _clock() - t0
        self.self_s[layer] += dt - child
        self._stack[-1][2] += dt
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.incl_s[layer] += dt
        return dt

    @property
    def layer(self) -> str:
        """The layer of the innermost open span."""
        return self._stack[-1][0]

    def note_step(self, shard_id: int, dt: float) -> None:
        """One in-process ``ShardHost.step_send``; shards step in id order,
        so shard 0 opens a superstep's group."""
        if shard_id == 0:
            self._flush_steps()
        self._step_group.append(dt)

    def _flush_steps(self) -> None:
        group = self._step_group
        if len(group) > 1:
            self.timer_s["shard.imbalance"] += max(group) - sum(group) / len(group)
        self._step_group = []

    def finish(self) -> dict:
        """Close the root span and return the raw aggregates of the run."""
        if len(self._stack) != 1:
            raise RuntimeError(f"{len(self._stack) - 1} span(s) still open")
        self._flush_steps()
        _layer, t0, child = self._stack[0]
        wall = _clock() - t0
        self.self_s["other"] += wall - child
        self.incl_s["other"] += wall
        self._stack = [["other", _clock(), 0.0]]
        counts = dict(self.counts)
        for key, value in self._end_counts().items():
            counts[key] = counts.get(key, 0) + value
        return {
            "wall_s": wall,
            "counts": counts,
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "timer_s": dict(self.timer_s),
        }

    def _end_counts(self) -> dict:
        """Counters read from the public state of the objects built."""
        c: dict = defaultdict(int)
        for system in self.systems:
            cluster = system.cluster
            for node in cluster.nodes:
                sched = node.scheduler
                c["kernel.ipis_sent"] += sched.ipis_sent
                for thread in sched.threads:
                    c["kernel.dispatches"] += thread.stats.dispatches
                    c["kernel.preemptions"] += thread.stats.preemptions
                    c["kernel.voluntary_switches"] += thread.stats.voluntary_switches
            c["net.messages"] += cluster.fabric.stats.messages
            c["net.bytes"] += cluster.fabric.stats.bytes
            c["daemons.activations"] += sum(h.activations[0] for h in system.daemons)
            c["cosched.cycles"] += sum(
                nc.cycles for jc in system.coscheds for nc in jc.node_coscheds.values()
            )
            c["trace.intervals"] += len(cluster.trace.intervals)
        for store in self.stores:
            c["store.hits"] += store.hits
            c["store.misses"] += store.misses
            if store.quarantine_dir.is_dir():
                c["store.quarantined"] += sum(1 for _ in store.quarantine_dir.iterdir())
        return dict(c)

    # -- wrappers ------------------------------------------------------
    def span(self, layer: str, fn, count: str = None, timer: str = None):
        """*fn* as a span of *layer*, optionally counted and timed."""
        enter, exit_, counts, timers = self.enter, self.exit, self.counts, self.timer_s

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = exit_()
                if timer is not None:
                    timers[timer] += dt

        return spanned

    def gen_span(self, layer: str, fn, count: str = None):
        """Generator function *fn* whose every resume is a span of *layer*."""
        counts = self.counts

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            return GenSpan(fn(*args, **kwargs), layer, self)

        return spanned


class GenSpan:
    """Generator proxy: each ``send``/``throw`` runs inside a span.

    Works both as a thread body (the dispatcher calls ``send``) and under
    ``yield from`` (which drives any iterator with ``send``/``throw``).
    """

    __slots__ = ("_gen", "_layer", "_tracer")

    def __init__(self, gen, layer: str, tracer: Tracer) -> None:
        self._gen = gen
        self._layer = layer
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tracer = self._tracer
        tracer.enter(self._layer)
        try:
            return self._gen.send(value)
        finally:
            tracer.exit()

    def throw(self, *args):
        tracer = self._tracer
        tracer.enter(self._layer)
        try:
            return self._gen.throw(*args)
        finally:
            tracer.exit()

    def close(self) -> None:
        self._gen.close()


def _layer_of_module(module: str, cache: dict) -> str:
    layer = cache.get(module)
    if layer is None:
        layer = next(
            (lay for prefix, lay in _MODULE_LAYERS if module.startswith(prefix)), "other"
        )
        cache[module] = layer
    return layer


def _patch(cls, names, make) -> None:
    for name in names:
        setattr(cls, name, make(getattr(cls, name)))


def _rebind(module, name: str, wrapper) -> None:
    """Replace module function *name* everywhere it was imported by name."""
    original = getattr(module, name)
    for mod in list(sys.modules.values()):
        if getattr(mod, name, None) is original:
            setattr(mod, name, wrapper)


def install_wait(tracer: Tracer) -> None:
    """Coordinator spans plus waiting time (part of :func:`install`).

    ``run_parallel`` and ``Supervisor.run`` become spans, and
    ``multiprocessing.connection.wait`` in this process is timed under
    ``wait.<layer>`` -- what a forked shard coordinator or a supervisor
    spends blocked on its workers.
    """
    import multiprocessing.connection as mpc

    from repro.experiments.supervisor import Supervisor
    from repro.sim import parallel

    _wrap_run_parallel(tracer, parallel)
    Supervisor.run = tracer.span("supervisor", Supervisor.run)
    orig_wait = mpc.wait

    @functools.wraps(orig_wait)
    def wait(*args, **kwargs):
        if os.getpid() != tracer.pid:
            return orig_wait(*args, **kwargs)
        key = "wait." + tracer.layer
        tracer.enter("wait")
        try:
            return orig_wait(*args, **kwargs)
        finally:
            tracer.timer_s[key] += tracer.exit()

    mpc.wait = wait


def _wrap_run_parallel(tracer: Tracer, parallel) -> None:
    counts = tracer.counts
    spanned = tracer.span("shard", parallel.run_parallel)

    @functools.wraps(parallel.run_parallel)
    def run_parallel(*args, **kwargs):
        res = spanned(*args, **kwargs)
        counts["shard.supersteps"] += res.supersteps
        counts["shard.envelopes"] += res.messages_crossed
        counts["shard.recoveries"] += res.recoveries
        return res

    _rebind(parallel, "run_parallel", run_parallel)


def install(tracer: Tracer) -> None:
    """Span every layer's public entry points (full tracing)."""
    from repro.analytic.model import AllreduceSeriesModel
    from repro.checkpoint.harness import SweepJournal
    from repro.experiments.runner import TrialRunner
    from repro.kernel.scheduler import NodeScheduler
    from repro.kernel.thread import Thread
    from repro.kernel.ticks import TickSchedule
    from repro.mpi.world import MpiApi, MpiWorld
    from repro.net.fabric import Fabric
    from repro.sim.core import Event, EventPriority, Simulator
    from repro.sim.parallel import ShardHost
    from repro.store import fingerprint
    from repro.store.store import ResultStore
    from repro.system import System
    from repro.trace import analysis
    from repro.trace.recorder import NodeIntervalIndex, TraceRecorder

    install_wait(tracer)
    span, gen_span, counts = tracer.span, tracer.gen_span, tracer.counts
    enter, exit_ = tracer.enter, tracer.exit

    # -- sim: the event loop, scheduling, cancellation, fired events ----
    _patch(Simulator, ("run_until", "run_until_before", "run", "step"),
           lambda fn: span("sim", fn))
    module_layers: dict = {}
    owner_keys = {o: "sim.events_by." + o for o in EVENT_OWNERS}
    orig_schedule_at = Simulator.schedule_at

    def schedule_at(sim, time_, fn, *args, priority=EventPriority.NORMAL):
        if args and type(args[0]) is Thread:
            owner = args[0].category
        else:
            owner = _SCHEDULER_OWNER.get(tracer.layer, "other")
        key = owner_keys.get(owner, owner_keys["other"])
        layer = _layer_of_module(getattr(fn, "__module__", None) or "", module_layers)

        def fire(*fargs):
            counts[key] += 1
            enter(layer)
            try:
                fn(*fargs)
            finally:
                exit_()

        counts["sim.scheduled"] += 1
        enter("sim")
        try:
            return orig_schedule_at(sim, time_, fire, *args, priority=priority)
        finally:
            exit_()

    Simulator.schedule_at = schedule_at
    orig_cancel = Event.cancel

    def cancel(ev):
        if not ev._cancelled and ev.fn is not None:
            counts["sim.cancelled"] += 1
        enter("sim")
        try:
            orig_cancel(ev)
        finally:
            exit_()

    Event.cancel = cancel

    # -- kernel: dispatcher entry points; bodies spanned by category ----
    orig_spawn = NodeScheduler.spawn
    spawn_sig = inspect.signature(orig_spawn)

    def spawn(*args, **kwargs):
        bound = spawn_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        category = bound.arguments["category"]
        bound.arguments["body"] = GenSpan(
            bound.arguments["body"], _BODY_LAYER.get(category, "other"), tracer
        )
        enter("kernel")
        try:
            return orig_spawn(*bound.args, **bound.kwargs)
        finally:
            exit_()

    NodeScheduler.spawn = spawn
    _patch(NodeScheduler, ("start", "wake", "spin_deliver", "kill"),
           lambda fn: span("kernel", fn))
    kernel_set_priority = span("kernel", NodeScheduler.set_priority)

    def set_priority(*args, **kwargs):
        if tracer.layer == "cosched":
            counts["cosched.priority_sets"] += 1
        return kernel_set_priority(*args, **kwargs)

    NodeScheduler.set_priority = set_priority
    _patch(TickSchedule, ("next_boundary", "boundary_at_or_after", "is_boundary",
                          "boundaries_in", "consumed_work", "quantize_wake"),
           lambda fn: span("ticks", fn))
    TickSchedule.inflate = span("ticks", TickSchedule.inflate, count="ticks.inflate_calls")

    # -- mpi / net -------------------------------------------------------
    _patch(MpiApi, ("compute", "sleep", "send", "recv", "barrier", "allgather", "bcast",
                    "reduce_scatter", "alltoall", "scan", "io_request"),
           lambda fn: gen_span("mpi", fn))
    MpiApi.allreduce = gen_span("mpi", MpiApi.allreduce, count="mpi.allreduces")
    MpiApi.trace_mark = span("mpi", MpiApi.trace_mark)
    orig_world_send = MpiWorld.send

    @functools.wraps(orig_world_send)
    def world_send(*args, **kwargs):
        counts["mpi.sends"] += 1
        return orig_world_send(*args, **kwargs)

    MpiWorld.send = world_send
    _patch(Fabric, ("transmit", "remote_arrivals", "wire_time"), lambda fn: span("net", fn))

    # -- shard: in-process barrier steps ---------------------------------
    orig_step_send = ShardHost.step_send

    def step_send(host, horizon, incoming):
        enter("shard")
        try:
            orig_step_send(host, horizon, incoming)
        finally:
            tracer.note_step(host.spec.shard_id, exit_())

    ShardHost.step_send = step_send

    # -- trace recorder and analysis --------------------------------------
    _patch(TraceRecorder, ("record_interval", "mark", "record_fault", "faults_in"),
           lambda fn: span("trace", fn))
    TraceRecorder.interval_index = span(
        "trace", TraceRecorder.interval_index, count="trace.window_queries"
    )
    NodeIntervalIndex.overlapping = span("trace", NodeIntervalIndex.overlapping)
    for name in ("attribute_window", "attribute_windows", "window_breakdown",
                 "overhead_report", "explain_outliers", "attribute_faults"):
        _rebind(analysis, name, span("trace", getattr(analysis, name)))

    # -- analytic model ----------------------------------------------------
    AllreduceSeriesModel.__init__ = span("analytic", AllreduceSeriesModel.__init__)
    AllreduceSeriesModel.run_series = span(
        "analytic", AllreduceSeriesModel.run_series, count="analytic.series"
    )

    # -- harness: runner, store, journal, fingerprint ----------------------
    runner_run = span("runner", TrialRunner.run)

    @functools.wraps(TrialRunner.run)
    def trial_runner_run(runner, specs):
        specs = list(specs)
        counts["runner.trials"] += len(specs)
        outcomes = runner_run(runner, specs)
        counts["runner.cached"] += sum(1 for o in outcomes if o.cached)
        if runner.stats is not None:
            counts["supervisor.spawned"] += runner.stats.spawned
            counts["supervisor.retries"] += sum(runner.stats.retries.values())
        return outcomes

    TrialRunner.run = trial_runner_run
    ResultStore.get = span("store", ResultStore.get, count="store.get_calls", timer="store.get")
    ResultStore.put = span("store", ResultStore.put, count="store.put_calls", timer="store.put")
    SweepJournal.record = span("journal", SweepJournal.record, count="journal.records",
                               timer="journal.record")
    SweepJournal.record_failure = span("journal", SweepJournal.record_failure)
    SweepJournal.lookup = span("journal", SweepJournal.lookup, timer="journal.lookup")
    SweepJournal.merge_shards = span("journal", SweepJournal.merge_shards,
                                     timer="journal.merge")
    _rebind(fingerprint, "spec_fingerprint",
            span("fingerprint", fingerprint.spec_fingerprint, count="fingerprint.calls",
                 timer="fingerprint"))

    # -- objects whose public state yields end-of-run counters -------------
    def _collecting(cls, into):
        orig_init = cls.__init__

        @functools.wraps(orig_init)
        def init(obj, *args, **kwargs):
            orig_init(obj, *args, **kwargs)
            into.append(obj)

        cls.__init__ = init

    _collecting(System, tracer.systems)
    _collecting(ResultStore, tracer.stores)


def layer_metrics(raw: dict) -> dict:
    """Per-layer metrics of one traced pass (names as in BENCHMARK.json).

    Times are shares (%) of the pass's traced wall time, so a layer that
    a workload never enters reads 0 rather than a constant time.
    """
    wall = raw["wall_s"]
    c = defaultdict(int, raw["counts"])
    self_s = defaultdict(float, raw["self_s"])
    timer = defaultdict(float, raw["timer_s"])

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall

    events = sum(c["sim.events_by." + o] for o in EVENT_OWNERS)
    m = {
        "sim.events": events,
        "sim.scheduled": c["sim.scheduled"],
        "sim.cancelled": c["sim.cancelled"],
        "shard.supersteps": c["shard.supersteps"],
        "shard.envelopes": c["shard.envelopes"],
        "shard.events_per_superstep": (
            events / c["shard.supersteps"] if c["shard.supersteps"] else 0.0
        ),
        "shard.imbalance_pct": pct(timer["shard.imbalance"]),
        "shard.coordinator_wait_pct": pct(timer["wait.shard"]),
        "shard.recoveries": c["shard.recoveries"],
        "supervisor.wait_pct": pct(timer["wait.supervisor"]),
        "supervisor.busy_pct": pct(self_s["supervisor"]),
        "store.get_pct": pct(timer["store.get"]),
        "store.put_pct": pct(timer["store.put"]),
        "journal.record_pct": pct(timer["journal.record"]),
        "journal.lookup_pct": pct(timer["journal.lookup"]),
        "journal.merge_pct": pct(timer["journal.merge"]),
        "fingerprint.pct": pct(timer["fingerprint"]),
    }
    for owner in EVENT_OWNERS:
        m["sim.events_by." + owner] = c["sim.events_by." + owner]
    for layer in ("sim", "shard", "kernel", "ticks", "mpi", "net", "daemons", "cosched",
                  "trace", "analytic", "runner", "app", "other"):
        m[layer + ".self_pct"] = pct(self_s[layer])
    for name in ("kernel.dispatches", "kernel.preemptions", "kernel.voluntary_switches",
                 "kernel.ipis_sent", "ticks.inflate_calls", "mpi.sends", "mpi.allreduces",
                 "net.messages", "net.bytes", "daemons.activations", "cosched.cycles",
                 "cosched.priority_sets", "trace.intervals", "trace.window_queries",
                 "analytic.series", "runner.trials", "runner.cached", "supervisor.spawned",
                 "supervisor.retries", "store.get_calls", "store.put_calls", "store.hits",
                 "store.misses", "store.quarantined", "journal.records",
                 "fingerprint.calls"):
        m[name] = c[name]
    return m
