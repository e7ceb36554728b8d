"""Runtime invariant monitors.

The checkpoint layer's safety net: before a snapshot is written (and, in
sanitizer mode, after every simulator event) the monitor walks the live
system and checks structural invariants that any correct interleaving
must preserve — a thread on two run queues, a CPU that accumulated more
busy time than has elapsed, or a retransmit entry past its attempt limit
each indicate a scheduler/transport bug that would otherwise surface
only as a silently wrong figure.

The monitor is read-only: it schedules nothing, draws no randomness, and
mutates no state, so enabling it leaves every trace and result
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import PRIO_NORMAL
from repro.kernel.thread import ThreadState

__all__ = ["Violation", "InvariantReport", "InvariantError", "InvariantMonitor"]

#: Slack for floating-point time comparisons (µs).
_EPS = 1e-6


@dataclass(frozen=True)
class Violation:
    """One failed invariant check."""

    check: str
    location: str
    message: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.location}: {self.message}"


@dataclass
class InvariantReport:
    """Outcome of one full monitor pass."""

    sim_now: float
    checks_run: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        """One-line all-clear, or one line per violation."""
        if self.ok:
            return f"{self.checks_run} checks clean at t={self.sim_now:.1f}us"
        lines = [
            f"{len(self.violations)} invariant violation(s) at t={self.sim_now:.1f}us:"
        ]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


class InvariantError(RuntimeError):
    """Raised when a monitor pass (or the sanitizer) finds violations."""

    def __init__(self, report: InvariantReport) -> None:
        super().__init__(report.summary())
        self.report = report


class InvariantMonitor:
    """Walks a :class:`repro.system.System` and checks its invariants.

    ``check()`` runs the full pass (checkpoint boundaries);
    ``install_sanitizer()`` hooks a cheap subset into the simulator's
    per-event callback for bug hunts.
    """

    def __init__(self, system) -> None:
        self.system = system

    # ------------------------------------------------------------------
    # Full pass
    # ------------------------------------------------------------------
    def check(self) -> InvariantReport:
        """Run every invariant check; never raises (inspect the report)."""
        report = InvariantReport(sim_now=self.system.sim.now)
        self._check_runqueues(report)
        self._check_cpu_time(report)
        self._check_heap(report)
        self._check_threads(report)
        self._check_messages(report)
        self._check_cosched(report)
        return report

    def check_or_raise(self) -> InvariantReport:
        """Run the full pass; raise :class:`InvariantError` on violations."""
        report = self.check()
        if not report.ok:
            raise InvariantError(report)
        return report

    def _fail(self, report: InvariantReport, check: str, loc: str, msg: str) -> None:
        report.violations.append(Violation(check, loc, msg))

    def _check_runqueues(self, report: InvariantReport) -> None:
        """Queued threads are READY, off-CPU, back-linked, and unique."""
        report.checks_run += 1
        seen: dict[int, str] = {}  # id(thread) -> queue name
        for node in self.system.cluster.nodes:
            sched = node.scheduler
            for q in [*sched.local_queues, sched.global_queue]:
                for _, _, entry in q._heap:
                    t = entry.thread
                    if t is None:
                        continue
                    loc = f"n{node.id}/{q.name}/{t.name}"
                    if id(t) in seen:
                        self._fail(
                            report, "runqueue.unique", loc,
                            f"also queued on {seen[id(t)]}",
                        )
                    seen[id(t)] = q.name
                    if t.state is not ThreadState.READY:
                        self._fail(
                            report, "runqueue.state", loc,
                            f"queued but {t.state.value}",
                        )
                    if t.cpu is not None:
                        self._fail(
                            report, "runqueue.cpu", loc,
                            f"queued while occupying cpu {t.cpu}",
                        )
                    if t.rq_entry is not entry:
                        self._fail(
                            report, "runqueue.backlink", loc,
                            "rq_entry does not point at its queue entry",
                        )

    def _check_cpu_time(self, report: InvariantReport) -> None:
        """No CPU or thread has consumed more time than has elapsed."""
        report.checks_run += 1
        now = self.system.sim.now
        for node in self.system.cluster.nodes:
            sched = node.scheduler
            for cpu in sched.cpus:
                busy = cpu.busy_us
                if cpu.thread is not None:
                    busy += now - cpu.run_began
                if busy > now + _EPS:
                    self._fail(
                        report, "cputime.cpu", f"n{node.id}/cpu{cpu.index}",
                        f"busy {busy:.3f}us exceeds elapsed {now:.3f}us",
                    )
            for t in sched.threads:
                if t.stats.cpu_time_us > now + _EPS:
                    self._fail(
                        report, "cputime.thread", f"n{node.id}/{t.name}",
                        f"cpu_time {t.stats.cpu_time_us:.3f}us exceeds "
                        f"elapsed {now:.3f}us",
                    )

    def _check_heap(self, report: InvariantReport) -> None:
        """No live event is scheduled in the past."""
        report.checks_run += 1
        sim = self.system.sim
        for ev in sim.active_events():
            if ev.time < sim.now - _EPS:
                self._fail(
                    report, "heap.monotonic", f"event seq={ev.seq}",
                    f"fires at {ev.time:.3f}us < now {sim.now:.3f}us",
                )

    def _check_threads(self, report: InvariantReport) -> None:
        """Per-thread state machine consistency."""
        report.checks_run += 1
        for node in self.system.cluster.nodes:
            sched = node.scheduler
            for t in sched.threads:
                loc = f"n{node.id}/{t.name}"
                if t.state is ThreadState.RUNNING:
                    if t.cpu is None or sched.cpus[t.cpu].thread is not t:
                        self._fail(
                            report, "thread.running", loc,
                            f"RUNNING but cpu binding is cpu={t.cpu}",
                        )
                elif t.state is ThreadState.READY:
                    if t.cpu is not None:
                        self._fail(
                            report, "thread.ready", loc,
                            f"READY but still bound to cpu {t.cpu}",
                        )
                    if t.rq_entry is None or not t.rq_entry.live:
                        self._fail(
                            report, "thread.ready", loc,
                            "READY but on no run queue",
                        )
                elif t.state is ThreadState.SLEEPING:
                    if t.wake_ev is None or not t.wake_ev.active:
                        self._fail(
                            report, "thread.sleeping", loc,
                            "SLEEPING with no live wake event",
                        )
                elif t.state is ThreadState.FINISHED:
                    if t.gen is not None:
                        self._fail(
                            report, "thread.finished", loc,
                            "FINISHED but generator not collected",
                        )

    def _check_messages(self, report: InvariantReport) -> None:
        """Message conservation: fault plane vs fabric stats, transport
        sequence-number accounting."""
        report.checks_run += 1
        injector = self.system.injector
        stats = self.system.cluster.fabric.stats
        if injector is not None and injector.net_plane is not None:
            plane = injector.net_plane
            for name, mine, theirs in [
                ("dropped", plane.drops, stats.dropped),
                ("duplicated", plane.dups, stats.duplicated),
                ("delayed", plane.delays, stats.delayed),
            ]:
                if mine != theirs:
                    self._fail(
                        report, "messages.conservation", f"fabric.{name}",
                        f"fault plane counted {mine}, fabric stats {theirs}",
                    )
        for job in self.system.jobs:
            rel = job.world.reliability
            if rel is None:
                continue
            loc = f"job {job.name}"
            # Keys are (src_node, seq).  An entry may legitimately be both
            # delivered and in-flight while its ack is on the wire, so no
            # disjointness check; completeness says every allocated seq is
            # accounted for.
            union = set(rel._inflight) | rel._delivered
            expected = {
                (node, i)
                for node, count in rel._next_seq.items()
                for i in range(count)
            }
            if union != expected:
                missing = expected - union
                extra = union - expected
                self._fail(
                    report, "transport.complete", loc,
                    f"seqs neither in-flight nor delivered: {sorted(missing)[:5]}"
                    + (f"; unallocated: {sorted(extra)[:5]}" if extra else ""),
                )
            for key, entry in rel._inflight.items():
                if entry[3] > rel.max_attempts:
                    self._fail(
                        report, "transport.attempts", f"{loc} seq={key}",
                        f"attempt {entry[3]} exceeds max {rel.max_attempts}",
                    )
                if entry[4] > rel.max_timeout_us + _EPS:
                    self._fail(
                        report, "transport.backoff", f"{loc} seq={key}",
                        f"timeout {entry[4]}us exceeds cap {rel.max_timeout_us}us",
                    )

    def _check_cosched(self, report: InvariantReport) -> None:
        """Window bookkeeping: registered, attached, live tasks carry the
        priority their node's current window dictates."""
        report.checks_run += 1
        now = self.system.sim.now
        for jc in self.system.coscheds:
            cfg = jc.config
            for node_id, nc in jc.node_coscheds.items():
                loc = f"cosched n{node_id}"
                if nc.window not in ("idle", "favored", "unfavored"):
                    self._fail(
                        report, "cosched.window", loc,
                        f"unknown window {nc.window!r}",
                    )
                    continue
                if nc.heartbeat > now + _EPS:
                    self._fail(
                        report, "cosched.heartbeat", loc,
                        f"heartbeat {nc.heartbeat:.3f}us is in the future",
                    )
                if nc.window == "idle":
                    continue
                if nc.window == "favored":
                    allowed = {cfg.favored_priority, PRIO_NORMAL}
                else:
                    allowed = {cfg.unfavored_priority}
                for task in nc.tasks:
                    if task.tid in nc.detached or task.state is ThreadState.FINISHED:
                        continue
                    if task.priority not in allowed:
                        self._fail(
                            report, "cosched.priority", f"{loc}/{task.name}",
                            f"priority {task.priority} outside {sorted(allowed)} "
                            f"during {nc.window} window",
                        )

    # ------------------------------------------------------------------
    # Sanitizer mode
    # ------------------------------------------------------------------
    def install_sanitizer(self) -> None:
        """Hook a cheap invariant subset into every simulator event.

        The hook runs after each event's callback, schedules nothing and
        touches no state, so the event stream — and hence every trace and
        result — stays bit-identical.  Violations raise immediately, at
        the first event that broke the invariant.
        """
        self.system.sim.on_event = self._sanitize

    def uninstall(self) -> None:
        """Remove the per-event hook (restore zero-overhead operation)."""
        if self.system.sim.on_event == self._sanitize:
            self.system.sim.on_event = None

    def _sanitize(self) -> None:
        sim = self.system.sim
        head = sim.peek_time()
        if head is not None and head < sim.now - _EPS:
            report = InvariantReport(sim_now=sim.now, checks_run=1)
            report.violations.append(
                Violation("heap.monotonic", "sanitizer",
                          f"head event at {head:.3f}us < now {sim.now:.3f}us")
            )
            raise InvariantError(report)
        for node in self.system.cluster.nodes:
            for cpu in node.scheduler.cpus:
                t = cpu.thread
                if t is not None and t.state is not ThreadState.RUNNING:
                    report = InvariantReport(sim_now=sim.now, checks_run=2)
                    report.violations.append(
                        Violation(
                            "thread.running", f"n{node.id}/cpu{cpu.index}",
                            f"occupant {t.name} is {t.state.value}",
                        )
                    )
                    raise InvariantError(report)
