"""The per-node co-scheduler daemon and its job-level installer.

Mechanics reproduced from paper §4:

* One daemon per node, running at an "even more favored priority" but
  asleep almost always.
* It cycles the registered tasks' priorities between favored and
  unfavored values; the cycle has a configured period and duty cycle and
  is aligned so periods end on *second boundaries of the synchronised
  clock* — which is what makes the windows coincide across nodes with no
  daemon-to-daemon communication.
* Task discovery is the **control-pipe protocol**: when a task calls MPI
  init, its PID travels over a pipe to the Partition Manager Daemon (pmd)
  and onward to the co-scheduler, which adds it to its scheduling list.
  We model the pipe as a small delivery latency.
* The **attach/detach API**: a task may ask (again via the pipe) to be
  released from co-scheduling around I/O phases and re-attached after;
  the co-scheduler "acts on the request when it sees it" — here, at its
  next window boundary.
* When the job ends, the co-scheduler notices its processes are gone and
  exits.
"""

from __future__ import annotations

from typing import Optional

from repro.config import CoschedConfig, PRIO_NORMAL
from repro.kernel.thread import Compute, SleepUntil, Thread, ThreadState
from repro.machine.cluster import Cluster
from repro.machine.node import Node
from repro.mpi.world import MpiJob
from repro.units import SEC

__all__ = ["NodeCoscheduler", "JobCoscheduler"]

#: One-way latency of the task → pmd → co-scheduler control-pipe hop, µs.
PIPE_LATENCY_US = 250.0


class NodeCoscheduler:
    """Priority-cycling daemon for the tasks of one job on one node."""

    def __init__(self, cluster: Cluster, node: Node, config: CoschedConfig, job_name: str) -> None:
        self.cluster = cluster
        self.node = node
        self.config = config
        self.tasks: list[Thread] = []
        self.detached: set[int] = set()  # tids
        #: Tasks currently inside a declared fine-grain region (tids).
        self.fine_grain: set[int] = set()
        #: Current window: "favored", "unfavored", or "idle" before start.
        self.window = "idle"
        self._pending: list[tuple[str, Thread]] = []
        self._job_done = False
        #: Number of completed favor/unfavor cycles (tests, stats).
        self.cycles = 0
        #: Liveness: local time of the daemon's last useful wake.  A
        #: watchdog declares the daemon hung when this goes stale.
        self.heartbeat = cluster.sim.now
        #: Optional timesync health probe (installed by the fault injector);
        #: ``None`` means "trust the grid" — the pre-fault behaviour.
        self.sync_check = None
        #: Called once (with this daemon) when timesync loss is detected
        #: and the daemon degrades to free-running windows.
        self.on_degrade = None
        #: Degraded mode: cycle on our own, ignoring the (lost) global
        #: grid — each node free-runs with its own phase, which is exactly
        #: the paper's uncoordinated-baseline pathology.
        self.free_running = False
        self._hang_until = float("-inf")
        self.thread = node.scheduler.spawn(
            self._body(),
            name=f"cosched.{job_name}",
            priority=config.self_priority,
            affinity_cpu=0,
            category="cosched",
            allow_steal=True,
        )

    # -- control-pipe endpoints ----------------------------------------
    def pipe_register(self, task: Thread) -> None:
        """Task PID arrives over the pmd pipe: co-schedule it from now on."""
        self._pending.append(("register", task))

    def pipe_detach(self, task: Thread) -> None:
        """Detach request arrives over the pipe (applied at next flip)."""
        self._pending.append(("detach", task))

    def pipe_attach(self, task: Thread) -> None:
        """Attach request arrives over the pipe (applied at next flip)."""
        self._pending.append(("attach", task))

    def job_finished(self) -> None:
        """Signal that the job's processes are gone; exit at next wake."""
        self._job_done = True

    def knows(self, task: Thread) -> bool:
        """Is *task* registered (or registering)?  Watchdog audit hook."""
        return task in self.tasks or any(
            kind == "register" and t is task for kind, t in self._pending
        )

    def snapshot_state(self, desc) -> dict:
        """Checkpoint view: window bookkeeping and membership.

        Membership sets hold tids, which aren't stable across rebuilds —
        they go through ``desc.tid`` so the restored-and-replayed daemon
        compares equal to the uninterrupted one.
        """
        return {
            "node": self.node.id,
            "window": self.window,
            "cycles": self.cycles,
            "heartbeat": self.heartbeat,
            "free_running": self.free_running,
            "hang_until": self._hang_until,
            "job_done": self._job_done,
            "tasks": [desc.thread(t) for t in self.tasks],
            "detached": sorted(filter(None, (desc.tid(t) for t in self.detached))),
            "fine_grain": sorted(filter(None, (desc.tid(t) for t in self.fine_grain))),
            "pending": [[kind, desc.thread(t)] for kind, t in self._pending],
            "thread": desc.thread(self.thread),
        }

    def hang_for(self, duration_us: float) -> None:
        """Fault injection: wedge the daemon for *duration_us* from now.

        The daemon absorbs the hang at its next wake (a stuck syscall —
        flips stop, heartbeat goes stale, the thread stays alive).  Only
        heartbeat staleness can detect this state.
        """
        self._hang_until = max(self._hang_until, self.cluster.sim.now + duration_us)

    def _absorb_hang(self):
        while self.cluster.sim.now < self._hang_until:
            yield SleepUntil(self._hang_until)

    def _check_timesync(self) -> None:
        """Poll the timesync probe; degrade to free-running on failure."""
        if self.free_running or self.sync_check is None:
            return
        if not self.sync_check():
            self.free_running = True
            if self.on_degrade is not None:
                self.on_degrade(self)

    # -- fine-grain region hints (paper §7 future work) -------------------
    def set_fine_grain(self, task: Thread, active: bool) -> None:
        """MPI-library doorbell: *task* entered/left a fine-grain region.

        Unlike attach/detach (administrative, routed through the pipe and
        applied at window boundaries), region hints bracket sub-millisecond
        collective phases, so they act immediately — the "mechanism for
        parallel applications to establish when they are entering and
        exiting fine-grain regions" the paper's future work calls for.
        Only meaningful with ``fine_grain_only`` schedules.
        """
        if active:
            self.fine_grain.add(task.tid)
        else:
            self.fine_grain.discard(task.tid)
        if (
            self.config.fine_grain_only
            and self.window == "favored"
            and task in self.tasks
            and task.tid not in self.detached
            and task.state is not ThreadState.FINISHED
        ):
            self.node.scheduler.set_priority(task, self._priority_for(task, "favored"))

    # -- schedule --------------------------------------------------------
    def _drain_pipe(self) -> None:
        """Apply queued registrations / attach / detach requests."""
        for kind, task in self._pending:
            if kind == "register":
                if task not in self.tasks:
                    self.tasks.append(task)
            elif kind == "detach":
                self.detached.add(task.tid)
                if task.state is not ThreadState.FINISHED:
                    self.node.scheduler.set_priority(task, PRIO_NORMAL)
            elif kind == "attach":
                self.detached.discard(task.tid)
        self._pending.clear()

    def _priority_for(self, task: Thread, window: str) -> int:
        if window == "favored":
            if self.config.fine_grain_only and task.tid not in self.fine_grain:
                return PRIO_NORMAL
            return self.config.favored_priority
        return self.config.unfavored_priority

    def _set_all(self, window: str) -> None:
        self.window = window
        for task in self.tasks:
            if task.tid in self.detached or task.state is ThreadState.FINISHED:
                continue
            self.node.scheduler.set_priority(task, self._priority_for(task, window))

    def _body(self):
        cfg = self.config
        sim = self.cluster.sim
        node = self.node
        period = cfg.period_us

        def grid_boundary_after(global_t: float) -> float:
            """Next cycle boundary (local-clock grid) strictly after *global_t*.

            Boundaries sit at local times k·period; with period an integral
            number of seconds each one lands on a second boundary, per the
            paper's alignment rule.
            """
            local = node.local_time(global_t)
            k = int(local // period) + 1
            return node.global_time(k * period)

        yield SleepUntil(grid_boundary_after(sim.now))

        while not self._job_done:
            yield from self._absorb_hang()
            self.heartbeat = sim.now
            self._check_timesync()
            # ---- favored window ---------------------------------------
            self._drain_pipe()
            self._set_all("favored")
            yield Compute(cfg.flip_cost_us)
            favor_end = sim.now + cfg.favored_window_us
            if not self.free_running:
                # Keep the grid: unfavor at cycle_start + duty·period of
                # the local grid, not drifted by our own costs.
                local = node.local_time(sim.now)
                cycle_start = (local // period) * period
                favor_end = node.global_time(cycle_start + cfg.favored_window_us)
                if favor_end <= sim.now:
                    favor_end = sim.now
            yield SleepUntil(favor_end)
            if self._job_done:
                break
            yield from self._absorb_hang()
            self.heartbeat = sim.now
            # ---- unfavored window -------------------------------------
            self._drain_pipe()
            self._set_all("unfavored")
            yield Compute(cfg.flip_cost_us)
            if not self.free_running:
                next_cycle = grid_boundary_after(sim.now)
            else:
                next_cycle = sim.now + cfg.unfavored_window_us
            yield SleepUntil(next_cycle)
            self.cycles += 1

        # Job over: restore anything still alive and exit (paper: "the
        # co-scheduler knows that the processes have gone away, and exits").
        self.window = "idle"
        for task in self.tasks:
            if task.tid not in self.detached and task.state is not ThreadState.FINISHED:
                self.node.scheduler.set_priority(task, PRIO_NORMAL)


class _ControlPipe:
    """The task-side handle MpiApi uses for co-scheduler requests."""

    def __init__(self, job_cosched: "JobCoscheduler", rank: int) -> None:
        self._jc = job_cosched
        self._rank = rank

    def request_detach(self, rank: int) -> None:
        self._jc._send_pipe("detach", rank)

    def request_attach(self, rank: int) -> None:
        self._jc._send_pipe("attach", rank)

    def fine_grain(self, rank: int, active: bool) -> None:
        # Region hints use the fast path (a shared-memory doorbell, not
        # the pmd pipe): collective phases are sub-millisecond, and a
        # piped hint would arrive after the region ended.
        jc = self._jc
        nc = jc.node_coscheds[jc.job.placement.node_of(rank)]
        nc.set_fine_grain(jc.job.world.rank_threads[rank], active)


class JobCoscheduler:
    """Installs one :class:`NodeCoscheduler` per job node and wires the
    control-pipe registration protocol.

    Matches paper startup: "when a parallel job starts … and requests that
    it be controlled by the co-scheduler, a daemon process is started on
    each node for the exclusive purpose of scheduling the dispatching
    priorities of the tasks of the job running on that node."
    """

    def __init__(
        self,
        cluster: Cluster,
        job: MpiJob,
        config: Optional[CoschedConfig] = None,
        pipe_filter=None,
    ) -> None:
        self.cluster = cluster
        self.job = job
        self.config = config if config is not None else cluster.config.cosched
        if not self.config.enabled:
            raise ValueError("JobCoscheduler requires CoschedConfig.enabled")
        #: Optional lossy-pipe hook (fault injection): called per control
        #: message; returning False means the message is lost in the pipe.
        self.pipe_filter = pipe_filter
        #: Daemon restarts performed via :meth:`restart_node` (watchdog).
        self.restarts = 0
        # Under parallel DES only the owned shard block gets daemons —
        # remote job nodes are co-scheduled by the shard that owns them.
        job_nodes = sorted(
            {
                job.placement.node_of(r)
                for r in range(job.placement.n_ranks)
                if cluster.owns_node(job.placement.node_of(r))
            }
        )
        self.node_coscheds: dict[int, NodeCoscheduler] = {
            n: NodeCoscheduler(cluster, cluster.nodes[n], self.config, job.name)
            for n in job_nodes
        }
        # MPI-init registration: each task's PID flows over the control
        # pipe shortly after spawn.
        for rank in job.local_ranks:
            nc = self.node_coscheds[job.placement.node_of(rank)]
            task = job.world.rank_threads[rank]
            self._pipe_send(nc, nc.pipe_register, task)
            job.apis[rank].cosched_control = _ControlPipe(self, rank)
        # Poll for job completion so node daemons can exit.
        self._watch_job()

    def _watch_job(self) -> None:
        if self.job.done:
            for nc in self.node_coscheds.values():
                nc.job_finished()
            return
        self.cluster.sim.schedule(self.config.period_us / 4.0, self._watch_job)

    def _pipe_send(self, nc: NodeCoscheduler, method, task: Thread) -> None:
        """Deliver one control-pipe message (subject to injected loss).

        *nc* names the node daemon the pipe belongs to, so the loss hook
        can draw from that node's own fault stream.
        """
        if self.pipe_filter is not None and not self.pipe_filter(nc.node.id):
            return
        self.cluster.sim.schedule(PIPE_LATENCY_US, method, task)

    def _send_pipe(self, kind: str, rank: int) -> None:
        nc = self.node_coscheds[self.job.placement.node_of(rank)]
        task = self.job.world.rank_threads[rank]
        method = nc.pipe_detach if kind == "detach" else nc.pipe_attach
        self._pipe_send(nc, method, task)

    def snapshot_state(self, desc) -> dict:
        """Checkpoint view: restart count plus every node daemon's state."""
        return {
            "restarts": self.restarts,
            "nodes": [
                [n, nc.snapshot_state(desc)]
                for n, nc in sorted(self.node_coscheds.items())
            ],
        }

    # ------------------------------------------------------------------
    # Watchdog support
    # ------------------------------------------------------------------
    def node_tasks(self, node_id: int) -> list[Thread]:
        """The job's task threads placed on *node_id*."""
        placement = self.job.placement
        return [
            self.job.world.rank_threads[r]
            for r in range(placement.n_ranks)
            if placement.node_of(r) == node_id
        ]

    def restart_node(self, node_id: int) -> NodeCoscheduler:
        """Replace a dead/hung node daemon and re-register its tasks.

        The watchdog's recovery action: kill whatever is left of the old
        daemon, start a fresh one (same config — it re-aligns to the grid
        on its own, or free-runs if timesync was already lost), and replay
        each live task's registration over the control pipe.
        """
        old = self.node_coscheds[node_id]
        node = self.cluster.nodes[node_id]
        if old.thread.state is not ThreadState.FINISHED:
            node.scheduler.kill(old.thread)
        nc = NodeCoscheduler(self.cluster, node, self.config, self.job.name)
        nc.sync_check = old.sync_check
        nc.on_degrade = old.on_degrade
        nc.free_running = old.free_running
        nc.detached = set(old.detached)
        self.node_coscheds[node_id] = nc
        self.restarts += 1
        if self.job.done:
            nc.job_finished()
        for task in self.node_tasks(node_id):
            if task.state is not ThreadState.FINISHED:
                self._pipe_send(nc, nc.pipe_register, task)
        return nc
