"""The fault injector: primitives, scheduling, and resilience wiring.

One :class:`FaultInjector` per run (built by :class:`repro.system.System`
when ``ClusterConfig.faults.enabled``).  Construction installs the
cluster-level machinery:

* a :class:`NetFaultPlane` on the fabric when any stochastic message
  fault has non-zero probability (drop / duplicate / delay);
* one simulator event per scheduled :class:`~repro.config.NodeFaultSpec`
  (node crash = all-CPU freeze, slowdown = duty-cycled CPU theft);
* the timesync-loss event, which fails the switch clock register, slams
  each node's time-of-day clock by a random step, and starts per-node
  free drift.

:meth:`FaultInjector.attach_job` then installs the per-job resilience:
the reliable transport on the MPI world, the timesync health probe and
degradation hook on each node co-scheduler, the scheduled co-scheduler
die/hang faults, and one :class:`~repro.faults.watchdog.CoschedWatchdog`
per job node.

Every injected fault and resilience action is recorded via
``TraceRecorder.record_fault`` (and mirrored on ``injector.events``), so
``trace.analysis.attribute_faults`` can blame slow windows on specific
injections.
"""

from __future__ import annotations

from typing import Optional

from repro.config import CoschedFaultSpec, FaultConfig, NodeFaultSpec
from repro.cosched.timesync import TimesyncMonitor
from repro.faults.watchdog import CoschedWatchdog
from repro.kernel.thread import ThreadState
from repro.trace.recorder import FaultEvent

__all__ = ["FaultInjector", "NetFaultPlane"]


class NetFaultPlane:
    """Per-message fault decisions for the fabric.

    ``plan(src, dst, nbytes)`` returns the extra latencies at which copies
    of the message should arrive: ``(0.0,)`` is clean delivery, ``()`` a
    drop, two entries a duplication.  Node-internal (shared-memory)
    transfers are never faulted.

    Draws come from **per-link, per-type** named streams
    (``faults.net.<kind>.<src>-><dst>`` for each ordered node pair),
    created lazily on first use of the link.  Two contracts ride on this
    naming:

    * enabling one fault type cannot reshuffle another type's draws, and
      traffic on one link cannot reshuffle another link's draws (the
      stream-ordering contracts the hypothesis property tests in
      ``tests/test_faults.py`` pin; chaos shrinking relies on the former
      to vary one axis at a time);
    * every draw for link ``src->dst`` happens inside an event on node
      ``src``, whose local event order the serial engine fixes, so a
      link's decision sequence depends on that link's traffic alone.

    *rngf* is a :class:`repro.rng.StreamFactory` (anything with a
    ``stream(name)`` method).
    """

    def __init__(self, sim, config: FaultConfig, rngf, stats) -> None:
        self.sim = sim
        self.config = config
        self.rngf = rngf
        self.stats = stats
        self._link_rngs: dict[tuple, object] = {}
        self.drops = 0
        self.dups = 0
        self.delays = 0

    def snapshot_state(self, desc) -> dict:
        """Checkpoint view: fault decision counters."""
        return {"drops": self.drops, "dups": self.dups, "delays": self.delays}

    def _rng(self, kind: str, src_node: int, dst_node: int):
        key = (kind, src_node, dst_node)
        rng = self._link_rngs.get(key)
        if rng is None:
            rng = self.rngf.stream(f"faults.net.{kind}.{src_node}->{dst_node}")
            self._link_rngs[key] = rng
        return rng

    def plan(self, src_node: int, dst_node: int, nbytes: int) -> tuple:
        """Decide this message's fate; see the class docstring."""
        if src_node == dst_node:
            return (0.0,)
        cfg = self.config
        lo, hi = cfg.net_window_us
        if not lo <= self.sim.now <= hi:
            return (0.0,)
        if cfg.msg_drop_prob and float(
            self._rng("drop", src_node, dst_node).random()
        ) < cfg.msg_drop_prob:
            self.drops += 1
            self.stats.dropped += 1
            return ()
        first = 0.0
        if cfg.msg_delay_prob and float(
            self._rng("delay", src_node, dst_node).random()
        ) < cfg.msg_delay_prob:
            self.delays += 1
            self.stats.delayed += 1
            first = cfg.msg_delay_us
        if cfg.msg_dup_prob and float(
            self._rng("dup", src_node, dst_node).random()
        ) < cfg.msg_dup_prob:
            self.dups += 1
            self.stats.duplicated += 1
            return (first, first + cfg.msg_delay_us)
        return (first,)


class FaultInjector:
    """Owns all fault state for one run; see the module docstring."""

    def __init__(self, cluster, config: FaultConfig) -> None:
        if not config.enabled:
            raise ValueError("FaultInjector requires FaultConfig.enabled")
        config.validate_targets(len(cluster.nodes))
        self.cluster = cluster
        self.config = config
        #: Every injected fault / resilience action, in injection order
        #: (also mirrored into the trace when recording is enabled).
        self.events: list[FaultEvent] = []
        self.pipe_losses = 0
        self.watchdogs = []
        self.monitor = TimesyncMonitor(cluster.switch)
        # Dedicated streams: consuming fault randomness must never shift
        # the draws of daemons, clocks, or apps (variance isolation).
        # Network faults go further — one stream per fault type *per
        # link* — and pipe loss draws per node, so every stochastic fault
        # decision sequence is keyed to the entity it strikes (see
        # NetFaultPlane).
        self._pipe_rngs: dict[int, object] = {}
        self._clock_rng = cluster.rngf.stream("faults.clock")

        self.net_plane: Optional[NetFaultPlane] = None
        if config.any_net_faults:
            self.net_plane = NetFaultPlane(
                cluster.sim, config, cluster.rngf, cluster.fabric.stats
            )
            cluster.fabric.fault_plane = self.net_plane

        sim = cluster.sim
        for spec in config.node_faults:
            sim.schedule_at(spec.at_us, self._fire_node_fault, spec)
        if config.timesync_loss_at_us is not None:
            sim.schedule_at(config.timesync_loss_at_us, self._lose_timesync)

    def snapshot_state(self, desc) -> dict:
        """Checkpoint view: injected events, pipe losses, watchdog state."""
        return {
            "events": [
                [e.kind, e.node, e.time, repr(e.detail)] for e in self.events
            ],
            "pipe_losses": self.pipe_losses,
            "net_plane": (
                self.net_plane.snapshot_state(desc)
                if self.net_plane is not None
                else None
            ),
            "watchdogs": [w.snapshot_state(desc) for w in self.watchdogs],
        }

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, kind: str, node: int, detail: object = None) -> None:
        """Log one fault/resilience event (own list + trace recorder)."""
        now = self.cluster.sim.now
        self.events.append(FaultEvent(kind, node, now, detail))
        self.cluster.trace.record_fault(kind, node, now, detail)

    # ------------------------------------------------------------------
    # Cluster-level fault firing
    # ------------------------------------------------------------------
    def _fire_node_fault(self, spec: NodeFaultSpec) -> None:
        node = self.cluster.nodes[spec.node]
        if spec.kind == "crash":
            node.inject_freeze(spec.duration_us)
            self.record("node_crash", spec.node, {"duration_us": spec.duration_us})
        else:
            node.inject_slowdown(spec.duration_us, spec.fraction, spec.period_us)
            self.record(
                "node_slowdown",
                spec.node,
                {"duration_us": spec.duration_us, "fraction": spec.fraction},
            )

    def _lose_timesync(self) -> None:
        """Switch clock register dies; node clocks scatter and drift."""
        cfg = self.config
        sim = self.cluster.sim
        self.cluster.switch.fail()
        self.record("timesync_lost", -1)
        rng = self._clock_rng
        for node in self.cluster.nodes:
            jump = float(rng.uniform(-cfg.clock_jump_us, cfg.clock_jump_us))
            drift = float(rng.uniform(-cfg.clock_drift_rate, cfg.clock_drift_rate))
            node.jump_clock(jump)
            node.set_clock_drift(drift, sim.now)

    # ------------------------------------------------------------------
    # Control-pipe loss
    # ------------------------------------------------------------------
    def pipe_filter(self, node_id: int) -> bool:
        """JobCoscheduler hook: False means this pipe message is lost.

        Draws from a per-node stream (``faults.pipe.n<node>``): pipe
        messages are node-local, so one node's losses never shift
        another's.
        """
        if self.config.pipe_loss_prob <= 0.0:
            return True
        rng = self._pipe_rngs.get(node_id)
        if rng is None:
            rng = self.cluster.rngf.stream(f"faults.pipe.n{node_id}")
            self._pipe_rngs[node_id] = rng
        if float(rng.random()) < self.config.pipe_loss_prob:
            self.pipe_losses += 1
            self.record("pipe_msg_lost", node_id)
            return False
        return True

    # ------------------------------------------------------------------
    # Per-job resilience wiring
    # ------------------------------------------------------------------
    def attach_job(self, job, job_cosched=None) -> None:
        """Install resilience for *job* (and its co-scheduler, if any)."""
        cfg = self.config
        job.world.install_reliability(cfg)
        if job_cosched is None:
            return
        # On detected timesync loss a co-scheduler degrades to free-running
        # windows on its own drifting clock instead of re-aligning to a
        # bogus grid.
        for nc in job_cosched.node_coscheds.values():
            nc.sync_check = self.monitor.ok
            nc.on_degrade = self._on_degrade
        for spec in cfg.cosched_faults:
            self.cluster.sim.schedule_at(
                spec.at_us, self._fire_cosched_fault, job_cosched, spec
            )
        for node_id in job_cosched.node_coscheds:
            self.watchdogs.append(CoschedWatchdog(self, job_cosched, node_id))

    def _on_degrade(self, node_cosched) -> None:
        self.record("timesync_degraded", node_cosched.node.id)

    def _fire_cosched_fault(self, job_cosched, spec: CoschedFaultSpec) -> None:
        nc = job_cosched.node_coscheds.get(spec.node)
        if nc is None or job_cosched.job.done:
            return
        if spec.kind == "die":
            if nc.thread.state is not ThreadState.FINISHED:
                nc.node.scheduler.kill(nc.thread)
            self.record("cosched_died", spec.node)
        else:
            nc.hang_for(spec.duration_us)
            self.record("cosched_hung", spec.node, {"duration_us": spec.duration_us})
