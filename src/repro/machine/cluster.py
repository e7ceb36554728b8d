"""Whole-cluster assembly and rank placement."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import ClusterConfig
from repro.machine.node import Node
from repro.net.fabric import Fabric
from repro.net.switch import SwitchClock
from repro.rng import StreamFactory
from repro.sim.core import Simulator
from repro.sim.shard import ShardPlan, ShardRouter
from repro.trace.recorder import TraceRecorder

__all__ = ["Cluster", "Placement"]


@dataclass(frozen=True)
class Placement:
    """Where each MPI rank lives: ``(node, cpu)`` per rank.

    Standard SPMD block placement: rank *r* goes to node ``r // tpn``, CPU
    ``r % tpn``.  With ``tasks_per_node < cpus_per_node`` the highest CPUs
    of each node stay free — the "leave one CPU idle for the daemons"
    mitigation the paper discusses (and improves upon).
    """

    n_ranks: int
    tasks_per_node: int

    def node_of(self, rank: int) -> int:
        """Node index hosting *rank*."""
        return rank // self.tasks_per_node

    def cpu_of(self, rank: int) -> int:
        """CPU index (within its node) that *rank* is pinned to."""
        return rank % self.tasks_per_node

    @property
    def n_nodes(self) -> int:
        return -(-self.n_ranks // self.tasks_per_node)


class Cluster:
    """A built machine: simulator + switch + fabric + nodes.

    Construction applies the co-scheduler's startup clock synchronisation
    when configured (paper §4: the daemon reads the switch clock register
    and slews the node's time-of-day low-order bits to match), because tick
    alignment to global time depends on the post-sync offsets.
    """

    def __init__(
        self,
        config: ClusterConfig,
        trace: Optional[TraceRecorder] = None,
        shard: Optional[tuple[int, ShardPlan]] = None,
    ) -> None:
        self.config = config
        self.sim = Simulator()
        self.rngf = StreamFactory(config.seed)
        #: Cross-shard router (parallel DES), or None for a serial cluster.
        #: Every shard builds the *full* node list below — construction
        #: schedules no events and fixes the construction-time RNG draw
        #: order identically on every shard — but installers (daemons,
        #: I/O, co-schedulers, jobs) consult :meth:`owns_node` so only the
        #: owned block ever gets threads.
        self.router: Optional[ShardRouter] = None
        if shard is not None:
            shard_id, plan = shard
            if plan.n_nodes != config.machine.n_nodes:
                raise ValueError(
                    f"shard plan covers {plan.n_nodes} nodes; "
                    f"machine has {config.machine.n_nodes}"
                )
            self.router = ShardRouter(plan, shard_id)
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.switch = SwitchClock(self.rngf.stream("switch.clock"))
        self.fabric = Fabric(
            self.sim, config.network, track_arrivals=self.router is not None
        )

        clock_rng = self.rngf.stream("machine.clock")
        phase_rng = self.rngf.stream("machine.tickphase")
        sync = config.cosched.enabled and config.cosched.sync_clock
        self.nodes: list[Node] = []
        for i in range(config.machine.n_nodes):
            raw_offset = float(
                clock_rng.uniform(
                    -config.machine.max_clock_offset_us, config.machine.max_clock_offset_us
                )
            )
            if sync:
                # Startup sync: the node slews its clock to the switch
                # register; the residual is the register read error.
                offset = self.switch.read(0.0)
            else:
                offset = raw_offset
            tick_phase = float(phase_rng.uniform(0.0, config.kernel.physical_tick_period_us))
            self.nodes.append(
                Node(
                    self.sim,
                    node_id=i,
                    n_cpus=config.machine.cpus_per_node,
                    kernel=config.kernel,
                    clock_offset_us=offset,
                    tick_phase_us=tick_phase,
                    trace=self.trace,
                    rng_streams=self.rngf,
                )
            )

    def owns_node(self, node_id: int) -> bool:
        """True when this cluster instance simulates *node_id* (always
        true for serial clusters; the owned shard block otherwise)."""
        return self.router is None or self.router.owns(node_id)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def cpus_per_node(self) -> int:
        return self.config.machine.cpus_per_node

    @property
    def total_cpus(self) -> int:
        return self.n_nodes * self.cpus_per_node

    def snapshot_state(self, desc) -> dict:
        """Checkpoint view of everything the cluster owns.

        The event calendar is captured as described coordinates (time,
        priority, sequence, callback reference) — callbacks themselves are
        re-bound on restore by rebuilding through the checkpoint builder
        registry and replaying to the snapshot instant.
        """
        return {
            "sim": {
                "now": self.sim.now,
                "events_processed": self.sim.events_processed,
                "events": [desc.event(ev) for ev in self.sim.active_events()],
            },
            "rng": self.rngf.snapshot_state(),
            "switch": self.switch.snapshot_state(desc),
            "fabric": self.fabric.snapshot_state(desc),
            "trace": self.trace.snapshot_state(desc),
            "shard": (
                self.router.snapshot_state(desc) if self.router is not None else None
            ),
            "nodes": [node.snapshot_state(desc) for node in self.nodes],
        }

    def place(self, n_ranks: int, tasks_per_node: Optional[int] = None) -> Placement:
        """Block placement of *n_ranks* MPI tasks onto the cluster."""
        tpn = tasks_per_node if tasks_per_node is not None else self.cpus_per_node
        if tpn < 1 or tpn > self.cpus_per_node:
            raise ValueError(f"tasks_per_node {tpn} out of range 1..{self.cpus_per_node}")
        placement = Placement(n_ranks, tpn)
        if placement.n_nodes > self.n_nodes:
            raise ValueError(
                f"{n_ranks} ranks at {tpn}/node needs {placement.n_nodes} nodes; "
                f"cluster has {self.n_nodes}"
            )
        return placement

    def run_for(self, duration_us: float, max_events: Optional[int] = None) -> int:
        """Advance the whole cluster by *duration_us*."""
        return self.sim.run_until(self.sim.now + duration_us, max_events=max_events)
