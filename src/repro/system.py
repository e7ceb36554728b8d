"""High-level system builder: cluster + noise + I/O + job + co-scheduler.

The one-stop assembly used by examples, experiments and integration tests::

    from repro.system import System
    sys_ = System(config)                       # cluster + daemon ecology
    job = sys_.launch(n_ranks=64, tasks_per_node=16, body_factory=body)
    elapsed = job.run(horizon_us=s(60))       # stops at the last rank's finish
    assert sys_.sim.now == job.finish_time

``System`` owns everything long-lived (cluster, daemons, per-node I/O
services); ``launch`` starts a parallel job and — when the config enables
it — the co-scheduler, exactly as POE would when ``MP_PRIORITY`` matches
an admin-file record.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.config import ClusterConfig, PRIO_NORMAL
from repro.cosched.coscheduler import JobCoscheduler
from repro.daemons.engine import DaemonHandle, install_noise
from repro.daemons.io import IoService
from repro.faults.injector import FaultInjector
from repro.machine.cluster import Cluster
from repro.mpi.world import MpiApi, MpiJob
from repro.trace.recorder import TraceRecorder

__all__ = ["System"]


class System:
    """A booted machine ready to run parallel jobs.

    Parameters
    ----------
    config:
        Full cluster description (machine/kernel/network/mpi/cosched/noise).
    trace:
        Optional recorder wired into every node's dispatcher.
    with_io:
        Install an :class:`~repro.daemons.io.IoService` per node
        (applications with I/O phases need one).
    io_priority:
        Priority of the I/O worker daemons (paper: mmfsd at 40).
    shard:
        ``(shard_id, ShardPlan)`` under parallel DES
        (:mod:`repro.sim.parallel`); installs only the owned node block.
    meanfield:
        Optional :class:`~repro.sim.meanfield.MeanFieldConfig` batching
        background daemon activations on unwatched nodes.
    """

    def __init__(
        self,
        config: ClusterConfig,
        trace: Optional[TraceRecorder] = None,
        with_io: bool = False,
        io_priority: int = 40,
        shard: Optional[tuple] = None,
        meanfield=None,
    ) -> None:
        self.config = config
        self.cluster = Cluster(config, trace=trace, shard=shard)
        self.daemons: list[DaemonHandle] = install_noise(
            self.cluster, config.noise, meanfield=meanfield
        )
        self.io_services: list[Optional[IoService]] = []
        if with_io:
            # Rank-indexed wiring stays positional; non-owned nodes (parallel
            # DES) get None so no worker daemon is spawned on an inert replica.
            self.io_services = [
                IoService(node, priority=io_priority)
                if self.cluster.owns_node(node.id)
                else None
                for node in self.cluster.nodes
            ]
        self.coscheds: list[JobCoscheduler] = []
        #: Every job ever launched, in launch order (checkpoint walk).
        self.jobs: list[MpiJob] = []
        #: Fault injector, or None when ``config.faults.enabled`` is off —
        #: in which case no hook of any kind is installed (zero overhead).
        self.injector: Optional[FaultInjector] = (
            FaultInjector(self.cluster, config.faults) if config.faults.enabled else None
        )

    @property
    def sim(self):
        return self.cluster.sim

    @property
    def trace(self) -> TraceRecorder:
        return self.cluster.trace

    def launch(
        self,
        n_ranks: int,
        tasks_per_node: int,
        body_factory: Callable[[int, MpiApi], Generator],
        priority: int = PRIO_NORMAL,
        name: str = "job",
    ) -> MpiJob:
        """Start an MPI job (and its co-scheduler when configured)."""
        placement = self.cluster.place(n_ranks, tasks_per_node)

        def wire(api: MpiApi) -> None:
            if self.io_services:
                api.io_service = self.io_services[placement.node_of(api.rank)]

        job = MpiJob(
            self.cluster, placement, body_factory, priority=priority, name=name, on_api=wire
        )
        job_cosched = None
        if self.config.cosched.enabled:
            job_cosched = JobCoscheduler(
                self.cluster,
                job,
                pipe_filter=self.injector.pipe_filter if self.injector is not None else None,
            )
            self.coscheds.append(job_cosched)
        if self.injector is not None:
            self.injector.attach_job(job, job_cosched)
        self.jobs.append(job)
        return job

    def fault_counters(self, job: MpiJob) -> dict:
        """What the fault plane and *job*'s retransmit layer did: the
        resilience counters E8 reports (all 0 without faults)."""
        inj = self.injector
        rel = job.world.reliability
        net = inj.net_plane if inj else None
        return {
            "retransmits": rel.retransmits if rel else 0,
            "forced": rel.forced if rel else 0,
            "gaveup": rel.gaveup if rel else 0,
            "duplicates_dropped": rel.duplicates_dropped if rel else 0,
            "net_drops": net.drops if net else 0,
            "net_dups": net.dups if net else 0,
            "net_delays": net.delays if net else 0,
            "pipe_losses": inj.pipe_losses if inj else 0,
            "watchdog_restarts": sum(w.restarts for w in inj.watchdogs) if inj else 0,
            "degradation_events": (
                sum(1 for e in inj.events if e.kind == "timesync_degraded") if inj else 0
            ),
        }

    def snapshot_state(self, desc) -> dict:
        """Full-system checkpoint view: every mutable layer, one dict.

        The describer normalises thread identity (tids are process-global
        and differ between rebuilds), so two runs that performed the same
        events produce byte-identical JSON — the property the checkpoint
        fingerprint relies on.
        """
        return {
            "cluster": self.cluster.snapshot_state(desc),
            "daemons": [
                {
                    "name": h.spec.name,
                    "node": h.node,
                    "cpu": h.cpu,
                    "thread": desc.thread(h.thread),
                    "activations": h.activations[0],
                }
                for h in self.daemons
            ],
            "coscheds": [jc.snapshot_state(desc) for jc in self.coscheds],
            "injector": (
                self.injector.snapshot_state(desc)
                if self.injector is not None
                else None
            ),
            "jobs": [job.snapshot_state(desc) for job in self.jobs],
        }
