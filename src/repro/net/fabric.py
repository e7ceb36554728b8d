"""Point-to-point message delivery.

A flat-switch LogP-flavoured model: wire time is ``latency + bytes × G``
(node-internal transfers use a lower shared-memory latency).  The fabric
delivers payloads by scheduling a callback at the arrival time; what the
*receiver* does — wake a blocked thread or satisfy a spin — is the MPI
layer's business.

Sender/receiver CPU overheads (LogP *o*) are deliberately **not** included
here: the MPI layer issues them as Compute requests so that they contend
for CPUs like any other work.  That is the paper's whole subject — the
"overhead" of communication is mostly CPU time exposed to scheduling
interference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.config import NetworkConfig
from repro.sim.core import EventPriority, Simulator

__all__ = ["Fabric", "MessageStats"]

#: Plain int, hoisted: ``Simulator.schedule_at`` skips ``int()`` for it.
_PRIO_MESSAGE = int(EventPriority.MESSAGE)


@dataclass
class MessageStats:
    messages: int = 0
    bytes: int = 0
    intra_node: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0


class Fabric:
    """Schedules message arrivals on the shared simulator.

    ``fault_plane`` is an optional hook installed by the fault injector
    (:mod:`repro.faults`): when present, each faultable transmit asks it for
    the list of extra latencies at which copies should arrive — ``[0.0]``
    means clean delivery, ``[]`` a drop, two entries a duplication.  When it
    is ``None`` (every non-fault run) the path is a single ``is None`` test.

    With ``track_arrivals`` (every shard of a parallel-DES run) the fabric
    also keeps a heap of the arrival times it has scheduled, so
    :meth:`next_arrival` can tell the shard's earliest-output bound when
    the next pending delivery lands without scanning the event heap.
    """

    def __init__(
        self, sim: Simulator, config: NetworkConfig, track_arrivals: bool = False
    ) -> None:
        self.sim = sim
        self.config = config
        self.stats = MessageStats()
        self.fault_plane = None
        self._arrivals: Optional[list[float]] = [] if track_arrivals else None

    def snapshot_state(self, desc) -> dict:
        """Checkpoint view: cumulative message counters."""
        return {
            "messages": self.stats.messages,
            "bytes": self.stats.bytes,
            "intra_node": self.stats.intra_node,
            "dropped": self.stats.dropped,
            "duplicated": self.stats.duplicated,
            "delayed": self.stats.delayed,
            "faulted": self.fault_plane is not None,
        }

    def transmit(
        self,
        src_node: int,
        dst_node: int,
        nbytes: int,
        payload: Any,
        on_arrive: Callable[[Any], None],
        faultable: bool = True,
    ) -> float:
        """Launch a message; returns its nominal arrival time.

        ``on_arrive(payload)`` fires at the arrival instant with
        message-delivery event priority (before same-instant kernel work,
        after interrupts), modelling the adapter raising completion ahead
        of dispatcher decisions.

        ``faultable=False`` bypasses any installed fault plane — the
        link-level-guaranteed path the retransmit layer falls back to on its
        final attempt, which is what bounds loss and rules out deadlock.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        same = src_node == dst_node
        wire = self.wire_time(nbytes, same_node=same)
        self.stats.messages += 1
        self.stats.bytes += nbytes
        if same:
            self.stats.intra_node += 1
        arrival = self.sim.now + wire
        if self.fault_plane is not None and faultable:
            for extra in self.fault_plane.plan(src_node, dst_node, nbytes):
                self.deliver_at(arrival + extra, on_arrive, payload)
            return arrival
        self.sim.schedule_at(arrival, on_arrive, payload, priority=_PRIO_MESSAGE)
        if self._arrivals is not None:
            heappush(self._arrivals, arrival)
        return arrival

    def deliver_at(self, time: float, on_arrive: Callable[[Any], None], payload: Any) -> None:
        """Schedule one delivery of *payload* at *time* (message priority).

        The parallel-DES shard host delivers incoming cross-shard
        envelopes through here, so they count as pending arrivals too.
        """
        self.sim.schedule_at(time, on_arrive, payload, priority=_PRIO_MESSAGE)
        if self._arrivals is not None:
            heappush(self._arrivals, time)

    def next_arrival(self) -> Optional[float]:
        """Earliest scheduled delivery that has not fired yet, or None.

        Only meaningful with ``track_arrivals``.  Deliveries are never
        cancelled, so every entry before ``now`` has fired; read at a
        superstep barrier (where ``now`` is the window bound and nothing
        at ``now`` has run) the head is exactly the next pending arrival.
        """
        arrivals = self._arrivals
        now = self.sim.now
        while arrivals and arrivals[0] < now:
            heappop(arrivals)
        return arrivals[0] if arrivals else None

    def wire_time(self, nbytes: int, same_node: bool) -> float:
        """Wire time of one message: ``NetworkConfig.p2p_time``.

        A remote message never takes less than ``NetworkConfig.latency_us``,
        the constant lookahead of :mod:`repro.sim.parallel`.
        """
        return self.config.p2p_time(nbytes, same_node)

    def remote_arrivals(self, src_node: int, dst_node: int, nbytes: int) -> float:
        """Arrival time of a message whose destination lives on another shard.

        Charges this shard's send-side statistics as :meth:`transmit`
        would, but schedules nothing: the caller wraps the arrival in a
        router envelope and the owning shard schedules delivery there.
        No fault plane is consulted (the sharded DES rejects faults).
        Since ``dst_node`` is remote, the arrival is ``>= now +
        latency_us`` — the constant lookahead :mod:`repro.sim.parallel`
        relies on.
        """
        if src_node == dst_node:
            raise ValueError("cross-shard transmit cannot be node-internal")
        self.stats.messages += 1
        self.stats.bytes += nbytes
        return self.sim.now + self.wire_time(nbytes, same_node=False)
