"""Shard topology and the cross-shard message router.

Leaf module (stdlib only) so :class:`~repro.machine.cluster.Cluster` can
carry a router without importing the parallel-DES driver; the driver
itself lives in :mod:`repro.sim.parallel`.

Shard-stable RNG stream naming (the contract parallel DES rests on)
-------------------------------------------------------------------
Every shard builds the **full** cluster (construction schedules no
events, so non-owned nodes are inert), which fixes the construction-time
draw order (``machine.clock``, ``machine.tickphase``, ``switch.clock``)
identically on every shard.  All *runtime* randomness is drawn from
streams named per entity, never from a shared event-order-dependent
stream:

* ``kernel.lottery.n<node>`` — lottery dispatch (kernel/policy.py)
* ``daemon.<name>.n<node>.c<cpu>`` — daemon service/jitter draws
* ``daemon.<name>.phase`` — one aligned-phase draw at install time

:class:`repro.rng.StreamFactory` derives each stream from the seed and
the CRC32 of its name — independent of creation order — so a stream
draws identically regardless of which shard owns the node, and identically
whether or not the sibling nodes' streams were ever created.  The fault
streams (``faults.*``) follow the same per-entity naming, but faults are
serial-only: sharded mode rejects them, and hardware collectives, whose
switch-combine hop is shorter than the conservative lookahead (see
:func:`repro.sim.parallel.validate_sharded_config`).
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = ["ShardPlan", "ShardRouter"]


@dataclass(frozen=True)
class ShardPlan:
    """Contiguous block partition of cluster nodes across shards.

    With no explicit ``boundaries``, ``shard_of(node) = node * n_shards
    // n_nodes`` — blocks differ in size by at most one node.  An
    explicit ``boundaries`` tuple ``(b_0=0, b_1, ..., b_S=n_nodes)``
    assigns nodes ``[b_k, b_{k+1})`` to shard ``k`` — still contiguous
    (so a node's ranks never split, and a job's consecutive ranks
    ``node = rank // tpn`` stay on as few shards as the cut allows), but
    the cuts can respect rank placement: :meth:`for_placement` weights
    each node by the ranks it hosts, so idle tail nodes don't eat shard
    capacity and every shard carries a near-equal share of the job.
    """

    n_nodes: int
    n_shards: int
    boundaries: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if not 1 <= self.n_shards <= self.n_nodes:
            raise ValueError(
                f"n_shards must be in 1..{self.n_nodes} (n_nodes), got {self.n_shards}"
            )
        b = self.boundaries
        if b is not None:
            if (
                len(b) != self.n_shards + 1
                or b[0] != 0
                or b[-1] != self.n_nodes
                or any(b[i] >= b[i + 1] for i in range(len(b) - 1))
            ):
                raise ValueError(
                    f"boundaries must be strictly increasing from 0 to "
                    f"{self.n_nodes} with {self.n_shards + 1} entries, got {b}"
                )

    @classmethod
    def for_placement(
        cls,
        n_nodes: int,
        n_shards: int,
        job_nodes: int,
        tasks_per_node: int,
    ) -> "ShardPlan":
        """Plan whose cuts balance *ranks*, not node counts.

        The job packs ranks onto nodes ``0..job_nodes-1`` (``node = rank
        // tasks_per_node``); those nodes weigh ``tasks_per_node``, idle
        nodes weigh 1 (their daemons still cost something).  A greedy
        prefix-sum cut puts each boundary where the cumulative weight is
        closest to ``k/S`` of the total, while leaving every shard at
        least one node.  Deterministic, and purely an execution-strategy
        choice: the result digest is plan-independent.
        """
        if not 0 <= job_nodes <= n_nodes:
            raise ValueError(
                f"job_nodes {job_nodes} out of range 0..{n_nodes}"
            )
        weights = [
            tasks_per_node if n < job_nodes else 1 for n in range(n_nodes)
        ]
        prefix = [0]
        for w in weights:
            prefix.append(prefix[-1] + w)
        total = prefix[-1]
        bounds = [0]
        for k in range(1, n_shards):
            target = k * total / n_shards
            lo = bounds[-1] + 1
            hi = n_nodes - (n_shards - k)  # leave >=1 node per later shard
            cut = min(range(lo, hi + 1), key=lambda j: (abs(prefix[j] - target), j))
            bounds.append(cut)
        bounds.append(n_nodes)
        return cls(n_nodes, n_shards, boundaries=tuple(bounds))

    def shard_of(self, node: int) -> int:
        """Shard owning *node*."""
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range 0..{self.n_nodes - 1}")
        if self.boundaries is not None:
            return bisect_right(self.boundaries, node) - 1
        return node * self.n_shards // self.n_nodes

    def nodes_of(self, shard: int) -> range:
        """The contiguous node block owned by *shard*."""
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"shard {shard} out of range 0..{self.n_shards - 1}")
        if self.boundaries is not None:
            return range(self.boundaries[shard], self.boundaries[shard + 1])
        # First node n with n * S // N == shard, i.e. ceil(shard * N / S).
        lo = -(-shard * self.n_nodes // self.n_shards)
        hi = -(-(shard + 1) * self.n_nodes // self.n_shards)
        return range(lo, hi)


class ShardRouter:
    """Per-shard outbox for cross-shard message traffic.

    A message whose destination node lives on another shard is not
    scheduled locally; the sender appends a timestamped **envelope** to
    the outbox and the coordinator routes it to the owning shard at the
    next superstep barrier.  Envelopes are plain tuples

        ``(arrival_time, src_node, link_seq, world_uid, dst_node, payload)``

    whose first three fields are globally unique (a node belongs to
    exactly one shard, and ``link_seq`` is per-shard monotone), so the
    receiving shard can sort incoming envelopes canonically and schedule
    their delivery in an order independent of shard count.

    ``world_uid`` names the delivery target: every :class:`MpiWorld`
    registers its arrival callback at construction, and worlds are
    constructed in launch order on **every** shard, so uids agree across
    shards without any name exchange.
    """

    def __init__(self, plan: ShardPlan, shard_id: int) -> None:
        if not 0 <= shard_id < plan.n_shards:
            raise ValueError(f"shard_id {shard_id} out of range 0..{plan.n_shards - 1}")
        self.plan = plan
        self.shard_id = shard_id
        self.outbox: list[tuple] = []
        self.sent = 0
        self.received = 0
        self._link_seq = itertools.count()
        self._worlds: list[Callable[[Any], None]] = []

    def owns(self, node: int) -> bool:
        """True when this shard simulates *node*."""
        return self.plan.shard_of(node) == self.shard_id

    def register(self, deliver: Callable[[Any], None]) -> int:
        """Register a delivery callback; returns its cross-shard uid."""
        self._worlds.append(deliver)
        return len(self._worlds) - 1

    def deliver_target(self, world_uid: int) -> Callable[[Any], None]:
        """Callback registered under *world_uid* (receive side)."""
        return self._worlds[world_uid]

    def emit(
        self,
        arrival_time: float,
        src_node: int,
        world_uid: int,
        dst_node: int,
        payload: Any,
    ) -> None:
        """Queue one cross-shard message envelope (send side)."""
        self.sent += 1
        self.outbox.append(
            (arrival_time, src_node, next(self._link_seq), world_uid, dst_node, payload)
        )

    def drain(self) -> list[tuple]:
        """Take and clear the pending outbox (one superstep's sends)."""
        out, self.outbox = self.outbox, []
        return out

    def snapshot_state(self, desc) -> dict:
        """Checkpoint view: topology, counters, undelivered envelopes."""
        return {
            "shard_id": self.shard_id,
            "n_shards": self.plan.n_shards,
            "n_nodes": self.plan.n_nodes,
            "sent": self.sent,
            "received": self.received,
            "worlds": len(self._worlds),
            "outbox": [
                [arrival, src, seq, uid, dst, desc.value(payload)]
                for arrival, src, seq, uid, dst, payload in self.outbox
            ],
        }
