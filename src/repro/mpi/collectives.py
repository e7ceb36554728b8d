"""Collective algorithms as point-to-point compositions.

Each collective is a generator to be driven inside an MPI rank's thread
body (``result = yield from allreduce_recursive_doubling(...)``).  All CPU
costs — send/receive overheads, reduction arithmetic — surface as Compute
requests through the world layer, so a daemon preempting one rank mid-tree
stalls exactly the subtree that depends on it.

Algorithms
----------
* ``allreduce_recursive_doubling`` — MPICH-style, with the standard
  fold/unfold handling for non-power-of-two sizes.  Each rank performs
  about ``2·log2(N)`` point-to-point communications, the figure the paper
  quotes for "the standard tree algorithm for MPI_Allreduce", and the
  zero-noise latency grows logarithmically — the baseline the measured
  linear scaling is contrasted against.
* ``allreduce_binomial`` — binomial-tree reduce to rank 0 followed by a
  binomial broadcast; deeper critical path, used for the algorithm
  ablation.
* ``barrier_dissemination`` — ceil(log2 N) rounds of staggered tokens.
* ``allgather_ring`` — the ring pattern the paper lists among fine-grain
  susceptible operations.
* ``bcast_binomial`` / ``reduce_binomial`` — building blocks, also public.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Hashable

__all__ = [
    "allreduce_recursive_doubling",
    "allreduce_binomial",
    "reduce_binomial",
    "bcast_binomial",
    "barrier_dissemination",
    "allgather_ring",
    "reduce_scatter_ring",
    "alltoall_pairwise",
    "scan_linear_tree",
]


def _pof2_below(n: int) -> int:
    """Largest power of two <= n."""
    return 1 << (n.bit_length() - 1)


def allreduce_recursive_doubling(
    world,
    rank: int,
    size: int,
    opid: Hashable,
    value: Any,
    op: Callable[[Any, Any], Any] = operator.add,
    nbytes: int = 8,
):
    """Recursive-doubling Allreduce (MPICH lineage).

    Non-power-of-two sizes fold the first ``2·rem`` ranks pairwise onto the
    odd members, run recursive doubling among ``pof2`` participants, then
    unfold the result back to the even members.
    """
    if size == 1:
        return value
    pof2 = _pof2_below(size)
    rem = size - pof2
    overhead = world.overhead
    reduce_op = world.reduce_op

    if rank < 2 * rem:
        if rank % 2 == 0:
            # Fold: hand my contribution to my odd neighbour and wait for
            # the final result at the end.
            yield overhead
            world.send(rank, rank + 1, (opid, "fold"), value, nbytes)
            msg = yield from world.recv(rank, rank + 1, (opid, "unfold"))
            return msg.payload
        msg = yield from world.recv(rank, rank - 1, (opid, "fold"))
        yield reduce_op
        value = op(value, msg.payload)
        newrank = rank // 2
    else:
        newrank = rank - rem

    # One round is send, receive, combine, each step its own request; the
    # receive is MpiWorld.recv inlined, without a sub-generator.
    send, take, wait, wakeup = world.send, world.take, world.wait, world.wakeup
    mask = 1
    rnd = 0
    while mask < pof2:
        newdst = newrank ^ mask
        dst = newdst * 2 + 1 if newdst < rem else newdst + rem
        tag = (opid, ("rd", rnd))
        yield overhead
        send(rank, dst, tag, value, nbytes)
        key = (rank, dst, tag)
        msg = take(key)
        if msg is None:
            msg = yield wait(key)
            if wakeup is not None:
                yield wakeup
        yield overhead
        yield reduce_op
        value = op(value, msg.payload)
        mask <<= 1
        rnd += 1

    if rank < 2 * rem:  # odd member: unfold to my even neighbour
        yield overhead
        world.send(rank, rank - 1, (opid, "unfold"), value, nbytes)
    return value


def reduce_binomial(
    world,
    rank: int,
    size: int,
    opid: Hashable,
    value: Any,
    op: Callable[[Any, Any], Any] = operator.add,
    nbytes: int = 8,
):
    """Binomial-tree reduction to rank 0; non-roots return None."""
    if size == 1:
        return value

    def tag(phase: Hashable) -> tuple:
        return (opid, "reduce", phase)

    mask = 1
    while mask < size:
        if rank & mask:
            dst = rank & ~mask
            yield world.overhead
            world.send(rank, dst, tag(rank), value, nbytes)
            return None
        src = rank | mask
        if src < size:
            msg = yield from world.recv(rank, src, tag(src))
            yield world.reduce_op
            value = op(value, msg.payload)
        mask <<= 1
    return value


def bcast_binomial(
    world,
    rank: int,
    size: int,
    opid: Hashable,
    value: Any,
    nbytes: int = 8,
):
    """Binomial broadcast from rank 0; every rank returns the value."""
    if size == 1:
        return value

    def tag(dst: int) -> tuple:
        return (opid, "bcast", dst)

    if rank != 0:
        src = rank & (rank - 1)  # clear lowest set bit: binomial parent
        msg = yield from world.recv(rank, src, tag(rank))
        value = msg.payload

    # Children of r are r + 2^j for 2^j below r's lowest set bit (all j for
    # the root).  Larger subtrees first, so deep branches start early.
    low = rank & -rank if rank != 0 else _pof2_below(size) << 1
    child_bit = _pof2_below(size)
    while child_bit >= 1:
        if child_bit < low:
            child = rank + child_bit
            if child < size:
                yield world.overhead
                world.send(rank, child, tag(child), value, nbytes)
        child_bit >>= 1
    return value


def allreduce_binomial(
    world,
    rank: int,
    size: int,
    opid: Hashable,
    value: Any,
    op: Callable[[Any, Any], Any] = operator.add,
    nbytes: int = 8,
):
    """Reduce-then-broadcast Allreduce (deeper critical path than RD)."""
    reduced = yield from reduce_binomial(world, rank, size, opid, value, op, nbytes)
    result = yield from bcast_binomial(world, rank, size, opid, reduced, nbytes)
    return result


def barrier_dissemination(world, rank: int, size: int, opid: Hashable):
    """Dissemination barrier: ceil(log2 N) token rounds."""
    if size == 1:
        return None
    k = 0
    dist = 1
    while dist < size:
        dst = (rank + dist) % size
        src = (rank - dist) % size
        yield world.overhead
        world.send(rank, dst, (opid, "bar", k), None, 4)
        yield from world.recv(rank, src, (opid, "bar", k))
        k += 1
        dist <<= 1
    return None


def reduce_scatter_ring(
    world,
    rank: int,
    size: int,
    opid: Hashable,
    values: list,
    op: Callable[[Any, Any], Any] = operator.add,
    nbytes_per_block: int = 8,
):
    """Ring reduce-scatter: rank *i* ends with the reduction of block *i*.

    N−1 steps; at step *s* each rank sends the partially-reduced block
    ``(rank - s - 1) mod N`` to its right neighbour and folds the block it
    receives — the bandwidth-optimal half of Rabenseifner's Allreduce.
    """
    if len(values) != size:
        raise ValueError(f"need one block per rank; got {len(values)} for {size}")
    if size == 1:
        return values[0]
    blocks = list(values)
    right = (rank + 1) % size
    left = (rank - 1) % size
    for step in range(size - 1):
        # Offsets chosen so the last fold lands on the rank's own block.
        send_idx = (rank - step - 1) % size
        recv_idx = (rank - step - 2) % size
        yield world.overhead
        world.send(
            rank, right, (opid, "rs", step), (send_idx, blocks[send_idx]), nbytes_per_block
        )
        msg = yield from world.recv(rank, left, (opid, "rs", step))
        idx, val = msg.payload
        assert idx == recv_idx
        yield world.reduce_op
        blocks[idx] = op(blocks[idx], val)
    return blocks[rank]


def alltoall_pairwise(
    world,
    rank: int,
    size: int,
    opid: Hashable,
    values: list,
    nbytes_per_block: int = 8,
):
    """Pairwise-exchange all-to-all: N−1 rounds, partner ``rank XOR step``
    when N is a power of two, else the shifted-ring schedule.

    Returns the list of blocks received (index = source rank).
    """
    if len(values) != size:
        raise ValueError(f"need one block per rank; got {len(values)} for {size}")
    result: list[Any] = [None] * size
    result[rank] = values[rank]
    pow2 = size & (size - 1) == 0
    for step in range(1, size):
        if pow2:
            partner = rank ^ step
        else:
            partner = (rank + step) % size
        src = partner if pow2 else (rank - step) % size
        yield world.overhead
        world.send(rank, partner, (opid, "a2a", step), values[partner], nbytes_per_block)
        msg = yield from world.recv(rank, src, (opid, "a2a", step))
        result[src] = msg.payload
    return result


def scan_linear_tree(
    world,
    rank: int,
    size: int,
    opid: Hashable,
    value: Any,
    op: Callable[[Any, Any], Any] = operator.add,
    nbytes: int = 8,
):
    """Inclusive scan via recursive doubling: rank *i* gets op over ranks
    0..i.  log2(N) rounds; each rank folds contributions arriving from the
    left and forwards its running prefix to the right."""
    if size == 1:
        return value
    prefix = value
    dist = 1
    rnd = 0
    while dist < size:
        if rank + dist < size:
            yield world.overhead
            world.send(rank, rank + dist, (opid, "scan", rnd), prefix, nbytes)
        if rank - dist >= 0:
            msg = yield from world.recv(rank, rank - dist, (opid, "scan", rnd))
            yield world.reduce_op
            prefix = op(msg.payload, prefix)
        dist <<= 1
        rnd += 1
    return prefix


def allgather_ring(
    world,
    rank: int,
    size: int,
    opid: Hashable,
    value: Any,
    nbytes: int = 8,
):
    """Ring allgather: N−1 neighbour exchanges; returns the full list."""
    blocks: list[Any] = [None] * size
    blocks[rank] = value
    right = (rank + 1) % size
    left = (rank - 1) % size
    send_idx = rank
    for step in range(size - 1):
        yield world.overhead
        world.send(rank, right, (opid, "ring", step), (send_idx, blocks[send_idx]), nbytes)
        msg = yield from world.recv(rank, left, (opid, "ring", step))
        idx, val = msg.payload
        blocks[idx] = val
        send_idx = idx
    return blocks
