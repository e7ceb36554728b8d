"""Message-count complexity of the collective algorithms.

The paper's scaling argument starts from the algorithmic fact that "the
standard tree algorithm for MPI_Allreduce does no more than 2·log2(N)
separate point to point communications"; these tests pin the exact message
counts of every schedule so an algorithmic regression (extra rounds, a
broken fold) shows up as arithmetic, not as a subtle latency shift.
"""

import math

import pytest

from repro.config import ClusterConfig, MachineConfig, MpiConfig
from repro.machine import Cluster
from repro.mpi.world import MpiJob
from repro.units import s


def count_messages(n_ranks, body_factory, algorithm="recursive_doubling", seed=0):
    cfg = ClusterConfig(
        machine=MachineConfig(n_nodes=-(-n_ranks // 4), cpus_per_node=4),
        mpi=MpiConfig(progress_threads_enabled=False, algorithm=algorithm),
        seed=seed,
    )
    cluster = Cluster(cfg)
    job = MpiJob(cluster, cluster.place(n_ranks, min(4, n_ranks)), body_factory, config=cfg.mpi)
    job.run(horizon_us=s(60))
    return cluster.fabric.stats.messages


def allreduce_body(rank, api):
    yield from api.allreduce(1.0)


def expected_rd_allreduce(n: int) -> int:
    """Fold + recursive doubling + unfold message count."""
    pof2 = 1 << (n.bit_length() - 1)
    rem = n - pof2
    # fold: rem sends; RD: pof2 ranks × log2(pof2) exchanges (each exchange
    # = 2 messages per pair = pof2 per round); unfold: rem sends.
    return 2 * rem + pof2 * int(math.log2(pof2))


class TestAllreduceComplexity:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_power_of_two_counts(self, n):
        assert count_messages(n, allreduce_body) == n * int(math.log2(n))

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 11, 13])
    def test_non_power_of_two_counts(self, n):
        assert count_messages(n, allreduce_body) == expected_rd_allreduce(n)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_per_rank_bound_is_paper_2log2(self, n):
        """Per-rank communications ≤ 2·log2(N), the paper's figure."""
        total = count_messages(n, allreduce_body)
        assert total / n <= 2 * math.log2(n) + 1e-9

    @pytest.mark.parametrize("n", [4, 8])
    def test_binomial_counts(self, n):
        # Reduce: n-1 messages up the tree; bcast: n-1 down.
        assert count_messages(n, allreduce_body, algorithm="binomial") == 2 * (n - 1)

    @pytest.mark.parametrize("n", [4, 8, 13])
    def test_hardware_counts(self, n):
        # Deposits and fan-out ride the adapter/switch path directly — no
        # point-to-point fabric messages at all; that is the whole point.
        assert count_messages(n, allreduce_body, algorithm="hardware") == 0


class TestOtherCollectives:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_barrier_dissemination_counts(self, n):
        def body(rank, api):
            yield from api.barrier()

        rounds = math.ceil(math.log2(n))
        assert count_messages(n, body) == n * rounds

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_allgather_ring_counts(self, n):
        def body(rank, api):
            yield from api.allgather(rank)

        assert count_messages(n, body) == n * (n - 1)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_reduce_scatter_ring_counts(self, n):
        def body(rank, api):
            yield from api.reduce_scatter(list(range(n)))

        assert count_messages(n, body) == n * (n - 1)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_alltoall_counts(self, n):
        def body(rank, api):
            yield from api.alltoall(list(range(n)))

        assert count_messages(n, body) == n * (n - 1)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_bcast_counts(self, n):
        def body(rank, api):
            yield from api.bcast("v" if rank == 0 else None)

        assert count_messages(n, body) == n - 1

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_scan_counts(self, n):
        def body(rank, api):
            yield from api.scan(rank)

        # Hillis-Steele: at distance d, ranks d..N-1 receive one message.
        expected = sum(n - d for d in (2**k for k in range(int(math.log2(n)) + 1)) if d < n)
        assert count_messages(n, body) == expected


#: One body per collective at 12 ranks (not a power of two, so the
#: allreduce folds and the alltoall takes the shifted ring).
POSTING_BODIES = {
    "allreduce-rd": ("recursive_doubling", lambda rank, api: api.allreduce(1.0)),
    "allreduce-binomial": ("binomial", lambda rank, api: api.allreduce(1.0)),
    "barrier": ("recursive_doubling", lambda rank, api: api.barrier()),
    "bcast": ("recursive_doubling", lambda rank, api: api.bcast(rank)),
    "allgather": ("recursive_doubling", lambda rank, api: api.allgather(rank)),
    "reduce-scatter": ("recursive_doubling", lambda rank, api: api.reduce_scatter(list(range(12)))),
    "alltoall": ("recursive_doubling", lambda rank, api: api.alltoall(list(range(12)))),
    "scan": ("recursive_doubling", lambda rank, api: api.scan(rank)),
}


class TestEveryMessageIsPosted:
    """Each fabric message enters through ``MpiWorld.send``, exactly once.

    ``send`` is the one entry point a tracer or a counter can wrap to see
    the MPI layer's traffic, so no collective may post around it, and none
    may post a message twice.
    """

    @pytest.mark.parametrize("name", POSTING_BODIES)
    def test_sends_match_fabric_messages(self, name, monkeypatch):
        from repro.mpi.world import MpiWorld

        posted = []
        original = MpiWorld.send

        def counting_send(world, *args):
            posted.append(args)
            return original(world, *args)

        monkeypatch.setattr(MpiWorld, "send", counting_send)
        algorithm, body = POSTING_BODIES[name]
        messages = count_messages(12, body, algorithm=algorithm)
        assert messages > 0
        assert len(posted) == messages
