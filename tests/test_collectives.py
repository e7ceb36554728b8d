"""Collective algorithms: correctness across sizes, ops and algorithms.

Correctness here is load-bearing: every benchmark result rests on these
schedules actually computing the reduction while the scheduler interleaves
them arbitrarily.
"""

import operator

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ClusterConfig, MachineConfig, MpiConfig
from repro.machine import Cluster
from repro.mpi.world import MpiJob
from repro.units import s


def run_collective(n_ranks, body_factory, algorithm="recursive_doubling", tpn=None, seed=0):
    tpn = tpn if tpn is not None else min(4, n_ranks)
    n_nodes = -(-n_ranks // tpn)
    cfg = ClusterConfig(
        machine=MachineConfig(n_nodes=n_nodes, cpus_per_node=tpn),
        mpi=MpiConfig(progress_threads_enabled=False, algorithm=algorithm),
        seed=seed,
    )
    cluster = Cluster(cfg)
    job = MpiJob(cluster, cluster.place(n_ranks, tpn), body_factory, config=cfg.mpi)
    job.run(horizon_us=s(60))
    return job


class TestAllreduce:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 12, 16, 17])
    @pytest.mark.parametrize("algorithm", ["recursive_doubling", "binomial"])
    def test_sum_all_sizes(self, n, algorithm):
        results = {}

        def body(rank, api):
            results[rank] = yield from api.allreduce(float(rank))

        run_collective(n, body, algorithm=algorithm)
        expected = float(sum(range(n)))
        assert results == {r: expected for r in range(n)}

    def test_max_op(self):
        results = {}

        def body(rank, api):
            results[rank] = yield from api.allreduce(float(rank), op=max)

        run_collective(6, body)
        assert set(results.values()) == {5.0}

    def test_min_op(self):
        results = {}

        def body(rank, api):
            results[rank] = yield from api.allreduce(float(rank) + 3.0, op=min)

        run_collective(5, body)
        assert set(results.values()) == {3.0}

    def test_single_rank_shortcut(self):
        results = {}

        def body(rank, api):
            results[rank] = yield from api.allreduce(42.0)

        run_collective(1, body)
        assert results == {0: 42.0}

    def test_consecutive_allreduces_do_not_cross(self):
        results = {}

        def body(rank, api):
            a = yield from api.allreduce(1.0)
            b = yield from api.allreduce(10.0)
            results[rank] = (a, b)

        run_collective(7, body)
        assert set(results.values()) == {(7.0, 70.0)}

    @pytest.mark.parametrize("wait_mode", ["poll", "block"])
    def test_no_mailbox_outlives_its_message(self, wait_mode):
        """Collective tags are unique per message, so a mailbox kept after
        its message was taken would never be used again."""
        cfg = ClusterConfig(
            machine=MachineConfig(n_nodes=3, cpus_per_node=4),
            mpi=MpiConfig(progress_threads_enabled=False, wait_mode=wait_mode),
        )
        cluster = Cluster(cfg)

        def body(rank, api):
            for _ in range(20):
                yield from api.allreduce(1.0)

        job = MpiJob(cluster, cluster.place(12, 4), body, config=cfg.mpi)
        job.run(horizon_us=s(60))
        assert cluster.fabric.stats.messages > 0
        assert job.world._mail == {}

    def test_takes_simulated_time(self):
        times = {}

        def body(rank, api):
            t0 = api.now
            yield from api.allreduce(1.0)
            times[rank] = api.now - t0

        run_collective(8, body)
        assert all(t > 0 for t in times.values())


class TestBarrier:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    def test_barrier_synchronises(self, n):
        """No rank may leave the barrier before the last rank arrives."""
        enter, leave = {}, {}

        def body(rank, api):
            yield from api.compute(100.0 * rank)  # staggered arrivals
            enter[rank] = api.now
            yield from api.barrier()
            leave[rank] = api.now

        run_collective(n, body)
        assert min(leave.values()) >= max(enter.values())

    def test_barrier_single_rank(self):
        def body(rank, api):
            yield from api.barrier()

        run_collective(1, body)


class TestAllgather:
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 9])
    def test_gathers_all_values(self, n):
        results = {}

        def body(rank, api):
            results[rank] = yield from api.allgather(rank * 11)

        run_collective(n, body)
        expected = [r * 11 for r in range(n)]
        assert all(results[r] == expected for r in range(n))


class TestBcast:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 11, 16])
    def test_broadcast_from_root(self, n):
        results = {}

        def body(rank, api):
            value = "payload" if rank == 0 else None
            results[rank] = yield from api.bcast(value)

        run_collective(n, body)
        assert all(results[r] == "payload" for r in range(n))


class TestPropertyAllreduce:
    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=14),
        values=st.lists(st.integers(min_value=-1000, max_value=1000), min_size=14, max_size=14),
        algorithm=st.sampled_from(["recursive_doubling", "binomial"]),
    )
    def test_allreduce_sums_arbitrary_contributions(self, n, values, algorithm):
        results = {}

        def body(rank, api):
            results[rank] = yield from api.allreduce(values[rank], op=operator.add)

        run_collective(n, body, algorithm=algorithm, seed=n)
        expected = sum(values[:n])
        assert results == {r: expected for r in range(n)}

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(min_value=2, max_value=12), tpn=st.integers(min_value=1, max_value=4))
    def test_allreduce_any_placement(self, n, tpn):
        results = {}

        def body(rank, api):
            results[rank] = yield from api.allreduce(1.0)

        run_collective(n, body, tpn=min(tpn, n))
        assert set(results.values()) == {float(n)}
