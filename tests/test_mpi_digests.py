"""Result digests of the branches of the DES's point-to-point layer.

Each case runs a small noisy job down one branch of the message path:
block-mode waits, the fold/unfold of a non-power-of-two Allreduce, the
retransmit layer under drops and duplicates, the demand co-scheduler's
arrival hook, the switch-combined Allreduce, and every software
collective in one body.  It pins a SHA-256 over what the ranks saw (each
call's duration and result, the makespan) and the number of events the
simulator fired.  A change to that layer must reproduce every digest:
the same events, in the same order, with the same outcome.
"""

import hashlib

from repro.config import ClusterConfig, FaultConfig, MachineConfig, MpiConfig
from repro.cosched.demand import DemandCoscheduler
from repro.daemons.catalog import scale_noise, standard_noise
from repro.system import System
from repro.units import s

CALLS = 40


def allreduce_body(sink: dict):
    """Compute, then Allreduce the rank number; record duration and value."""
    def body(rank, api):
        seen = []
        for _ in range(CALLS):
            yield from api.compute(200.0)
            t0 = api.now
            v = yield from api.allreduce(float(rank))
            seen.append((api.now - t0, v))
        sink[rank] = seen

    return body


def collectives_body(sink: dict):
    """Every collective and a point-to-point ring, in one loop."""
    def body(rank, api):
        n = api.size
        seen = []
        for i in range(CALLS // 4):
            yield from api.compute(200.0)
            yield from api.barrier()
            seen.append(api.now)
            seen.append((yield from api.bcast(i)))
            seen.append((yield from api.allgather(rank)))
            seen.append((yield from api.reduce_scatter([rank + b for b in range(n)])))
            seen.append((yield from api.alltoall([rank * n + b for b in range(n)])))
            seen.append((yield from api.scan(rank)))
            seen.append((yield from api.allreduce(float(rank))))
            yield from api.send((rank + 1) % n, i, rank)
            seen.append((yield from api.recv((rank - 1) % n, i)))
            seen.append(api.now)
        sink[rank] = seen

    return body


def run_case(n_ranks, tpn, mpi, faults=FaultConfig(), body=allreduce_body, demand=False):
    system = System(ClusterConfig(
        machine=MachineConfig(n_nodes=-(-n_ranks // tpn), cpus_per_node=tpn),
        mpi=mpi,
        noise=scale_noise(standard_noise(include_cron=False), 50.0),
        faults=faults,
        seed=3,
    ))
    sink: dict = {}
    job = system.launch(n_ranks, tpn, body(sink))
    dc = DemandCoscheduler(system.cluster, job) if demand else None
    job.run(horizon_us=s(60))
    payload = [sorted(sink.items()), job.elapsed_us, system.sim.events_processed]
    digest = hashlib.sha256(repr(payload).encode()).hexdigest()
    return digest, system, job, dc


POLL = MpiConfig(progress_threads_enabled=False)
LOSSY = FaultConfig(enabled=True, msg_drop_prob=0.05, msg_dup_prob=0.05)

#: Recorded on the generator-per-step message path, before it was flattened.
GOLDEN = {
    "block-16": "2eeffcb8a06dfd4346a1d171d5068980cdf7c3e14e433cce05ecfeb58acea6bf",
    "fold-12": "90254153592704ed3cd9ce0bec29426c68c6b4963e6beee5cf45add96885dcbf",
    "reliable-12": "5f7ae4ed96075ef3a62d6112e6fb26a1a25e8772f3c32d285e0666c1696f5629",
    "demand-12": "b01495f75e19299cb5408aad2adf7f155d4f73ca73d7b52d138b757ad1245bf0",
    "hardware-12": "23baaf33eb42833cf3505e95e11bd919434f07ea06f32ead2a7dfd61537a948e",
    "collectives-12": "1061520e7aefd632724a9f3f2ab572620d71452302377509d8b74e1ae594eed8",
}


def test_block_mode_allreduce():
    digest, *_ = run_case(16, 8, MpiConfig(progress_threads_enabled=False, wait_mode="block"))
    assert digest == GOLDEN["block-16"]


def test_non_power_of_two_allreduce_folds():
    digest, *_ = run_case(12, 6, POLL)
    assert digest == GOLDEN["fold-12"]


def test_reliable_transport_under_drops_and_duplicates():
    digest, system, job, _ = run_case(12, 6, POLL, faults=LOSSY)
    counters = system.fault_counters(job)
    assert counters["retransmits"] > 0 and counters["duplicates_dropped"] > 0
    assert digest == GOLDEN["reliable-12"]


def test_demand_cosched_arrival_listener():
    digest, _, _, dc = run_case(12, 6, POLL, demand=True)
    assert dc.boosts > 0
    assert digest == GOLDEN["demand-12"]


def test_hardware_allreduce():
    digest, *_ = run_case(12, 6, MpiConfig(progress_threads_enabled=False, algorithm="hardware"))
    assert digest == GOLDEN["hardware-12"]


def test_every_collective():
    mpi = MpiConfig(progress_threads_enabled=False, algorithm="binomial")
    digest, *_ = run_case(12, 6, mpi, body=collectives_body)
    assert digest == GOLDEN["collectives-12"]
