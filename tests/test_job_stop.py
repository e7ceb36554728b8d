"""A serial job run stops at the event where its last rank finishes.

``MpiJob.run`` (and :func:`repro.mpi.world.run_jobs` for several jobs)
drives the simulator with one ``run_until(horizon)`` and the job's last
rank calls :meth:`Simulator.stop`.  The events fired are a prefix of the
sequence a run to any later time fires, so a resumed simulator reaches
exactly the counts of a run that never stopped (the ``events_to_1s``
values of the engine runs in tests/test_contract.py).
"""

import re

import pytest

from repro.checkpoint.monitor import InvariantMonitor
from repro.config import ClusterConfig, MachineConfig, MpiConfig
from repro.daemons.catalog import scale_noise, standard_noise
from repro.kernel.thread import Block
from repro.machine import Cluster
from repro.mpi.world import MpiJob, run_jobs
from repro.system import System
from repro.units import ms, s


def noisy_system() -> System:
    """Two 4-CPU nodes under x30 daemon noise, seed 5 (the ``engine
    cluster_des`` machine of tests/test_contract.py, at 16 CPUs per node
    and seed 1, is the same otherwise)."""
    return System(ClusterConfig(
        machine=MachineConfig(n_nodes=2, cpus_per_node=4),
        mpi=MpiConfig(progress_threads_enabled=False),
        noise=scale_noise(standard_noise(include_cron=False), 30.0),
        seed=5,
    ))


def allreduce_body(calls):
    def body(rank, api):
        for _ in range(calls):
            yield from api.compute(ms(1))
            yield from api.allreduce(1)
    return body


class TestStopsAtFinish:
    def test_plain_run_until_after_a_job_runs_to_its_target(self):
        system = noisy_system()
        job = system.launch(8, 4, allreduce_body(5))
        job.run(horizon_us=s(60))
        # A stop requested outside a run does not shorten the next one.
        system.sim.stop()
        target = job.finish_time + ms(50)
        before = system.sim.events_processed
        system.sim.run_until(target)
        assert system.sim.now == target
        assert system.sim.events_processed > before

    def test_unfinishable_job_raises_the_horizon_error(self):
        cluster = Cluster(ClusterConfig(
            machine=MachineConfig(n_nodes=1, cpus_per_node=2),
            mpi=MpiConfig(progress_threads_enabled=False),
        ))

        def body(rank, api):
            if rank == 1:
                yield Block()  # never woken
            else:
                yield from api.compute(ms(1))

        job = MpiJob(cluster, cluster.place(2, 2), body, name="stuck")
        with pytest.raises(RuntimeError, match=re.escape(
            f"job 'stuck' incomplete at horizon {ms(20)}: 1/2 ranks finished"
        )):
            job.run(horizon_us=ms(20))
        assert cluster.sim.now == ms(20)

    def test_job_finishing_after_a_horizon_error_does_not_stop_a_plain_run(self):
        system = noisy_system()
        job = system.launch(8, 4, lambda rank, api: api.compute(ms(30)))
        with pytest.raises(RuntimeError, match="incomplete at horizon"):
            job.run(horizon_us=ms(20))
        system.sim.run_until(s(1))
        assert job.done
        assert system.sim.now == s(1)

    def test_job_driven_by_plain_run_until_does_not_stop_it(self):
        system = noisy_system()
        job = system.launch(8, 4, allreduce_body(5))
        system.sim.run_until(s(1))
        assert job.done and job.finish_time < s(1)
        assert system.sim.now == s(1)

    def test_second_job_starts_at_the_first_jobs_finish(self):
        system = noisy_system()
        first = system.launch(8, 4, allreduce_body(5), name="first")
        first.run(horizon_us=s(60))
        second = system.launch(8, 4, allreduce_body(5), name="second")
        assert second.start_time == first.finish_time
        second.run(horizon_us=s(60))
        assert system.sim.now == second.finish_time > first.finish_time

    def test_sanitizer_reports_no_violation_on_a_stopped_run(self):
        system = noisy_system()
        monitor = InvariantMonitor(system)
        monitor.install_sanitizer()
        job = system.launch(8, 4, allreduce_body(10))
        job.run(horizon_us=s(60))
        monitor.uninstall()
        assert system.sim.now == job.finish_time
        report = monitor.check()
        assert report.ok, report.summary()


class TestRunJobs:
    def test_two_colocated_jobs_end_at_the_later_finish(self):
        system = noisy_system()
        cluster = system.cluster
        placement = cluster.place(8, 4)
        jobs = [
            MpiJob(cluster, placement, allreduce_body(calls), name=f"job{calls}")
            for calls in (3, 6)
        ]
        run_jobs(jobs, horizon_us=s(60))
        assert all(job.done for job in jobs)
        assert jobs[0].finish_time < jobs[1].finish_time
        assert cluster.sim.now == jobs[1].finish_time
        # Neither job keeps stopping a later run.
        target = cluster.sim.now + ms(10)
        cluster.sim.run_until(target)
        assert cluster.sim.now == target
