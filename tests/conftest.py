"""Shared fixtures and helpers: a scheduler harness, and supervisor test timing."""

from __future__ import annotations

import pytest

from repro.config import KernelConfig
from repro.experiments import supervisor
from repro.experiments.supervisor import SupervisorConfig
from repro.kernel.scheduler import NodeScheduler
from repro.kernel.thread import Block, Compute, Sleep, SpinWait, YieldCpu
from repro.kernel.ticks import TickSchedule
from repro.sim.core import Simulator


class SchedulerHarness:
    """One node's scheduler plus convenience spawn/record helpers."""

    def __init__(
        self,
        n_cpus: int = 2,
        kernel: KernelConfig | None = None,
        trace=None,
        rng_streams=None,
    ):
        self.config = kernel if kernel is not None else KernelConfig(context_switch_us=0.0)
        self.sim = Simulator()
        self.ticks = TickSchedule(self.config, n_cpus)
        self.sched = NodeScheduler(
            self.sim, 0, n_cpus, self.config, self.ticks, trace=trace,
            rng_streams=rng_streams,
        )
        self.log: list[tuple[float, str]] = []

    def mark(self, label: str) -> None:
        self.log.append((self.sim.now, label))

    def worker(self, label: str, bursts, record=True):
        """Body computing each burst, logging completion times."""

        def body():
            for i, b in enumerate(bursts):
                yield Compute(b)
                if record:
                    self.mark(f"{label}.{i}")

        return body()

    def spawn(self, body, name="t", priority=60, cpu=0, **kw):
        return self.sched.spawn(body, name=name, priority=priority, affinity_cpu=cpu, **kw)

    def run(self, until: float):
        self.sim.run_until(until, max_events=200_000)

    def times(self, prefix: str) -> list[float]:
        return [t for t, label in self.log if label.startswith(prefix)]


@pytest.fixture
def harness():
    return SchedulerHarness()


def make_harness(**kw) -> SchedulerHarness:
    return SchedulerHarness(**kw)


@pytest.fixture
def fast_config(monkeypatch):
    """Supervisor timing scaled down to test time: tight heartbeats so
    hang detection takes a second, and a factory for configs with
    near-zero backoff so retries are cheap."""
    monkeypatch.setattr(supervisor, "_HEARTBEAT_INTERVAL_S", 0.05)
    monkeypatch.setattr(supervisor, "_HEARTBEAT_TIMEOUT_S", 1.0)
    return lambda **overrides: SupervisorConfig(**{"backoff_base_s": 0.01, **overrides})
