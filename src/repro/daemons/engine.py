"""Turn :class:`~repro.config.DaemonSpec` descriptions into live threads.

Each per-node daemon becomes one thread; ``per_cpu`` specs (interrupt
handlers) become one thread per CPU.  A daemon's body is a simple
activation loop::

    sleep-until next activation      # tick-quantised → "big tick" batching
    compute(service time)            # contends for a CPU like any work
    schedule next activation

Activations that slip past their period (because the co-scheduler denied
the daemon CPU time) are executed back-to-back when the daemon finally
runs — the "pile up work for seconds, then release it simultaneously"
behaviour the paper's priority-swapping scheme deliberately creates
(§3.1.3).

Under the prototype kernel's global-queue policy (§3.1.2), daemon service
times are inflated by the configured locality penalty — they run anywhere,
slightly slower, maximally overlapped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import DaemonSpec, NoiseConfig
from repro.kernel.thread import Compute, SleepUntil, Thread
from repro.machine.cluster import Cluster

__all__ = ["DaemonHandle", "install_noise"]


@dataclass
class DaemonHandle:
    """One installed daemon instance (for introspection and tests)."""

    spec: DaemonSpec
    node: int
    cpu: int
    thread: Thread
    activations: list  # mutable: [count]


def _daemon_body(
    spec: DaemonSpec,
    first_activation_global: float,
    penalty: float,
    rng: np.random.Generator,
    counter: list,
    horizon_us: float | None,
    batch: int = 1,
):
    """Activation loop generator for one daemon instance.

    ``batch`` is the mean-field fast path (:mod:`repro.sim.meanfield`):
    *batch* consecutive activations fold into one wakeup computing the
    **sum** of their sampled service times, anchored at the batch's
    *middle* activation instant so the delivered CPU demand has no
    first-moment timing bias (pure front-loading measurably compounds:
    early clumps inflate the very window being measured).  The draws
    (service → optional pagefault → jitter) keep the exact body's
    per-activation stream order, so activation instants, service samples,
    and the total counter are unchanged for any ``batch``; only the
    interleaving with rank work coarsens — the accuracy cost E14
    measures.  ``batch=1`` takes the historical loop verbatim and is
    bit-identical to the exact engine.
    """
    next_t = first_activation_global
    if batch <= 1:
        # The spec's fields are read once per instance, not per
        # activation.  Requests are frozen, so while the service time
        # repeats (a constant distribution, as every interrupt handler
        # has) one Compute request serves every activation.
        dist = spec.service
        pagefault_prob = spec.pagefault_prob
        pagefault_cost = spec.pagefault_cost_us
        jitter = spec.jitter
        period = spec.period_us
        req = None
        while horizon_us is None or next_t < horizon_us:
            yield SleepUntil(next_t)
            service = dist.sample(rng)
            if pagefault_prob > 0.0 and rng.random() < pagefault_prob:
                service += pagefault_cost
            if penalty > 0.0:
                service *= 1.0 + penalty
            counter[0] += 1
            if req is None or req.duration_us != service:
                req = Compute(service)
            yield req
            if jitter > 0.0:
                # numpy's uniform(-1, 1) is -1 + 2 * random(): the same
                # value from the same stream position, at a fifth the cost.
                next_t += period * (1.0 + jitter * (-1.0 + 2.0 * rng.random()))
            else:
                next_t += period
        return
    while horizon_us is None or next_t < horizon_us:
        times = []
        total = 0.0
        t = next_t
        while len(times) < batch and (horizon_us is None or t < horizon_us):
            times.append(t)
            service = spec.service.sample(rng)
            if spec.pagefault_prob > 0.0 and rng.random() < spec.pagefault_prob:
                service += spec.pagefault_cost_us
            if penalty > 0.0:
                service *= 1.0 + penalty
            total += service
            if spec.jitter > 0.0:
                step = spec.period_us * (1.0 + spec.jitter * (-1.0 + 2.0 * rng.random()))
            else:
                step = spec.period_us
            t += step
        yield SleepUntil(times[len(times) // 2])
        counter[0] += len(times)
        yield Compute(total)
        next_t = t


def install_noise(
    cluster: Cluster,
    noise: NoiseConfig | None = None,
    horizon_us: float | None = None,
    meanfield=None,
) -> list[DaemonHandle]:
    """Spawn every daemon in *noise* (default: the cluster config's) on
    every node of *cluster* — every node the cluster *owns*, under
    parallel DES.

    ``horizon_us`` optionally stops scheduling activations past a time
    bound, letting ``Simulator.run()`` drain naturally in tests.

    ``meanfield`` (a :class:`repro.sim.meanfield.MeanFieldConfig`) batches
    activations on non-exempt nodes; ``None`` and ``batch=1`` are exact.
    Skipping a node consumes nothing from any shared stream: the aligned
    phase is one draw per *spec*, and per-instance draws come from the
    instance's own ``daemon.<name>.n<node>.c<cpu>`` stream, which
    :class:`~repro.rng.StreamFactory` derives from the name alone.

    Phase resolution (first activation):

    * ``spec.phase_us`` — exactly as given, in **global** time (an
      experiment device for pinning a hit inside a measurement window);
    * ``phase == "aligned"`` — one draw per daemon, same **local** time
      on every node (synchronized crontabs; inter-node overlap then
      depends on how well node clocks agree);
    * ``phase == "random"`` — independent draw per node (and per CPU for
      per-CPU specs), local time.
    """
    if noise is None:
        noise = cluster.config.noise
    penalty = (
        cluster.config.kernel.global_queue_penalty
        if cluster.config.kernel.daemons_global_queue
        else 0.0
    )
    handles: list[DaemonHandle] = []
    for d_index, spec in enumerate(noise.daemons):
        aligned_rng = cluster.rngf.stream(f"daemon.{spec.name}.phase")
        aligned_phase = float(aligned_rng.uniform(0.0, spec.period_us))
        for node in cluster.nodes:
            if not cluster.owns_node(node.id):
                continue
            batch = 1 if meanfield is None else meanfield.batch_for(node.id, spec)
            cpu_list = range(node.n_cpus) if spec.per_cpu else (d_index % node.n_cpus,)
            for cpu in cpu_list:
                rng = cluster.rngf.stream(f"daemon.{spec.name}.n{node.id}.c{cpu}")
                if spec.phase_us is not None:
                    first_global = max(0.0, spec.phase_us)
                else:
                    if spec.phase == "aligned":
                        local_phase = aligned_phase
                    else:
                        local_phase = float(rng.uniform(0.0, spec.period_us))
                    # The daemon schedules itself in node-local time.
                    first_global = max(0.0, node.global_time(local_phase))
                counter = [0]
                body = _daemon_body(
                    spec,
                    first_global,
                    0.0 if spec.per_cpu else penalty,
                    rng,
                    counter,
                    horizon_us,
                    batch,
                )
                thread = node.scheduler.spawn(
                    body,
                    name=spec.name if not spec.per_cpu else f"{spec.name}.c{cpu}",
                    priority=spec.priority,
                    affinity_cpu=cpu,
                    category="interrupt" if spec.hardware else "daemon",
                    use_global_queue=not spec.per_cpu,
                    allow_steal=not spec.per_cpu,
                    tick_quantized=not spec.hardware,
                    hardware=spec.hardware,
                )
                handles.append(DaemonHandle(spec, node.id, cpu, thread, counter))
    return handles
