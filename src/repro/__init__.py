"""repro — parallel-aware OS co-scheduling, reproduced in simulation.

A reproduction of *"Improving the Scalability of Parallel Jobs by adding
Parallel Awareness to the Operating System"* (Jones et al., SC 2003): a
discrete-event simulator of AIX-class SMP cluster scheduling, the daemon
interference ecology, an MPI runtime whose collectives block on real
scheduling, the paper's priority-cycling co-scheduler, and a vectorised
large-scale model that regenerates the paper's figures.

Quick tour (see ``examples/quickstart.py``)::

    from repro import (ClusterConfig, KernelConfig, CoschedConfig, System,
                       standard_noise, run_aggregate_trace)

    config = ClusterConfig(kernel=KernelConfig.prototype(),
                           cosched=CoschedConfig(enabled=True),
                           noise=standard_noise())
    system = System(config)
    result = run_aggregate_trace(system, n_ranks=32, tasks_per_node=16)

Layers (bottom-up): :mod:`repro.sim` (event engine), :mod:`repro.kernel`
(dispatcher/ticks/preemption), :mod:`repro.machine` (nodes/cluster),
:mod:`repro.daemons` (noise + I/O service), :mod:`repro.net`,
:mod:`repro.mpi`, :mod:`repro.trace`, :mod:`repro.cosched` (the paper's
contribution), :mod:`repro.apps`, :mod:`repro.analytic`,
:mod:`repro.experiments` (one runner per paper figure/table).
"""

import importlib

__version__ = "1.0.0"

#: Where each quick-tour name is defined.  ``import repro`` loads none of
#: these modules; the first access to a name imports its module (PEP 562),
#: so ``import repro.units`` or the analytic path never pays for the DES.
_EXPORTS = {
    "repro.config": (
        "ClusterConfig",
        "CoschedConfig",
        "DaemonSpec",
        "KernelConfig",
        "MachineConfig",
        "MpiConfig",
        "NetworkConfig",
        "NoiseConfig",
        "PRIO_DAEMON_SYSTEM",
        "PRIO_IDLE",
        "PRIO_NORMAL",
        "PRIO_USER_TIMESHARED",
    ),
    "repro.apps.aggregate_trace": ("AggregateTraceConfig", "run_aggregate_trace"),
    "repro.apps.ale3d": ("Ale3dConfig", "run_ale3d"),
    "repro.apps.bsp": ("BspConfig", "run_bsp"),
    "repro.daemons.catalog": ("scale_noise", "standard_noise"),
    "repro.daemons.engine": ("install_noise",),
    "repro.daemons.io": ("IoService",),
    "repro.machine.cluster": ("Cluster", "Placement"),
    "repro.mpi.world": ("MpiApi", "MpiJob", "MpiWorld"),
    "repro.cosched.admin": ("PoePriorityFile",),
    "repro.cosched.coscheduler": ("JobCoscheduler",),
    "repro.analytic.model": ("AllreduceSeriesModel",),
    "repro.analytic.fits": ("fit_linear", "fit_log"),
    "repro.system": ("System",),
    "repro.trace.recorder": ("TraceRecorder",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "__version__",
    # configuration
    "ClusterConfig",
    "MachineConfig",
    "KernelConfig",
    "NetworkConfig",
    "MpiConfig",
    "CoschedConfig",
    "NoiseConfig",
    "DaemonSpec",
    "PRIO_NORMAL",
    "PRIO_DAEMON_SYSTEM",
    "PRIO_USER_TIMESHARED",
    "PRIO_IDLE",
    # machine + system
    "Cluster",
    "Placement",
    "System",
    "TraceRecorder",
    # noise
    "standard_noise",
    "scale_noise",
    "install_noise",
    "IoService",
    # MPI
    "MpiWorld",
    "MpiApi",
    "MpiJob",
    # co-scheduler
    "JobCoscheduler",
    "PoePriorityFile",
    # applications
    "AggregateTraceConfig",
    "run_aggregate_trace",
    "Ale3dConfig",
    "run_ale3d",
    "BspConfig",
    "run_bsp",
    # analytic model
    "AllreduceSeriesModel",
    "fit_linear",
    "fit_log",
]
