"""The parallel-aware co-scheduler — the paper's core contribution (§4).

One daemon per node cycles the dispatch priorities of a parallel job's
tasks between a favored and an unfavored value on a schedule aligned, via
the switch global clock, to the same wall-clock instants on every node —
"with no inter-node communication required between the co-scheduler
daemons".  System daemons are thereby denied CPU for most of each period,
their work piling up and then executing *simultaneously* cluster-wide in
the short unfavored window, which converts scattered interference into
overlapped interference.

* :mod:`repro.cosched.admin` — the ``/etc/poe.priority`` administrative
  file: root-writable records of (class, user, priorities, schedule), with
  the ``MP_PRIORITY`` matching semantics;
* :mod:`repro.cosched.timesync` — the switch-clock register health probe
  (the startup clock slew itself runs in the cluster constructor);
* :mod:`repro.cosched.coscheduler` — the per-node daemon, the pmd
  control-pipe registration protocol, and the attach/detach escape API
  applications use around I/O phases.
"""

from repro.cosched.admin import PoePriorityFile, PriorityRecord
from repro.cosched.coscheduler import JobCoscheduler, NodeCoscheduler

__all__ = [
    "PoePriorityFile",
    "PriorityRecord",
    "NodeCoscheduler",
    "JobCoscheduler",
]
