"""AIX-like SMP kernel scheduling model.

This package models the scheduling semantics the paper manipulates:

* priority dispatch with per-CPU run queues and an optional node-global
  queue for daemons (:mod:`repro.kernel.runqueue`, §3.1.2),
* timer ticks — period, per-CPU phase (staggered vs aligned) and the
  "big tick" folding, charged analytically to running threads
  (:mod:`repro.kernel.ticks`, §3.1.1/§3.2.1),
* delayed cross-CPU preemption noticing, the "real time scheduling" IPI
  option, and the paper's reverse-preemption / multi-IPI fixes
  (:mod:`repro.kernel.scheduler`, §3),
* pluggable dispatch policies behind the SchedPolicy interface — the
  extracted ``aix`` default plus a fair/quantum/lottery zoo
  (:mod:`repro.kernel.policy`).

Threads are Python generators yielding syscall request objects
(:mod:`repro.kernel.thread`); compute only progresses while a thread
actually holds a CPU, which is what makes the paper's cascade effect
emergent rather than assumed.
"""

from repro.kernel.thread import (
    Block,
    Compute,
    SetPriority,
    Sleep,
    SleepUntil,
    SpinWait,
    Thread,
    ThreadState,
    YieldCpu,
)
from repro.kernel.ticks import TickSchedule
from repro.kernel.policy import SchedPolicy, make_policy, policy_names, register_policy
from repro.kernel.runqueue import RunQueue
from repro.kernel.scheduler import NodeScheduler

__all__ = [
    "SchedPolicy",
    "make_policy",
    "policy_names",
    "register_policy",
    "Thread",
    "ThreadState",
    "Compute",
    "Sleep",
    "SleepUntil",
    "Block",
    "SpinWait",
    "YieldCpu",
    "SetPriority",
    "TickSchedule",
    "RunQueue",
    "NodeScheduler",
]
