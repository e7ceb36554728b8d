"""Switch-clock synchronisation of node time-of-day clocks.

Paper §4: "On startup, the daemon compares the low order portion of the
switch clock register with the low order bits of the AIX time of day
value, and changes the AIX time of day so that the low order bits of AIX
and the switch clock match."  After startup, all nodes agree to within the
register read error, and the co-scheduler windows — computed independently
per node from local clock second boundaries — coincide cluster-wide.

The cluster constructor applies this slew at boot when the co-scheduler
is configured with ``sync_clock`` (:class:`repro.machine.cluster.Cluster`);
this module holds the register health probe the running daemon polls.
"""

from __future__ import annotations

from repro.net.switch import SwitchClock

__all__ = ["TimesyncMonitor"]


class TimesyncMonitor:
    """Health probe over the switch clock register.

    The co-scheduler daemon polls :meth:`ok` at cycle boundaries (the
    paper's daemon re-reads the register anyway); once the register has
    failed the probe reports loss and the daemon degrades to free-running
    windows.  Kept as an object so a restarted daemon inherits the same
    probe.
    """

    def __init__(self, switch: SwitchClock) -> None:
        self.switch = switch
        #: Number of health checks performed (tests/stats).
        self.checks = 0

    def ok(self) -> bool:
        """One health check: True while the register still answers."""
        self.checks += 1
        return not self.switch.failed

