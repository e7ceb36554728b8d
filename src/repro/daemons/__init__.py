"""System interference: daemons, cron jobs, interrupt handlers, I/O service.

The paper's central antagonist is the ecology of routine system activity on
a full-featured OS: file-system flushers (``syncd``), the GPFS daemon
(``mmfsd``), membership/heartbeat services (``hatsd``, ``hats_nim``),
switch IP management (``mld``), batch-system and monitoring daemons
(``LoadL_startd``, ``hostmibd``, ``inetd``), a 15-minute administrative
cron health check whose Perl scripts consumed >600 ms of one CPU, and
device interrupt handlers (``caddpin``, ``phxentdd``).  Together they eat
0.2 %–1.1 % of each CPU on a dedicated 16-way SP node — harmless serially,
disastrous for synchronising collectives at scale.

* :mod:`repro.daemons.engine` turns :class:`~repro.config.DaemonSpec`\\ s
  into scheduled threads on a cluster;
* :mod:`repro.daemons.catalog` provides the calibrated AIX ecology;
* :mod:`repro.daemons.io` models the I/O service dependency that made
  naive co-scheduling *hurt* ALE3D (paper §5.3).
"""
