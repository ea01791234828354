"""Parallel execution subsystem: one spec over many traces.

:class:`MonitorPool` (:mod:`repro.parallel.pool`) runs one compiled
specification over many independent traces/sessions across a
*supervised* pool of forked worker processes
(:mod:`repro.parallel.supervisor`).  Workers warm-start from the
on-disk plan cache (only the spec text and fingerprint-keyed cache
files cross the process boundary) and are overseen with per-trace
leases: heartbeats, deadlines, death/hang detection, automatic
restarts, capped-exponential-backoff re-dispatch (:class:`RetryPolicy`)
and poison-trace quarantine (:class:`FaultPlan` injects the whole
failure matrix deterministically for tests).  Trace payloads reach the
workers pickled over their pipes: dense traces bound for the vector
engine as columns, everything else as rows.  In-flight traces are
bounded (backpressure), results are collected exactly once in submission
order, and exhausted traces degrade per the compiled spec's
:class:`~repro.errors.ErrorPolicy`.  ``jobs <= 1`` (or a platform
without ``fork``) runs the same retry/quarantine loop in-process.

Reachable from :func:`repro.api.run_many` and the CLI's ``run-many``
subcommand (``--jobs N``).  See ``docs/parallel.md``.
"""

from .pool import MonitorPool, PoolError, PoolResult, TraceResult
from .supervisor import (
    AttemptRecord,
    FaultPlan,
    PoisonTraceError,
    RetryPolicy,
    Supervisor,
    SupervisorStats,
)

__all__ = [
    "AttemptRecord",
    "FaultPlan",
    "MonitorPool",
    "PoisonTraceError",
    "PoolError",
    "PoolResult",
    "RetryPolicy",
    "Supervisor",
    "SupervisorStats",
    "TraceResult",
]
