"""Multi-trace data parallelism: one spec, many traces, many workers.

:class:`MonitorPool` runs one compiled specification over many
independent traces (sessions, log shards, tenants) across forked
worker processes overseen by the
:class:`~repro.parallel.supervisor.Supervisor`: per-trace leases with
heartbeats and deadlines, worker death/hang detection, automatic
restarts, capped-exponential-backoff re-dispatch
(:class:`~repro.parallel.supervisor.RetryPolicy`) and poison-trace
quarantine.

Semantics:

* **Warm-start compilation** — when the pool is built from
  specification text plus :class:`~repro.api.CompileOptions` carrying
  a plan cache directory, each worker process compiles through
  ``repro.api.compile`` and hits the text-keyed on-disk cache: only
  the spec text and the fingerprint-keyed cache files cross the
  process boundary, no pickled monitors.  Pools built from an
  already-compiled :class:`~repro.compiler.pipeline.CompiledSpec`
  rely on ``fork`` inheriting the parent's memory.
* **Backpressure** — at most ``max_in_flight`` traces are outstanding
  at any moment; submission of trace *k + max_in_flight* waits for
  trace *k*'s slot, so a million-session driver never materializes a
  million task payloads at once.
* **Ordered, exactly-once collection** — results come back in
  submission order regardless of worker scheduling, retries or
  restarts, and are byte-identical to a fault-free sequential run.
* **Degradation** — trace failure is governed by the compiled spec's
  :class:`~repro.errors.ErrorPolicy`: after a trace exhausts its
  retry budget, ``FAIL_FAST`` (and the default ``None``) aborts the
  whole pool with :class:`~repro.errors.PoolError` naming the trace
  index, worker id and attempt history; ``PROPAGATE``/
  ``SUBSTITUTE_DEFAULT`` quarantine the trace on its
  :class:`TraceResult` and keep the pool draining — the pool-level
  analogue of the hardened runtime's per-event policies.

``jobs <= 1``, or a platform without ``fork``, falls back to an
in-process sequential loop — no pool spin-up, identical results, same
retry/quarantine semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..compiler.monitor import freeze
from ..compiler.runtime import MonitorRunner, RunReport
from ..errors import ErrorPolicy, PoolError
from ..obs.metrics import (
    DEFAULT_REGISTRY,
    POOL_QUARANTINED,
    POOL_RETRIES,
    POOL_TASKS,
)
from .supervisor import (
    AttemptRecord,
    FaultPlan,
    RetryPolicy,
    Supervisor,
    SupervisorStats,
)

Event = Tuple[int, str, Any]
OutputEvent = Tuple[str, int, Any]

#: How trace payloads reach process workers: ``"shm"`` — packed once
#: into parent-owned shared-memory segments, descriptor-only dispatch
#: (see :mod:`repro.parallel.shm`); ``"pipe"`` — pickled event lists
#: per attempt (the pre-arena behavior); ``"auto"`` — shm whenever the
#: platform supports it.  Sequential execution has no process boundary
#: and always runs inline.
TRANSPORTS = ("auto", "shm", "pipe")


@dataclass
class TraceResult:
    """The outcome of one trace's run (in submission order).

    ``attempts`` is the supervision history — one
    :class:`~repro.parallel.supervisor.AttemptRecord` per try, so a
    trace that survived a worker crash shows it.  ``worker`` names the
    worker that produced the final outcome.
    """

    index: int
    outputs: Optional[List[OutputEvent]]
    report: Optional[RunReport]
    error: Optional[str] = None
    attempts: List[AttemptRecord] = field(default_factory=list)
    worker: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def quarantined(self) -> bool:
        """True iff this trace exhausted its retry budget."""
        return self.error is not None and self.error.startswith("quarantined")


@dataclass
class PoolResult:
    """Everything a :meth:`MonitorPool.run_many` call produced."""

    results: List[TraceResult]
    #: All per-trace reports merged (counters summed), including the
    #: pool-level ``retries`` / ``worker_restarts`` /
    #: ``traces_quarantined`` counters.
    report: RunReport
    #: Worker processes actually used (1 — sequential fallback).
    workers: int
    failures: int = 0
    #: Which path actually ran ("process" or "sequential").
    backend: str = "sequential"
    #: Submission indexes of quarantined (poison) traces.
    quarantined: List[int] = field(default_factory=list)
    #: How trace payloads reached the workers: ``"shm"``/``"pipe"`` on
    #: the process pool, ``"inline"`` when no process boundary was
    #: crossed (sequential fallback).
    transport: str = "inline"

    def outputs(self) -> List[List[OutputEvent]]:
        """Per-trace output lists, in submission order."""
        return [r.outputs or [] for r in self.results]


@dataclass(frozen=True)
class _WorkerRunOptions:
    """The picklable subset of run options a worker applies per trace."""

    end_time: Optional[int] = None
    batch_size: Optional[int] = None
    validate_inputs: bool = False
    collect_outputs: bool = True
    #: Instrument each trace run with per-stream copy/in-place counters;
    #: the per-trace snapshot rides home on ``RunReport.metrics`` (a
    #: plain dict, so it pickles across the process boundary) and the
    #: pool's merged report sums them.
    metrics: bool = False


#: Per-process instrumented twins, keyed by id() of the uninstrumented
#: compiled spec — built lazily on the first metrics trace in each
#: process and reused for the rest of that process's traces.
_INSTRUMENTED_TWINS: Dict[int, Any] = {}


def _instrumented(compiled: Any) -> Any:
    twin = _INSTRUMENTED_TWINS.get(id(compiled))
    if twin is None:
        from ..compiler.pipeline import instrumented_twin
        from ..obs.metrics import MetricsRegistry

        twin = instrumented_twin(compiled, MetricsRegistry())
        _INSTRUMENTED_TWINS[id(compiled)] = twin
    return twin


def _run_monitor(
    compiled: Any,
    options: _WorkerRunOptions,
    feed: Callable[[MonitorRunner], RunReport],
) -> Tuple[List[OutputEvent], RunReport]:
    """Run one trace through ``feed(runner)``: collect outputs, meter.

    The per-trace output collection and metrics instrumentation shared
    by the row path (:func:`_run_one`) and the columnar shm path
    (:func:`_run_one_columns`).
    """
    outputs: Optional[List[OutputEvent]] = None
    on_output = None
    if options.collect_outputs:
        collected: List[OutputEvent] = []

        def on_output(name: str, ts: int, value: Any) -> None:
            collected.append((name, ts, freeze(value)))

        outputs = collected

    registry = None
    before = None
    if options.metrics:
        compiled = _instrumented(compiled)
        registry = compiled.metrics
        before = registry.snapshot()
    runner = MonitorRunner(
        compiled, on_output, validate_inputs=options.validate_inputs
    )
    report = feed(runner)
    if registry is not None:
        from ..obs.metrics import diff_snapshots

        report.metrics = diff_snapshots(before, registry.snapshot())
    return outputs, report


def _run_one(
    compiled: Any, events: Sequence[Event], options: _WorkerRunOptions
) -> Tuple[List[OutputEvent], RunReport]:
    return _run_monitor(
        compiled,
        options,
        lambda runner: runner.run(
            events,
            end_time=options.end_time,
            batch_size=options.batch_size,
        ),
    )


def _run_one_columns(
    compiled: Any,
    timestamps: Any,
    columns: Dict[str, Any],
    options: _WorkerRunOptions,
) -> Tuple[List[OutputEvent], RunReport]:
    """Run one dense columnar block through ``feed_columns``.

    The shm-transport twin of :func:`_run_one`: the input is the
    arena's shared timestamp/value arrays handed zero-copy to the
    vector engine, which consumes them as views.  Outputs are
    byte-identical to the row path by the engine's ``feed_columns``
    contract, and for dense blocks the consumed-event count equals the
    row count, so ``RunReport.events_in`` parity with the pipe
    transport holds.
    """

    def feed(runner: MonitorRunner) -> RunReport:
        runner.feed_columns(timestamps, columns)
        return runner.finish(end_time=options.end_time)

    return _run_monitor(compiled, options, feed)


def _run_attached(
    compiled: Any,
    attached: Any,
    options: _WorkerRunOptions,
    prefix: bool = False,
) -> Tuple[List[OutputEvent], RunReport]:
    """Run one shm-attached trace (worker side of the shm transport).

    Columnar payloads go through the ``feed_columns`` zero-copy path;
    blob payloads unpickle the exact original rows and run through
    :func:`_run_one` unchanged.  ``prefix=True`` runs only the first
    half (the chaos kill injector's mid-trace progress).
    """
    block = attached.dense_block()
    if block is not None:
        timestamps, columns = block
        if prefix:
            half = max(1, len(timestamps) // 2)
            timestamps = timestamps[:half]
            columns = {
                name: column[:half] for name, column in columns.items()
            }
        return _run_one_columns(compiled, timestamps, columns, options)
    events = attached.rows()
    if prefix:
        events = events[: max(1, len(events) // 2)]
    return _run_one(compiled, events, options)


def _attempt_trace(
    compiled: Any,
    index: int,
    events: Sequence[Event],
    run_options: _WorkerRunOptions,
    retry: RetryPolicy,
    worker: str,
) -> TraceResult:
    """Run one trace with the in-process retry loop (sequential path).

    Never raises: exhaustion produces a quarantined
    :class:`TraceResult`; the caller decides (per error policy) whether
    that aborts the pool.
    """
    attempts: List[AttemptRecord] = []
    for attempt in range(1, retry.max_attempts + 1):
        DEFAULT_REGISTRY.inc(POOL_TASKS)
        try:
            outputs, report = _run_one(compiled, events, run_options)
        except Exception as exc:  # noqa: BLE001 - failure is data here
            attempts.append(
                AttemptRecord(
                    attempt, worker, "error", f"{type(exc).__name__}: {exc}"
                )
            )
            if attempt < retry.max_attempts:
                time.sleep(retry.delay(index, attempt))
            continue
        attempts.append(AttemptRecord(attempt, worker, "ok"))
        return TraceResult(
            index, outputs, report, None, attempts=attempts, worker=worker
        )
    error = (
        f"quarantined after {len(attempts)} attempts; last: {attempts[-1]}"
    )
    return TraceResult(
        index, None, None, error, attempts=attempts, worker=worker
    )


class MonitorPool:
    """A reusable worker pool for one compiled specification.

    Parameters
    ----------
    spec:
        Specification text (preferred: spawn-safe, plan-cache
        warm-start) or an already-compiled
        :class:`~repro.compiler.pipeline.CompiledSpec` /
        ``repro.api.Monitor`` (requires the ``fork`` start method).
    compile_options:
        The :class:`~repro.api.CompileOptions` workers compile with
        (only meaningful for text *spec*); give it a ``plan_cache``
        directory so workers skip the analysis.
    jobs:
        Worker count.  ``<= 1`` runs sequentially in-process.
    max_in_flight:
        Bound on outstanding traces (default ``2 * jobs``).
    retry:
        The :class:`~repro.parallel.supervisor.RetryPolicy` applied to
        every trace, pooled or sequential (default: 3 attempts, 50 ms
        base backoff).
    trace_timeout:
        Per-trace wall-clock deadline in seconds (worker processes
        only); a lease outliving it is killed and re-dispatched.
    heartbeat_interval / heartbeat_timeout:
        Worker heartbeat cadence and the silence threshold after which
        a worker is declared hung (worker processes only;
        ``heartbeat_timeout`` defaults to ``max(1.0, 10 * interval)``).
    fault_plan:
        A :class:`~repro.parallel.supervisor.FaultPlan` for
        deterministic chaos injection (worker processes only).
    transport:
        How trace payloads reach process workers: ``"auto"`` (the
        default — shared memory whenever the platform supports it),
        ``"shm"`` or ``"pipe"``.  See :data:`TRANSPORTS` and
        :mod:`repro.parallel.shm`.
    """

    def __init__(
        self,
        spec: Any,
        *,
        compile_options: Any = None,
        jobs: int = 2,
        max_in_flight: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        trace_timeout: Optional[float] = None,
        heartbeat_interval: float = 0.1,
        heartbeat_timeout: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        transport: str = "auto",
    ) -> None:
        if transport not in TRANSPORTS:
            raise ValueError(
                f"transport must be one of {TRANSPORTS}, got {transport!r}"
            )
        self.jobs = max(1, int(jobs))
        self.max_in_flight = (
            max(1, int(max_in_flight))
            if max_in_flight is not None
            else 2 * self.jobs
        )
        self.transport = transport
        self.retry = retry if retry is not None else RetryPolicy()
        self.trace_timeout = trace_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.fault_plan = fault_plan
        self._options = compile_options
        self._payload, self._compiled = self._normalize(spec, compile_options)

    @staticmethod
    def _normalize(spec: Any, compile_options: Any) -> Tuple[Any, Any]:
        """(worker payload, locally-compiled spec for the fallback)."""
        from .. import api

        if isinstance(spec, str):
            return spec, None  # compiled lazily, per process
        if isinstance(spec, api.Monitor):
            text = getattr(spec, "source_text", None)
            return (text if text is not None else spec.compiled), spec.compiled
        return spec, spec  # a CompiledSpec

    def _local_compiled(self) -> Any:
        if self._compiled is None:
            from .. import api

            self._compiled = api.compile(self._payload, self._options).compiled
        return self._compiled

    @property
    def error_policy(self) -> Optional[ErrorPolicy]:
        compiled = self._compiled
        if compiled is None and not isinstance(self._payload, str):
            compiled = self._payload
        if compiled is None:
            # Text payload not yet compiled locally: derive the policy
            # from the compile options without forcing a compilation.
            return getattr(self._options, "error_policy", None)
        return getattr(compiled, "error_policy", None)

    # -- execution -------------------------------------------------------

    def run_many(
        self,
        traces: Iterable[Sequence[Event]],
        *,
        end_time: Optional[int] = None,
        batch_size: Optional[int] = None,
        validate_inputs: bool = False,
        collect_outputs: bool = True,
        metrics: bool = False,
        on_result: Optional[Callable[[TraceResult], None]] = None,
    ) -> PoolResult:
        """Run every trace; return ordered results and a merged report.

        ``on_result`` (if given) observes each :class:`TraceResult` in
        *submission order* as soon as it becomes deliverable — the
        streaming hook for drivers that aggregate instead of retaining
        all outputs.
        """
        run_options = _WorkerRunOptions(
            end_time=end_time,
            batch_size=batch_size,
            validate_inputs=validate_inputs,
            collect_outputs=collect_outputs,
            metrics=metrics,
        )
        if self.jobs <= 1 or not self._fork_available():
            return self._run_sequential(traces, run_options, on_result)
        return self._run_supervised(traces, run_options, on_result)

    @staticmethod
    def _fork_available() -> bool:
        import multiprocessing

        return "fork" in multiprocessing.get_all_start_methods()

    def _resolve_transport(self) -> str:
        """The transport a supervised run will actually use."""
        if self.transport == "pipe":
            return "pipe"
        from .shm import shm_available

        # "auto" and "shm" both degrade cleanly when the platform has
        # no shared_memory support; "shm" is a preference, not a
        # hard requirement, so numpy-less and exotic hosts still run.
        return "shm" if shm_available() else "pipe"

    @staticmethod
    def _finalize(
        results: List[TraceResult],
        workers: int,
        backend: str,
        stats: SupervisorStats,
        transport: str = "inline",
    ) -> PoolResult:
        merged = RunReport()
        failures = 0
        for result in results:
            if result.report is not None:
                merged.merge(result.report)
            if result.error is not None:
                failures += 1
        merged.retries += stats.retries
        merged.worker_restarts += stats.worker_restarts
        merged.traces_quarantined += len(stats.quarantined)
        return PoolResult(
            results=results,
            report=merged,
            workers=workers,
            failures=failures,
            backend=backend,
            quarantined=sorted(stats.quarantined),
            transport=transport,
        )

    def _fail_fast(self) -> bool:
        policy = self.error_policy
        return policy is None or policy is ErrorPolicy.FAIL_FAST

    def _keep_or_abort(
        self,
        result: TraceResult,
        fail_fast: bool,
        stats: SupervisorStats,
    ) -> None:
        """Account one finished in-process trace; abort on exhaustion."""
        stats.retries += max(0, len(result.attempts) - 1)
        if len(result.attempts) > 1:
            DEFAULT_REGISTRY.inc(POOL_RETRIES, len(result.attempts) - 1)
        if result.error is None:
            return
        if fail_fast:
            raise PoolError(
                f"trace {result.index} failed after"
                f" {len(result.attempts)} attempts",
                trace_index=result.index,
                worker_id=result.worker,
                attempts=result.attempts,
            )
        stats.quarantined.append(result.index)
        DEFAULT_REGISTRY.inc(POOL_QUARANTINED)

    def _run_sequential(
        self,
        traces: Iterable[Sequence[Event]],
        run_options: _WorkerRunOptions,
        on_result: Optional[Callable[[TraceResult], None]],
    ) -> PoolResult:
        """In-process fallback: same results, no pool spin-up."""
        compiled = self._local_compiled()
        fail_fast = self._fail_fast()
        stats = SupervisorStats()
        results: List[TraceResult] = []
        for index, events in enumerate(traces):
            result = _attempt_trace(
                compiled, index, events, run_options, self.retry, "seq"
            )
            self._keep_or_abort(result, fail_fast, stats)
            if on_result is not None:
                on_result(result)
            results.append(result)
        return self._finalize(results, 1, "sequential", stats)

    def _run_supervised(
        self,
        traces: Iterable[Sequence[Event]],
        run_options: _WorkerRunOptions,
        on_result: Optional[Callable[[TraceResult], None]],
    ) -> PoolResult:
        """Forked workers under the Supervisor."""
        transport = self._resolve_transport()
        # The arena's encoding follows the engine the workers run:
        # resolved once per run, by the local compile (a warm
        # plan-cache hit for text payloads).
        engine = self._local_compiled().engine if transport == "shm" else None
        supervisor = Supervisor(
            self._payload,
            self._options,
            run_options,
            jobs=self.jobs,
            retry=self.retry,
            trace_timeout=self.trace_timeout,
            heartbeat_interval=self.heartbeat_interval,
            heartbeat_timeout=self.heartbeat_timeout,
            fault_plan=self.fault_plan,
            fail_fast=self._fail_fast(),
            max_in_flight=self.max_in_flight,
            transport=transport,
            engine=engine,
        )
        ordered = supervisor.run(traces, on_result=on_result)
        return self._finalize(
            ordered, self.jobs, "process", supervisor.stats, transport
        )


def run_many(
    spec: Any,
    traces: Iterable[Sequence[Event]],
    *,
    compile_options: Any = None,
    jobs: int = 2,
    max_in_flight: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    trace_timeout: Optional[float] = None,
    heartbeat_interval: float = 0.1,
    heartbeat_timeout: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    transport: str = "auto",
    **run_kwargs: Any,
) -> PoolResult:
    """One-shot convenience around :class:`MonitorPool`."""
    pool = MonitorPool(
        spec,
        compile_options=compile_options,
        jobs=jobs,
        max_in_flight=max_in_flight,
        retry=retry,
        trace_timeout=trace_timeout,
        heartbeat_interval=heartbeat_interval,
        heartbeat_timeout=heartbeat_timeout,
        fault_plan=fault_plan,
        transport=transport,
    )
    return pool.run_many(traces, **run_kwargs)


__all__ = [
    "TRANSPORTS",
    "FaultPlan",
    "MonitorPool",
    "PoolError",
    "PoolResult",
    "RetryPolicy",
    "TraceResult",
    "run_many",
]
