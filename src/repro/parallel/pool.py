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

from ..compiler import kernels
from ..compiler.monitor import UNIT_VALUE, freeze
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

    @property
    def transport(self) -> str:
        """``"pipe"`` when ``backend`` is ``"process"``, else
        ``"inline"``: derived from ``backend``, which new code should
        read; kept for readers of the former field."""
        return "pipe" if self.backend == "process" else "inline"

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
    by the row path (:func:`_run_one`) and the columnar path
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

    The columnar twin of :func:`_run_one`: the task message's
    timestamp/value arrays go straight to the vector engine.  Outputs
    are byte-identical to the row path by the engine's
    ``feed_columns`` contract, and for dense blocks the consumed-event
    count equals the row count, so ``RunReport.events_in`` parity with
    the row payload holds.
    """

    def feed(runner: MonitorRunner) -> RunReport:
        runner.feed_columns(timestamps, columns)
        return runner.finish(end_time=options.end_time)

    return _run_monitor(compiled, options, feed)


#: Column dtype per exact Python value type (unit values are tuples).
_COLUMN_DTYPES = {int: "int64", bool: "bool", float: "float64"}


def _column_dtype(values: Sequence[Any]) -> Optional[str]:
    """The homogeneous column dtype for a stream's values, or None.

    Exact-type matching, not ``isinstance``: a bool is not an int64
    here, because the columns must carry the original Python values
    bit-for-bit (``np.float64(1).item()`` of an int would come back as
    ``1.0`` and change downstream equality).
    """
    kinds = set(map(type, values))
    if len(kinds) != 1:
        return None
    kind = kinds.pop()
    if kind is type(UNIT_VALUE):
        return "unit" if values.count(UNIT_VALUE) == len(values) else None
    return _COLUMN_DTYPES.get(kind)


def _dense_columns(events: List[Tuple[int, str, Any]]) -> Optional[Tuple]:
    """``(timestamps, [(stream, dtype_name, column)])`` or None.

    Only dense traces qualify: well-formed 3-tuples with string stream
    names, non-negative int timestamps sorted non-decreasing, every
    stream firing exactly once at every timestamp, and homogeneous
    int/float/bool/unit values per stream.  ``column`` is None for unit
    streams.  Everything else rides as rows.

    The checks run over the transposed trace (``map`` and numpy), not
    per event in Python: the parent builds every payload, so this pass
    bounds the pool's dispatch rate.
    """
    if not kernels.numpy_available() or len(events) < 2:
        return None  # rows are smaller than the columnar scaffolding
    np = kernels.numpy_module()
    if set(map(type, events)) != {tuple} or set(map(len, events)) != {3}:
        return None
    stamps = [event[0] for event in events]
    names = [event[1] for event in events]
    values = [event[2] for event in events]
    if set(map(type, stamps)) != {int} or set(map(type, names)) != {str}:
        return None
    streams = sorted(set(names))
    width = len(streams)
    if len(events) % width:
        return None
    try:
        ts_arr = np.array(stamps, dtype=np.int64)
    except OverflowError:
        return None
    # Sorted, each timestamp exactly ``width`` times (one row of the
    # grid per timestamp), rows strictly increasing, none negative.
    grid = ts_arr.reshape(-1, width)
    timestamps = grid[:, 0]
    if (
        timestamps[0] < 0
        or not (grid == timestamps[:, None]).all()
        or not (timestamps[1:] > timestamps[:-1]).all()
    ):
        return None
    columns_of: Dict[str, Sequence[Any]] = {}
    if width == 1:
        columns_of[streams[0]] = values
    else:
        # Every stream exactly once per timestamp: each grid row of
        # stream codes is a permutation of 0..width-1.
        code = {name: index for index, name in enumerate(streams)}
        rows = np.fromiter(
            map(code.__getitem__, names), dtype=np.intp, count=len(names)
        ).reshape(-1, width)
        if not (np.sort(rows, axis=1) == np.arange(width)).all():
            return None
        # where[r, j]: the position of stream j's event in row r.
        where = np.argsort(rows, axis=1) + (
            np.arange(rows.shape[0]) * width
        )[:, None]
        for index, name in enumerate(streams):
            columns_of[name] = [values[i] for i in where[:, index].tolist()]
    streams_out = []
    try:
        for name in streams:
            column_values = columns_of[name]
            dtype_name = _column_dtype(column_values)
            if dtype_name is None:
                return None
            column = None
            if dtype_name != "unit":
                column = np.asarray(
                    column_values,
                    dtype=kernels.resolve_dtype(np, dtype_name),
                )
            streams_out.append((name, dtype_name, column))
    except (OverflowError, TypeError, ValueError):
        return None
    return np.ascontiguousarray(timestamps), streams_out


def _task_payload(events: List[Event], columnar: bool) -> Any:
    """What one trace's task message carries to a worker.

    ``columnar`` (the workers run the vector engine without input
    validation) sends a dense trace as ``(timestamps, {stream:
    column})``, the block ``feed_columns`` consumes; every other trace
    rides as its event list, verbatim.
    """
    dense = _dense_columns(events) if columnar else None
    if dense is None:
        return events
    timestamps, streams = dense
    return timestamps, {
        name: column if column is not None else [UNIT_VALUE] * len(timestamps)
        for name, _dtype, column in streams
    }


def _run_payload(
    compiled: Any,
    payload: Any,
    options: _WorkerRunOptions,
    prefix: bool = False,
) -> Tuple[List[OutputEvent], RunReport]:
    """Run one task payload (worker side): columns or rows.

    ``prefix=True`` runs only the first half (the chaos kill
    injector's mid-trace progress).
    """
    if type(payload) is tuple:
        timestamps, columns = payload
        if prefix:
            half = max(1, len(timestamps) // 2)
            timestamps = timestamps[:half]
            columns = {
                name: column[:half] for name, column in columns.items()
            }
        return _run_one_columns(compiled, timestamps, columns, options)
    if prefix:
        payload = payload[: max(1, len(payload) // 2)]
    return _run_one(compiled, payload, options)


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
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.max_in_flight = (
            max(1, int(max_in_flight))
            if max_in_flight is not None
            else 2 * self.jobs
        )
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

    @staticmethod
    def _finalize(
        results: List[TraceResult],
        workers: int,
        backend: str,
        stats: SupervisorStats,
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
        # Columns pay only where a worker feeds them to the vector
        # engine without input validation (which reports errors in
        # original row order).  The engine is resolved once per run, by
        # the local compile (a warm plan-cache hit for text payloads).
        columnar = (
            not run_options.validate_inputs
            and self._local_compiled().engine == "vector"
        )
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
            columnar=columnar,
        )
        ordered = supervisor.run(traces, on_result=on_result)
        return self._finalize(ordered, self.jobs, "process", supervisor.stats)


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
    )
    return pool.run_many(traces, **run_kwargs)


__all__ = [
    "FaultPlan",
    "MonitorPool",
    "PoolError",
    "PoolResult",
    "RetryPolicy",
    "TraceResult",
    "run_many",
]
