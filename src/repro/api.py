"""The single-entry public API: ``compile`` and ``run``.

Two calls and two frozen option dataclasses cover the whole option
space:

>>> from repro import api
>>> monitor = api.compile(source, api.CompileOptions(plan_cache="plans"))
>>> report = api.run(monitor, events, api.RunOptions(batch_size=4096))

* :class:`CompileOptions` — everything that shapes the compiled
  monitor (analysis mode, backend override, execution engine, error
  policy, alias guard, plan cache).  All result-shaping options are
  part of the compiled spec's fingerprint, which keys both the on-disk
  plan cache and the durable checkpoints.
* :class:`RunOptions` — everything that shapes one run (end time,
  batch size, input validation, checkpointing/resume, tolerant
  ingestion policies).
* :class:`Monitor` — the compiled artifact ``compile`` returns: a thin
  handle around the engine-room :class:`~repro.compiler.pipeline.CompiledSpec`
  exposing fingerprint, generated source, diagnostics and fresh
  monitor instances.
* :func:`run` — drives a :class:`Monitor` over events (an iterable of
  ``(ts, stream, value)`` tuples or a mapping of per-stream traces)
  through a :class:`~repro.compiler.runtime.MonitorRunner` and returns
  the :class:`~repro.compiler.runtime.RunReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from .compiler.pipeline import CompiledSpec, build_compiled_spec
from .compiler.plancache import PlanCache
from .compiler.runtime import MonitorRunner, RunReport
from .errors import ErrorPolicy, coerce_policy
from .lang.spec import FlatSpec, Specification
from .structures import Backend

__all__ = [
    "CompileOptions",
    "RunOptions",
    "Monitor",
    "compile",
    "run",
    "run_many",
]

_ENGINES = ("auto", "codegen", "vector")


@dataclass(frozen=True)
class CompileOptions:
    """Everything that shapes a compiled monitor.

    String conveniences are coerced on construction: ``backend`` takes
    a :class:`~repro.structures.Backend` or its lowercase name,
    ``error_policy`` an :class:`~repro.errors.ErrorPolicy` or its
    string value.
    """

    #: Run the paper's mutability analysis, after write-then-read
    #: fusion (``OPT008``) unless ``backend`` is set (``False`` — the
    #: exclusively-persistent baseline, spec as written).  A bool; the
    #: rewrite optimizer is ``rewrite``.
    optimize: bool = True
    #: Force one backend everywhere (e.g. ``"copying"`` for the
    #: naive-copy ablation); overrides ``optimize``.
    backend: Union[Backend, str, None] = None
    #: Execution engine: ``"auto"`` (the default — resolve per spec:
    #: the columnar :mod:`vector <repro.compiler.vector>` engine when
    #: every stream is vector-eligible, numpy is importable and no
    #: error policy is set, else ``"codegen"``), or one of the explicit
    #: engines ``"codegen"``, ``"vector"``.
    #: ``"vector"`` resolves like ``"auto"`` but raises without numpy.
    #: The resolved engine is observable as
    #: :attr:`Monitor.engine_resolved`; each ineligible stream surfaces
    #: as a ``VEC001`` diagnostic.
    engine: str = "auto"
    #: Hardened error-propagating evaluation (``None`` — seed-exact).
    error_policy: Union[ErrorPolicy, str, None] = None
    #: Swap mutable backends for alias-guarded twins (sanitizer).
    alias_guard: bool = False
    #: Run the spec-level rewrite optimizer (:mod:`repro.opt`) before
    #: the mutability analysis: semantics-preserving normalizations
    #: certified to never demote a mutable stream, surfaced as
    #: ``OPT00x`` diagnostics.
    rewrite: bool = False
    #: Name of the generated monitor class.
    class_name: str = "GeneratedMonitor"
    #: Plan-cache directory (or a :class:`PlanCache`): persist and
    #: reuse the analysis outputs across processes.
    plan_cache: Union[str, PlanCache, None] = None

    def __post_init__(self) -> None:
        if not isinstance(self.optimize, bool):
            raise TypeError(
                f"optimize must be a bool, not {self.optimize!r}"
                " (the rewrite optimizer is rewrite=True)"
            )
        if isinstance(self.backend, str):
            try:
                coerced = Backend[self.backend.upper()]
            except KeyError:
                names = sorted(b.name.lower() for b in Backend)
                raise ValueError(
                    f"unknown backend {self.backend!r}; expected one of"
                    f" {names}"
                ) from None
            object.__setattr__(self, "backend", coerced)
        object.__setattr__(
            self, "error_policy", coerce_policy(self.error_policy)
        )
        if self.engine not in _ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of"
                f" {_ENGINES}"
            )


@dataclass(frozen=True)
class RunOptions:
    """Everything that shapes one run of a compiled monitor."""

    #: Bound for ``delay`` streams after end of input.
    end_time: Optional[int] = None
    #: Drive the monitor's ``feed_batch`` hot path in chunks of
    #: roughly this many events (``None`` — per-event feeding).
    batch_size: Optional[int] = None
    #: Type-check every input event against the declared types.
    validate_inputs: bool = False
    #: Write durable checkpoints into this directory.
    checkpoint_dir: Optional[str] = None
    #: Checkpoint period in consumed input events.
    checkpoint_every: int = 1000
    #: How many checkpoint files to retain.
    checkpoint_keep: int = 3
    #: Restart from the newest valid checkpoint in ``checkpoint_dir``.
    resume: bool = False
    #: Tolerant-ingestion policies (see
    #: :class:`~repro.semantics.traceio.IngestPolicy`).
    on_malformed: str = "raise"
    on_unknown_stream: str = "raise"
    on_out_of_order: str = "raise"
    max_skew: int = 0
    #: Worker processes for :func:`run_many` (:func:`run` ignores it).
    #: ``1`` — sequential, no pool spin-up.
    jobs: int = 1
    #: Record per-stream copy/in-place counters for this run (see
    #: :mod:`repro.obs`).  The first metrics run builds an instrumented
    #: twin of the compiled monitor (memoized on the :class:`Monitor`);
    #: uninstrumented runs keep executing the original, unwrapped code.
    #: The run's snapshot lands in ``RunReport.metrics`` and accumulates
    #: in :meth:`Monitor.metrics`.
    metrics: bool = False
    #: Per-trace wall-clock deadline in seconds for the worker
    #: processes; a trace outliving it is killed and re-dispatched.
    trace_timeout: Optional[float] = None
    #: Re-dispatches a failing/interrupted trace may consume after its
    #: first attempt; ``0`` disables retries.  A trace exhausting
    #: ``1 + max_retries`` attempts is quarantined (or, under
    #: fail-fast, sinks the pool with a
    #: :class:`~repro.errors.PoolError`).
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume=True requires checkpoint_dir")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.trace_timeout is not None and self.trace_timeout <= 0:
            raise ValueError(
                f"trace_timeout must be > 0, got {self.trace_timeout}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )

    @property
    def tolerant(self) -> bool:
        """True when any ingestion policy deviates from strict."""
        return (
            self.on_malformed != "raise"
            or self.on_unknown_stream != "raise"
            or self.on_out_of_order != "raise"
            or self.max_skew > 0
        )


class Monitor:
    """A compiled specification, as returned by :func:`compile`."""

    def __init__(
        self,
        compiled: CompiledSpec,
        options: CompileOptions,
        source_text: Optional[str] = None,
    ) -> None:
        self.compiled = compiled
        self.options = options
        #: The original specification text when compiled from text —
        #: lets the worker pool ship the text (plus the plan-cache
        #: fingerprint) across process boundaries instead of a monitor.
        self.source_text = source_text
        # Metrics memos: the registry accumulates across this handle's
        # instrumented runs; the twin is the compiled spec rebuilt with
        # counting lift bindings (built on the first metrics run).
        self._metrics = None
        self._instrumented = None

    # -- introspection ---------------------------------------------------

    @property
    def inputs(self) -> Tuple[str, ...]:
        return tuple(self.compiled.flat.inputs)

    @property
    def outputs(self) -> Tuple[str, ...]:
        return tuple(self.compiled.flat.outputs)

    @property
    def fingerprint(self) -> str:
        """Content + options hash keying plan cache and checkpoints."""
        return self.compiled.fingerprint

    @property
    def engine_requested(self) -> str:
        """The engine string the compile options asked for (may be
        ``"auto"``)."""
        return self.compiled.engine_requested or self.compiled.engine

    @property
    def engine_resolved(self) -> str:
        """The engine actually compiled — never ``"auto"``.

        With ``engine="auto"`` or ``engine="vector"`` this is
        ``"vector"`` when every stream passed the vector-eligibility
        classification (numpy importable, no error policy), else
        ``"codegen"``.
        The resolved engine — not the ``"auto"`` request — is what
        enters :attr:`fingerprint`.
        """
        return self.compiled.engine

    @property
    def source(self) -> str:
        """The generated Python source (engine-dependent)."""
        return self.compiled.source

    @property
    def plan_cache_hit(self) -> Optional[bool]:
        """``None`` — no cache consulted; else hit/miss."""
        return self.compiled.plan_cache_hit

    @property
    def mutable_streams(self) -> frozenset:
        return self.compiled.mutable_streams

    def diagnostics(self) -> list:
        return self.compiled.diagnostics()

    def metrics(self) -> Optional[Dict[str, Any]]:
        """Cumulative metric snapshot across this handle's instrumented
        runs (``RunOptions(metrics=True)``), or ``None`` when no metrics
        run has happened yet.  Per-run deltas live on each run's
        ``RunReport.metrics``."""
        if self._metrics is None:
            return None
        return self._metrics.snapshot()

    def _metrics_registry(self):
        if self._metrics is None:
            from .obs.metrics import MetricsRegistry

            self._metrics = MetricsRegistry()
        return self._metrics

    # -- execution -------------------------------------------------------

    def new_instance(self, on_output=None):
        """A fresh bare monitor instance (no runner, no report)."""
        return self.compiled.new_monitor(on_output)

    def run_traces(
        self,
        inputs: Mapping[str, Any],
        end_time: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Whole-trace convenience; returns frozen output streams."""
        return self.compiled.run_traces(inputs, end_time=end_time)

    def feed_columns(
        self,
        timestamps: Any,
        columns: Mapping[str, Any],
        options: Optional["RunOptions"] = None,
        *,
        on_output: Optional[Callable[[str, int, Any], None]] = None,
    ) -> RunReport:
        """One-shot columnar run: feed whole timestamp-aligned columns.

        *timestamps* is a strictly increasing sequence (list or numpy
        array) and *columns* maps input-stream names to equally long
        value arrays.  Columns are dense: a stream has an event at every
        timestamp, and a ``None`` entry is rejected (it is the no-event
        value); a stream with no events is left out.  Under the
        vector engine the arrays are consumed zero-copy as SoA batch
        buffers; other engines transparently fall back to a row
        conversion, so outputs are byte-identical either way.  Returns
        the finished run's :class:`~repro.compiler.runtime.RunReport`.
        """
        options = options or RunOptions()
        runner = MonitorRunner(
            self.compiled,
            on_output,
            validate_inputs=options.validate_inputs,
        )
        runner.feed_columns(timestamps, columns)
        return runner.finish(end_time=options.end_time)

    def __repr__(self) -> str:
        return (
            f"Monitor(inputs={list(self.inputs)},"
            f" outputs={list(self.outputs)},"
            f" engine={self.compiled.engine!r},"
            f" fingerprint={self.fingerprint[:12]!r})"
        )


def compile(
    source_or_spec: Union[str, Specification, FlatSpec],
    options: Optional[CompileOptions] = None,
) -> Monitor:
    """Compile specification text (or an AST) into a :class:`Monitor`.

    A ``str`` argument is parsed as TeSSLa-like specification text;
    :class:`Specification` and :class:`FlatSpec` objects are compiled
    directly.
    """
    options = options or CompileOptions()
    if isinstance(source_or_spec, str):
        from .compiler.pipeline import build_compiled_spec_from_text

        # Raw text gets the text-keyed plan-cache fast path: a warm
        # hit skips parsing and type inference entirely.
        compiled = build_compiled_spec_from_text(
            source_or_spec,
            optimize=options.optimize,
            backend_override=options.backend,
            class_name=options.class_name,
            engine=options.engine,
            error_policy=options.error_policy,
            alias_guard=options.alias_guard,
            plan_cache=options.plan_cache,
            rewrite=options.rewrite,
        )
        return Monitor(compiled, options, source_text=source_or_spec)
    compiled = build_compiled_spec(
        source_or_spec,
        optimize=options.optimize,
        backend_override=options.backend,
        class_name=options.class_name,
        engine=options.engine,
        error_policy=options.error_policy,
        alias_guard=options.alias_guard,
        plan_cache=options.plan_cache,
        rewrite=options.rewrite,
    )
    return Monitor(compiled, options)


def _as_event_iter(
    events: Union[
        Mapping[str, Any], Iterable[Tuple[int, str, Any]]
    ],
) -> Iterable[Tuple[int, str, Any]]:
    """Normalize run input into a timestamp-ordered event iterable."""
    if isinstance(events, Mapping):
        flat = [
            (ts, name, value)
            for name, trace in events.items()
            for ts, value in trace
        ]
        flat.sort(key=lambda e: e[0])
        return flat
    return events


def run(
    monitor: Union[Monitor, CompiledSpec],
    events: Union[Mapping[str, Any], Iterable[Tuple[int, str, Any]]],
    options: Optional[RunOptions] = None,
    *,
    on_output: Optional[Callable[[str, int, Any], None]] = None,
    on_checkpoint: Optional[Callable[[], None]] = None,
    on_resume: Optional[Callable[[Optional[Dict[str, Any]]], None]] = None,
    checkpoint_gate: Optional[Callable[[], bool]] = None,
) -> RunReport:
    """Run a compiled monitor over *events*; return the run report.

    *events* is either an iterable of ``(ts, stream, value)`` tuples
    (already timestamp-sorted, unless a tolerant out-of-order policy
    is configured) or a mapping of per-stream traces (sorted here).

    ``on_output(name, ts, value)`` receives every output event.
    ``on_checkpoint()`` fires immediately before each durable
    checkpoint write (flush buffered sinks there).  With
    ``options.resume``, ``on_resume(meta)`` is called once before any
    event is fed — ``meta`` is the checkpoint metadata (``None`` when
    no valid checkpoint existed) and the caller must rewind its output
    sink to ``meta["outputs_emitted"]`` records.
    ``checkpoint_gate()`` is consulted before every checkpoint write;
    return ``False`` to suppress the write.  Callers that feed from
    their own :class:`~repro.semantics.traceio.TolerantReader` should
    pass ``lambda: not reader.draining`` so checkpoints stop once the
    reader's end-of-input drain starts delivering events in positions
    a re-read of the full input would not reproduce.  When *options*
    configure a tolerant reader internally, that gate is applied
    automatically and composed with any caller-supplied one.
    """
    options = options or RunOptions()
    compiled = monitor.compiled if isinstance(monitor, Monitor) else monitor

    registry = None
    before = None
    if options.metrics:
        compiled, registry = _instrumented_for(monitor, compiled)
        before = registry.snapshot()

    event_iter, stats, reader = _ingest(compiled, events, options)
    gate = checkpoint_gate
    if reader is not None:
        # Drained deliveries are not replay-stable; stop checkpointing
        # once the reader's end-of-input drain begins (see
        # MonitorRunner's checkpoint_gate docs).
        user_gate = gate
        if user_gate is None:
            gate = lambda: not reader.draining  # noqa: E731
        else:
            gate = lambda: not reader.draining and user_gate()  # noqa: E731

    runner_kwargs: Dict[str, Any] = {
        "validate_inputs": options.validate_inputs,
        "checkpoint_every": options.checkpoint_every,
        "checkpoint_keep": options.checkpoint_keep,
        "on_checkpoint": on_checkpoint,
        "checkpoint_gate": gate,
    }
    meta: Optional[Dict[str, Any]] = None
    if options.resume:
        assert options.checkpoint_dir is not None
        runner, meta = MonitorRunner.resume(
            compiled,
            options.checkpoint_dir,
            on_output=on_output,
            **runner_kwargs,
        )
        if on_resume is not None:
            on_resume(meta)
    else:
        runner = MonitorRunner(
            compiled,
            on_output,
            checkpoint_dir=options.checkpoint_dir,
            **runner_kwargs,
        )

    if options.resume:
        runner.feed_from_start(event_iter)
    elif options.batch_size is not None:
        from .semantics.traceio import batch_events

        for batch in batch_events(event_iter, options.batch_size):
            runner.feed_batch(batch)
    else:
        runner.feed(event_iter)
    report = runner.finish(end_time=options.end_time)
    if stats is not None:
        report.absorb_ingest(stats)
    if registry is not None:
        from .obs.metrics import WINDOW_LATE_DROPS, diff_snapshots

        if (
            stats is not None
            and stats.out_of_order_dropped
            and getattr(compiled.flat, "window_info", None)
        ):
            # Windowed specs observe late data as reorder-buffer drops:
            # events later than the skew bound never reach their window.
            registry.inc(WINDOW_LATE_DROPS, stats.out_of_order_dropped)
        report.metrics = diff_snapshots(before, registry.snapshot())
    return report


def _instrumented_for(
    monitor: Union[Monitor, CompiledSpec], compiled: CompiledSpec
):
    """The instrumented twin of *compiled* plus its metrics registry.

    For a :class:`Monitor` handle both are memoized, so repeated metrics
    runs reuse one twin and accumulate into one registry; a bare
    :class:`CompiledSpec` gets a fresh pair per run.
    """
    from .compiler.pipeline import instrumented_twin

    if isinstance(monitor, Monitor):
        registry = monitor._metrics_registry()
        if monitor._instrumented is None:
            monitor._instrumented = instrumented_twin(compiled, registry)
        return monitor._instrumented, registry
    from .obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    return instrumented_twin(compiled, registry), registry


def _ingest(compiled, events, options):
    """Normalize run input, wrapping the tolerant reader if configured.

    Returns ``(event_iter, stats, reader)``; *stats* and *reader* are
    ``None`` when no tolerant policy is configured.  The reader handle
    is exposed so callers can gate checkpoints on ``reader.draining``.
    """
    event_iter = _as_event_iter(events)
    stats = None
    reader = None
    if options.tolerant:
        from .semantics.traceio import IngestPolicy, TolerantReader

        reader = TolerantReader(
            IngestPolicy(
                on_malformed=options.on_malformed,
                on_unknown_stream=options.on_unknown_stream,
                on_out_of_order=options.on_out_of_order,
                max_skew=options.max_skew,
            ),
            known_streams=compiled.flat.inputs,
        )
        stats = reader.stats
        event_iter = reader.events(event_iter, lambda item: item)
    return event_iter, stats, reader


def run_many(
    monitor: Union[Monitor, CompiledSpec, str],
    traces: Iterable[Iterable[Tuple[int, str, Any]]],
    options: Optional[RunOptions] = None,
    *,
    compile_options: Optional[CompileOptions] = None,
    max_in_flight: Optional[int] = None,
    collect_outputs: bool = True,
    on_result: Optional[Callable[[Any], None]] = None,
):
    """Run one compiled spec over many independent traces, in parallel.

    *traces* is an iterable of event sequences (each an iterable of
    ``(ts, stream, value)`` tuples, timestamp-sorted).  With
    ``options.jobs > 1`` the traces are distributed over a supervised
    pool of forked worker processes (see
    :class:`repro.parallel.MonitorPool`): in-flight traces are bounded,
    results come back ordered and exactly once, interrupted traces are
    re-dispatched up to ``options.max_retries`` times
    (``options.trace_timeout`` bounds each attempt), and exhausted
    traces degrade per the compiled spec's error policy.  Returns a
    :class:`repro.parallel.pool.PoolResult`.

    Pass a text *monitor* (or one compiled by :func:`compile` from
    text) plus a ``plan_cache`` in *compile_options* so workers
    warm-start from the on-disk cache instead of re-analyzing.
    """
    from .parallel.pool import MonitorPool
    from .parallel.supervisor import RetryPolicy

    options = options or RunOptions()
    if compile_options is None and isinstance(monitor, Monitor):
        compile_options = monitor.options
    pool = MonitorPool(
        monitor,
        compile_options=compile_options,
        jobs=options.jobs,
        max_in_flight=max_in_flight,
        retry=RetryPolicy(max_attempts=options.max_retries + 1),
        trace_timeout=options.trace_timeout,
    )

    def _listed(source):
        # Lazy pass-through: each trace is pulled (and materialized)
        # exactly once, when the pool's backpressure window reaches it.
        # The pool builds its task payload once; retries reuse that
        # payload and never re-iterate the source.
        for trace in source:
            yield trace if isinstance(trace, list) else list(trace)

    return pool.run_many(
        traces if isinstance(traces, list) else _listed(traces),
        end_time=options.end_time,
        batch_size=options.batch_size,
        validate_inputs=options.validate_inputs,
        collect_outputs=collect_outputs,
        metrics=options.metrics,
        on_result=on_result,
    )
