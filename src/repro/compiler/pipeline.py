"""End-to-end compilation pipeline.

:func:`build_compiled_spec` is the engine-room entry point:
specification → flatten → type check → usage graph → mutability
analysis → translation order → monitor class.  Most callers should go
through the :mod:`repro.api` facade (``repro.api.compile`` with a
:class:`~repro.api.CompileOptions`).

Three compilation modes:

* ``optimize=True`` (default) — the paper's optimized monitor: mutable
  structures for the mutability set, persistent for the rest, and the
  analysis-chosen translation order that maximizes the former.  Before
  the analysis, write-then-read fusion (``OPT008``,
  :func:`repro.opt.fuse_write_reads`) drops every write whose result is
  only read, so the copy it forced disappears.
* ``optimize=False`` — the paper's baseline: exclusively persistent
  structures ("the natural choice when no dedicated optimization
  algorithm is used"), plain topological order, the spec as written.
* ``backend_override`` — force one backend everywhere (e.g.
  ``Backend.COPYING`` for the naive-copy ablation baseline).

Execution engines: ``"codegen"`` (generated Python source) and
``"vector"`` (columnar numpy kernels, see :mod:`repro.compiler.vector`);
:func:`monitor_class_factory` is the one place an engine name becomes a
monitor-class builder.

With ``plan_cache`` set, the analysis outputs (translation order +
backend choices) are persisted on disk keyed by the spec-and-options
fingerprint; a later compilation of the same spec with the same
options skips the analysis entirely (see
:mod:`repro.compiler.plancache`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..analysis.mutability import MutabilityResult, analyze_mutability
from ..errors import ErrorPolicy, coerce_policy
from ..graph.order import translation_order
from ..graph.usage_graph import build_usage_graph
from ..lang.flatten import flatten
from ..lang.spec import FlatSpec, Specification
from ..lang.typecheck import check_types
from ..semantics.stream import Stream
from ..structures import Backend
from ..obs.trace import TRACER
from .codegen import generate_monitor_class, monitor_class_from_code
from .monitor import MonitorBase, collecting_callback
from .plancache import CachedPlan, PlanCache, plan_fingerprint


@dataclass
class CompiledSpec:
    """A compiled specification: instantiate fresh monitors from it."""

    flat: FlatSpec
    monitor_class: type
    order: List[str]
    backends: Dict[str, Backend]
    analysis: Optional[MutabilityResult]
    optimized: bool
    #: The hardened-evaluation policy this spec was compiled with
    #: (``None`` — the default — compiles the unhardened hot path).
    error_policy: Optional[ErrorPolicy] = None
    #: True when mutable backends were swapped for their alias-guarded
    #: twins (the runtime sanitizer of the mutability analysis).
    alias_guard: bool = False
    #: The execution engine the monitor class was built with.  Always a
    #: concrete engine — ``"auto"`` is resolved before compilation.
    engine: str = "codegen"
    #: The engine string the caller asked for (``"auto"`` before
    #: resolution; equal to ``engine`` for explicit requests).
    engine_requested: str = ""
    #: The :class:`~repro.compiler.vector.VectorClassification` computed
    #: for ``auto``/``vector`` engine requests, or ``None``.  Carries the
    #: per-stream eligibility reasons behind the ``VEC00x`` diagnostics.
    vector_info: Optional[Any] = None
    #: Content + options fingerprint (sha256 hex).  Keys the plan cache
    #: and the durable checkpoints: two compilations differing in any
    #: result-shaping option never share either.
    fingerprint: str = ""
    #: ``None`` — no plan cache consulted; ``True``/``False`` — cache
    #: hit/miss.  Mirrored into :class:`~repro.compiler.runtime.RunReport`.
    plan_cache_hit: Optional[bool] = None
    #: Mutability set restored from a cached plan (when ``analysis`` is
    #: not available because the analysis was skipped on a cache hit).
    cached_mutable: Optional[frozenset] = None
    #: The :class:`~repro.obs.metrics.MetricsRegistry` the lift bindings
    #: were instrumented with, or ``None`` for an uninstrumented compile.
    metrics: Optional[Any] = None
    #: The :class:`~repro.opt.OptimizationResult` of the spec-level
    #: rewrite pass (``rewrite=True``), or ``None`` when it did not run.
    #: Carries per-rewrite provenance records; ``flat`` above is the
    #: rewritten spec.
    rewrite_result: Optional[Any] = None
    #: The cold compile's ``OPT008`` records (read them as
    #: :attr:`fusions`).
    _fusions: Tuple[Any, ...] = field(default=(), repr=False)

    @property
    def fusions(self) -> Tuple[Any, ...]:
        """The ``OPT008`` :class:`~repro.opt.RewriteRecord` of each read
        the optimizing compile fused with the write it read.  On a warm
        text-keyed hit they come from forcing the lazy flat spec."""
        if isinstance(self.flat, _LazyFlat):
            return tuple(self.flat.fusions)
        return self._fusions

    @property
    def source(self) -> str:
        """The generated Python source: for codegen, the calculation
        section ``_calc_rows`` the monitor class is assembled around."""
        return self.monitor_class.SOURCE

    @property
    def mutable_streams(self) -> frozenset:
        if self.analysis is not None:
            return self.analysis.mutable
        if self.cached_mutable is not None:
            return self.cached_mutable
        return frozenset()

    def diagnostics(self) -> list:
        """Unified static-analysis diagnostics for this compilation.

        Lint warnings plus — when the spec was compiled with the
        optimizing analysis — the mutability provenance records (why
        each persistent stream was demoted, and any precision losses).
        See :mod:`repro.analysis.diagnostics`.
        """
        from ..analysis.diagnostics import (
            collect_diagnostics,
            lint_diagnostic,
        )
        from ..lang.lint import lint

        if self.analysis is not None:
            diags = collect_diagnostics(self.flat, self.analysis)
        else:
            diags = [lint_diagnostic(w) for w in lint(self.flat)]
        if self.rewrite_result is not None:
            diags.extend(self.rewrite_result.diagnostics())
            diags.sort(key=lambda d: (d.code, d.stream, d.message))
        if self.fusions:
            from ..opt.engine import record_diagnostics

            diags.extend(record_diagnostics(list(self.fusions)))
            diags.sort(key=lambda d: (d.code, d.stream, d.message))
        if self.vector_info is None and self.engine_requested in (
            "auto",
            "vector",
        ):
            # A text-keyed cache hit skipped the engine negotiation;
            # redo it (it is syntactic) for the VEC00x notes.
            from .vector import classify_vector

            self.vector_info = classify_vector(
                self.flat, error_policy=self.error_policy
            )
        if self.vector_info is not None:
            vector_diags = self.vector_info.diagnostics()
            if vector_diags:
                diags.extend(vector_diags)
                diags.sort(key=lambda d: (d.code, d.stream, d.message))
        return diags

    def persistence_witnesses(self) -> Dict[str, list]:
        """stream → witness records for every persistent-classified
        stream (empty mapping for unoptimized compilations)."""
        if self.analysis is None:
            return {}
        return {
            name: list(ws) for name, ws in self.analysis.witnesses.items()
        }

    def new_monitor(self, on_output=None) -> MonitorBase:
        """Create a fresh monitor instance."""
        return self.monitor_class(on_output)

    def run_traces(
        self,
        inputs: Mapping[str, Any],
        end_time: Optional[int] = None,
    ) -> Dict[str, Stream]:
        """Run on whole input traces; return frozen output streams."""
        on_output, collected = collecting_callback()
        monitor = self.new_monitor(on_output)
        monitor.run_traces(inputs, end_time=end_time)
        return {
            name: Stream(collected.get(name, []))
            for name in self.monitor_class.OUTPUTS
        }


def monitor_class_factory(
    engine: str, vector_info: Optional[Any] = None
) -> Callable[..., type]:
    """The monitor-class builder for a resolved *engine*.

    Every builder takes ``(flat, order, backends, *, class_name,
    error_policy, metrics)``; the vector builder additionally receives
    the engine negotiation's *vector_info* classification.
    """
    if engine == "codegen":
        return generate_monitor_class
    if engine == "vector":
        from .vector import make_vector_class

        return partial(make_vector_class, classification=vector_info)
    raise ValueError(f"unknown engine {engine!r}")


def build_compiled_spec(
    spec: Union[Specification, FlatSpec],
    optimize: bool = True,
    backend_override: Optional[Backend] = None,
    class_name: str = "GeneratedMonitor",
    engine: str = "codegen",
    error_policy: Union[ErrorPolicy, str, None] = None,
    alias_guard: bool = False,
    plan_cache: Union[str, PlanCache, None] = None,
    metrics: Optional[Any] = None,
    rewrite: bool = False,
) -> CompiledSpec:
    """Compile *spec* into a monitor class (see module docstring).

    ``rewrite=True`` runs the spec-level rewrite optimizer
    (:mod:`repro.opt`) on the flattened spec before the mutability
    analysis: semantics-preserving normalizations (duplicate-stream and
    dead-stream elimination, identity-lift removal, lift fusion,
    constant folding), each certified to never demote a mutable stream
    and recorded as ``OPT00x`` provenance on :meth:`CompiledSpec.diagnostics`.

    ``engine`` selects the execution strategy: ``"codegen"`` (generated
    Python source, the default), ``"vector"`` (columnar numpy kernels)
    or ``"auto"``.
    ``"auto"`` and ``"vector"`` both resolve to vector when every stream
    is vector-eligible and no error policy is set, else to codegen;
    only ``"vector"`` raises when numpy is missing.

    ``error_policy`` (an :class:`~repro.errors.ErrorPolicy` or its
    string value) switches on the hardened error-propagating evaluation
    — lift exceptions become first-class error values, raise with
    context, or suppress the event, per policy, and the monitor carries
    a live :class:`~repro.compiler.runtime.RunReport`.  ``None`` (the
    default) compiles the unhardened code with zero overhead.

    ``alias_guard=True`` swaps every mutable backend for its guarded
    twin (:mod:`repro.structures.guard`): any access through a stale
    aggregate reference — a bug in the static mutability analysis —
    raises immediately.  A debug/sanitizer mode.

    ``plan_cache`` (a directory path or a :class:`PlanCache`) persists
    and reuses the analysis outputs across processes.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) threads
    per-stream copy/in-place counters into the lift bindings; ``None``
    compiles exactly the uninstrumented callables.
    """
    return _compile(
        spec,
        optimize=optimize,
        backend_override=backend_override,
        class_name=class_name,
        engine=engine,
        error_policy=error_policy,
        alias_guard=alias_guard,
        plan_cache=plan_cache,
        metrics=metrics,
        rewrite=rewrite,
    )


def _compile(
    spec: Union[Specification, FlatSpec],
    optimize: bool,
    backend_override: Optional[Backend],
    class_name: str,
    engine: str,
    error_policy: Union[ErrorPolicy, str, None],
    alias_guard: bool,
    plan_cache: Union[str, PlanCache, None],
    metrics: Optional[Any],
    rewrite: bool,
    text_key: Optional[str] = None,
) -> CompiledSpec:
    """:func:`build_compiled_spec`; with *text_key*, a stored entry that
    carries generated code is also filed under that text-keyed alias."""
    policy = coerce_policy(error_policy)
    with TRACER.span("compile.flatten"):
        flat = spec if isinstance(spec, FlatSpec) else flatten(spec)
        if not flat.types:
            check_types(flat)

    flat, rewrite_result, fusions = _flat_passes(
        flat,
        optimize=optimize,
        backend_override=backend_override,
        rewrite=rewrite,
        metrics=metrics,
    )

    # Engine negotiation: "auto" and "vector" resolve to the vector
    # engine when numpy is importable, no error policy is set and every
    # stream is vector-eligible, else to the codegen engine ("vector"
    # without numpy is an error instead).  The classification is cheap
    # and syntactic, so it also runs on warm cache hits; the resolved
    # engine — not the request — enters the fingerprint below.
    requested_engine = engine
    vector_info: Optional[Any] = None
    if engine in ("auto", "vector"):
        from .vector import classify_vector

        vector_info = classify_vector(flat, error_policy=policy)
        if engine == "vector" and not vector_info.numpy_ok:
            raise ValueError(
                "engine='vector' requires numpy; install the optional"
                " extra (pip install 'repro[vector]') or use"
                " engine='auto' to fall back to the codegen engine"
            )
        engine = vector_info.auto_engine

    if isinstance(plan_cache, str):
        plan_cache = PlanCache(plan_cache)
    fingerprint = plan_fingerprint(
        flat,
        optimize=optimize,
        backend_override=backend_override,
        alias_guard=alias_guard,
        error_policy=policy,
        engine=engine,
        rewrite=rewrite,
    )

    analysis: Optional[MutabilityResult] = None
    cached_mutable: Optional[frozenset] = None
    plan_cache_hit: Optional[bool] = None
    cached: Optional[CachedPlan] = None
    if plan_cache is not None:
        cached = plan_cache.load(fingerprint)
        plan_cache_hit = cached is not None

    if cached is not None:
        order = list(cached.order)
        backends = dict(cached.backends)
        optimized = cached.optimized
        cached_mutable = cached.mutable
    elif backend_override is not None:
        with TRACER.span("compile.usage_graph"):
            graph = build_usage_graph(flat)
        with TRACER.span("compile.translation_order"):
            order = translation_order(graph)
        backends = {name: backend_override for name in flat.streams}
        optimized = False
    elif optimize:
        if (
            rewrite_result is not None
            and rewrite_result.analysis is not None
            and not fusions
        ):
            # The certifying rewrite pass already analyzed the final
            # rewritten spec; reuse it instead of re-running.
            analysis = rewrite_result.analysis
        else:
            analysis = analyze_mutability(flat)
        order = analysis.order
        backends = {
            name: analysis.backend_for(name) for name in flat.streams
        }
        optimized = True
    else:
        with TRACER.span("compile.usage_graph"):
            graph = build_usage_graph(flat)
        with TRACER.span("compile.translation_order"):
            order = translation_order(graph)
        backends = {name: Backend.PERSISTENT for name in flat.streams}
        optimized = False

    # The cache stores pre-guard backends; the guarded swap is applied
    # on top of both cold and warm compilations.
    pre_guard_backends = dict(backends)
    if alias_guard:
        backends = {
            name: Backend.GUARDED if backend is Backend.MUTABLE else backend
            for name, backend in backends.items()
        }

    monitor_class: Optional[type] = None
    if (
        cached is not None
        and engine == "codegen"
        and cached.code is not None
        and metrics is None
    ):
        # The entry carries the generated module (.pyc-style): skip
        # source assembly and recompilation, rebind the namespace only.
        # Metrics compiles generate their own: the cached module
        # inlines the lifts instrument_lift must count.
        with TRACER.span("compile.codegen"):
            monitor_class = monitor_class_from_code(
                flat,
                order,
                backends,
                cached.source or "",
                cached.code,
                class_name=class_name,
                error_policy=policy,
                metrics=metrics,
            )

    if monitor_class is None:
        with TRACER.span("compile.codegen"):
            monitor_class = monitor_class_factory(engine, vector_info)(
                flat,
                order,
                backends,
                class_name=class_name,
                error_policy=policy,
                metrics=metrics,
            )

    if plan_cache is not None:
        _store_plan(
            plan_cache,
            fingerprint,
            flat,
            monitor_class,
            cached,
            order=order,
            backends=pre_guard_backends,
            optimized=optimized,
            mutable=(
                analysis.mutable if analysis is not None else cached_mutable
            ),
            engine=engine,
            text_key=text_key,
            keep_code=metrics is None,
        )
    return CompiledSpec(
        flat=flat,
        monitor_class=monitor_class,
        order=list(order),
        backends=backends,
        analysis=analysis,
        optimized=optimized,
        error_policy=policy,
        alias_guard=alias_guard,
        engine=engine,
        engine_requested=requested_engine,
        vector_info=vector_info,
        fingerprint=fingerprint,
        plan_cache_hit=plan_cache_hit,
        cached_mutable=cached_mutable,
        metrics=metrics,
        rewrite_result=rewrite_result,
        _fusions=tuple(fusions),
    )


def _flat_passes(
    flat: FlatSpec,
    *,
    optimize: bool,
    backend_override: Optional[Backend],
    rewrite: bool,
    metrics: Optional[Any],
) -> Tuple[FlatSpec, Optional[Any], List[Any]]:
    """The flat-level transforms of a compilation, in order.

    ``rewrite=True`` runs the rewrite optimizer; the optimizing path
    (``optimize`` without a backend override) then applies
    write-then-read fusion once (``OPT008``, one linear scan).  The
    persistent and copying baselines compile the spec as written.
    Returns the final flat spec, the rewrite result (or ``None``) and
    the fusion records.
    """
    certify = bool(optimize) and backend_override is None
    rewrite_result: Optional[Any] = None
    if rewrite:
        from ..opt import optimize_flat

        with TRACER.span("compile.rewrite"):
            rewrite_result = optimize_flat(
                flat, certify=certify, metrics=metrics
            )
        flat = rewrite_result.flat
    fusions: List[Any] = []
    if certify:
        from ..opt.rewrite import fuse_write_reads

        with TRACER.span("compile.fuse"):
            flat, fusions = fuse_write_reads(flat)
    return flat, rewrite_result, fusions


def _store_plan(
    plan_cache: PlanCache,
    fingerprint: str,
    flat: FlatSpec,
    monitor_class: type,
    cached: Optional[CachedPlan],
    *,
    order: List[str],
    backends: Dict[str, Backend],
    optimized: bool,
    mutable: Optional[frozenset],
    engine: str,
    text_key: Optional[str],
    keep_code: bool = True,
) -> None:
    """Persist a compilation: one entry, aliased under *text_key* when
    its generated code can be rebuilt without the flat spec.

    A flat-keyed hit stores nothing, unless the text-keyed alias is
    missing (the same flat spec reached from different text).  Without
    *keep_code* (a metrics compile) only the plan is stored.
    """
    import marshal

    from .codegen import lift_recipe

    code = getattr(monitor_class, "CODE", None) if keep_code else None
    lifts = lift_recipe(flat) if code is not None else None
    alias = text_key if lifts is not None else None
    if cached is not None and alias is None:
        return
    with TRACER.span("compile.cache_store"):
        plan_cache.store(
            fingerprint,
            CachedPlan(
                order=tuple(order),
                backends=backends,
                optimized=optimized,
                mutable=frozenset(mutable or ()),
                source=monitor_class.SOURCE if code is not None else None,
                code=marshal.dumps(code) if code is not None else None,
                layout=monitor_class.LAYOUT if code is not None else None,
                lifts=lifts,
                plan_key=fingerprint,
                engine=engine,
            ),
            alias=alias,
        )


def instrumented_twin(compiled: CompiledSpec, metrics: Any) -> CompiledSpec:
    """An instrumented copy of *compiled* sharing its analysis outputs.

    Only the monitor class is rebuilt — with *metrics* threaded into the
    lift bindings — reusing the existing flat spec, translation order
    and backend assignment, so no parsing or analysis is repeated.  The
    uninstrumented original stays untouched: runs without metrics keep
    executing the exact pre-existing callables.
    """
    from dataclasses import replace

    monitor_class = monitor_class_factory(
        compiled.engine, compiled.vector_info
    )(
        compiled.flat,
        compiled.order,
        compiled.backends,
        class_name=compiled.monitor_class.__name__,
        error_policy=compiled.error_policy,
        metrics=metrics,
    )
    return replace(compiled, monitor_class=monitor_class, metrics=metrics)


class _LazyFlat:
    """A flat specification parsed on first use.

    Text-keyed cache hits construct working monitors without touching
    the frontend; anything that actually needs the flat spec (type
    validation, diagnostics, trace-level runs) transparently forces
    the parse through attribute access.  Forcing applies the same
    flat-level transforms the cold compilation applied
    (:func:`_flat_passes`), so the spec matches the cached order and
    backends stream for stream.
    """

    __slots__ = ("_text", "_flat", "_passes", "_fusions")

    def __init__(self, text: str, **passes: Any) -> None:
        self._text = text
        self._flat: Optional[FlatSpec] = None
        self._passes = passes
        self._fusions: List[Any] = []

    def _force(self) -> FlatSpec:
        if self._flat is None:
            from ..frontend import parse_spec

            spec = parse_spec(self._text)
            flat = spec if isinstance(spec, FlatSpec) else flatten(spec)
            if not flat.types:
                check_types(flat)
            self._flat, _, self._fusions = _flat_passes(
                flat, metrics=None, **self._passes
            )
        return self._flat

    @property
    def fusions(self) -> List[Any]:
        """The ``OPT008`` records of the forced spec's fusion pass."""
        self._force()
        return self._fusions

    def __getattr__(self, name: str) -> Any:
        return getattr(self._force(), name)

    def __repr__(self) -> str:
        state = "parsed" if self._flat is not None else "deferred"
        return f"<lazy flat spec ({state})>"


def build_compiled_spec_from_text(
    text: str,
    optimize: bool = True,
    backend_override: Optional[Backend] = None,
    class_name: str = "GeneratedMonitor",
    engine: str = "codegen",
    error_policy: Union[ErrorPolicy, str, None] = None,
    alias_guard: bool = False,
    plan_cache: Union[str, PlanCache, None] = None,
    metrics: Optional[Any] = None,
    rewrite: bool = False,
) -> CompiledSpec:
    """Compile raw specification text, with the text-keyed fast path.

    With a plan cache, entries are additionally keyed by a hash of the
    unparsed text (:func:`~repro.compiler.plancache.text_fingerprint`),
    and a warm hit rebuilds the monitor class from the cached code
    object and lift recipe — no lexing, parsing, flattening, type
    inference, analysis or code generation.  The flat spec itself
    becomes lazy: it is parsed only if something actually asks for it.
    Everything else behaves exactly like parsing and calling
    :func:`build_compiled_spec`.
    """
    from .codegen import monitor_class_from_recipe
    from .plancache import text_fingerprint

    policy = coerce_policy(error_policy)
    if isinstance(plan_cache, str):
        plan_cache = PlanCache(plan_cache)

    # Only "codegen" and the engines that may resolve to it can produce a
    # generated module; the key holds the requested engine, and the
    # numpy bit for "auto"/"vector" (so "vector" without numpy never
    # hits an entry and still raises below).
    text_key: Optional[str] = None
    if plan_cache is not None and engine in ("codegen", "auto", "vector"):
        text_key = text_fingerprint(
            text,
            optimize=optimize,
            backend_override=backend_override,
            alias_guard=alias_guard,
            error_policy=policy,
            engine=engine,
            rewrite=rewrite,
        )
        cached = plan_cache.load(text_key) if metrics is None else None
        if (
            cached is not None
            and cached.engine == "codegen"
            and cached.code is not None
            and cached.layout is not None
            and cached.lifts is not None
        ):
            backends = dict(cached.backends)
            if alias_guard:
                backends = {
                    name: (
                        Backend.GUARDED
                        if backend is Backend.MUTABLE
                        else backend
                    )
                    for name, backend in backends.items()
                }
            monitor_class = monitor_class_from_recipe(
                cached.lifts,
                backends,
                cached.source or "",
                cached.code,
                cached.layout,
                class_name=class_name,
                error_policy=policy,
                metrics=metrics,
            )
            if monitor_class is not None:
                return CompiledSpec(
                    flat=_LazyFlat(  # type: ignore[arg-type]
                        text,
                        optimize=optimize,
                        backend_override=backend_override,
                        rewrite=rewrite,
                    ),
                    monitor_class=monitor_class,
                    order=list(cached.order),
                    backends=backends,
                    analysis=None,
                    optimized=cached.optimized,
                    error_policy=policy,
                    alias_guard=alias_guard,
                    engine="codegen",
                    engine_requested=engine,
                    fingerprint=cached.plan_key or text_key,
                    plan_cache_hit=True,
                    cached_mutable=cached.mutable,
                    metrics=metrics,
                )

    from ..frontend import parse_spec

    return _compile(
        parse_spec(text),
        optimize=optimize,
        backend_override=backend_override,
        class_name=class_name,
        engine=engine,
        error_policy=policy,
        alias_guard=alias_guard,
        plan_cache=plan_cache,
        metrics=metrics,
        rewrite=rewrite,
        text_key=text_key,
    )
