"""Code generation: flat specification → Python monitor class (§III-A).

The calculation section is generated exactly once, as the function
``_calc_rows(self, rows, emit)``.  A *row* is one timestamp's inputs,
``(ts, v_<input>...)`` in ``INPUTS`` order (``None`` where a stream
has no event); ``_calc_rows`` evaluates every stream of every row into
local variables, following the translation order.  Both ingestion
paths feed it: ``push`` hands over one row per timestamp, ``feed_batch`` a whole
batch of rows.  Everything that is the same for every specification is
compiled once: the ingestion loop and its protocol checks, shared with
the vector engine, live in :class:`~repro.compiler.monitor.MonitorBase`;
state initialization, timestamp 0 and the earliest-delay lookup in
:class:`CodegenMonitorBase`.

Generated code only ever sees timestamps after 0.  Timestamp 0 — the
only one at which ``unit``, constants and empty-aggregate constructors
fire — is evaluated by :meth:`CodegenMonitorBase._calc0` from the
class's ``PROGRAM`` table, through the same bound lift callables.  So
the generated code folds every stream that can only fire at 0 (and
every stream that never fires) to ``None`` at compile time, together
with the merges and guards over them.  ``time(x)`` and merges left with
one live operand get no line of their own either: their uses read
``ts`` (guarded by ``x``) or the operand directly.  A guard tests each
variable once, and a stream present in every row (a lone input, a merge
of all inputs, in a spec without delays) needs no test at all.

Stream state that survives between timestamps lives on the instance:

* ``_in_<name>`` — inputs of the pending (not yet calculated) timestamp,
* ``_last_<name>`` — stored last values for streams used as the first
  argument of a ``last`` (paper's ``v_last`` variables); ``_calc_rows``
  reads them into locals before its loop and writes them back after,
* ``_next_<name>`` — pending timestamps of ``delay`` streams (paper's
  ``s_nextTs`` variables).

The class itself is assembled with ``type()`` from the compiled
function and a *layout* (inputs, outputs, state attributes, the
timestamp-0 program), so the compiled source holds nothing but the
calculation section.

Where the mutability decision shows in code (:func:`lift_modes`): a
certified-mutable family whose lifts all have a Python
:attr:`~repro.lang.builtins.LiftedFunction.template` is held as a bare
``set``/``dict``/``deque``/``list``, and ``_calc_rows`` inlines the
templates — ``v_was = (v_i in v_seen_l)`` — the way the paper's
optimized monitors update the target language's own collections.
Every other lift is called as ``_f_<stream>``, a callable bound per
stream into the generated module's namespace: persistent, copying and
alias-guarded families keep their wrapper classes, whose constructors
receive the backend the analysis chose, and compiles with an error
policy or metrics call every lift.

Outputs go straight to the caller's callback; ``_calc_rows`` and
``_calc0`` count them into the monitor's ``RunReport`` themselves, in a
local written back in a ``finally``.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..analysis.unionfind import UnionFind
from ..errors import ErrorPolicy, ErrorValue
from ..lang.ast import Delay, Last, Lift, Nil, TimeExpr, UnitExpr
from ..lang.builtins import (
    TEMPLATE_GLOBALS,
    Access,
    EventPattern,
    LiftedFunction,
)
from ..lang.lint import zero_only_streams
from ..lang.spec import FlatSpec
from ..lang.types import BOOL, FLOAT, INT, STR
from ..structures import Backend
from .monitor import UNIT_VALUE, MonitorBase, _tuple_getter
from .runtime import delay_next, wrap_lift


class CodegenError(Exception):
    """Raised when a specification cannot be translated."""


def _check_identifier(name: str) -> str:
    if not name.isidentifier():
        raise CodegenError(f"stream name {name!r} is not a valid identifier")
    return name


#: Guard of a stream that fires in every row ``_calc_rows`` sees.
_ALWAYS = ""

#: Backends whose updates land in shared storage.
_IN_PLACE = (Backend.MUTABLE, Backend.GUARDED)


def lift_modes(
    flat: FlatSpec,
    backend_for: Callable[[str], Backend],
    calls_only: bool = False,
) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """``(bare, inline)``: the lifts bound to their template over bare
    collections, and the lifts ``_calc_rows`` inlines.

    *Representation.*  A family — streams joined by write, pass-through
    and ``last`` edges, which share one backend — is held as a bare
    ``set``/``dict``/``deque``/``list`` when its streams' backend is
    ``MUTABLE``, it holds no input (the environment builds those), and
    every lift that reads, writes or passes one of its streams has a
    :attr:`~repro.lang.builtins.LiftedFunction.template`.  Anything
    else (persistent, guarded or copying backends, an ad-hoc lift
    written against the ``SetBase`` protocol) keeps the wrapper
    classes.  The rule reads only the backends, so a monitor and its
    metrics twin share one state layout.

    *Invocation.*  A lift touching a bare aggregate is bound to its
    template; it is inlined when it has a template and every aggregate
    it touches is bare (scalar lifts included).  With *calls_only* (an
    error policy or metrics: ``wrap_lift`` and ``instrument_lift`` must
    see each call) nothing is inlined.
    """
    types = flat.types
    aggregates = {
        name
        for name in flat.streams
        if getattr(types.get(name), "is_complex", True)
    }
    held = {name for name in aggregates if backend_for(name) is Backend.MUTABLE}
    # streams whose family keeps the wrappers: other backends, inputs,
    # and (below) everything a template-less lift touches
    seeds = [
        name for name in aggregates if name not in held or name in flat.inputs
    ]
    lifts: List[Tuple[str, Optional[str], List[str]]] = []
    for name, expr in flat.definitions.items():
        if isinstance(expr, Lift):
            touched = [name] + [
                arg.name
                for arg, access in zip(expr.args, expr.func.access)
                if access is not Access.NONE
            ]
            template = expr.func.template
            lifts.append((name, template, touched))
            if template is None:
                seeds.extend(stream for stream in touched if stream in held)
    if held and seeds:
        held -= _families(flat, seeds)
    bare: Set[str] = set()
    inline: Set[str] = set()
    for name, template, touched in lifts:
        if template is None:
            continue
        states = [stream in held for stream in touched if stream in aggregates]
        if any(states):
            bare.add(name)
        if not calls_only and all(states):
            inline.add(name)
    return frozenset(bare), frozenset(inline)


def _families(flat: FlatSpec, seeds: Iterable[str]) -> Set[str]:
    """Every stream joined to one of *seeds* by write, pass-through and
    ``last`` edges."""
    families = UnionFind(flat.streams)
    for name, expr in flat.definitions.items():
        if isinstance(expr, Last):
            families.union(name, expr.value.name)
        elif isinstance(expr, Lift):
            for arg, access in zip(expr.args, expr.func.access):
                if access is Access.WRITE or access is Access.PASS:
                    families.union(name, arg.name)
    roots = {families.find(name) for name in seeds}
    return {name for name in flat.streams if families.find(name) in roots}


def _bind_lift(
    func: LiftedFunction,
    stream: str,
    backend: Backend,
    bare: bool,
    error_policy: Optional[ErrorPolicy],
    metrics: Optional[Any],
) -> Callable[..., Any]:
    """The callable ``_f_<stream>`` names: the template over bare
    collections or the backend's implementation, instrumented and
    wrapped as the compile asks."""
    impl = func.bare_impl() if bare else func.bind(backend)
    if metrics is not None:
        from ..obs.metrics import instrument_lift

        impl = instrument_lift(
            impl, func, stream, metrics, in_place=backend in _IN_PLACE
        )
    if error_policy is not None:
        impl = wrap_lift(stream, func.name, impl, error_policy)
    return impl


class CodegenMonitorBase(MonitorBase):
    """The spec-independent half of every generated monitor.

    Subclasses are built by :func:`assemble_class` from a generated
    ``_calc_rows`` and a layout; everything else — state initialization,
    timestamp 0, the one-row ``push`` path and the batch calculation
    over :meth:`MonitorBase.feed_batch`'s rows — is here.
    """

    #: Instance attributes holding stream state, all ``None`` initially.
    STATE: Tuple[str, ...] = ()
    #: True when compiled under an error policy (the monitor then owns
    #: a live :class:`RunReport`).
    ERROR_MODE: bool = False
    #: Timestamp 0: ``(stream, kind, args)`` in translation order, kind
    #: one of ``unit``, ``time``, ``last``, ``delay``, ``merge``,
    #: ``all`` (strict lift) or ``any`` (any other lift).
    PROGRAM: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = ()
    #: Streams whose last value is kept (``_last_<name>``).
    LASTS: Tuple[str, ...] = ()
    #: ``(delay, reset, amount)`` per ``delay`` stream.
    DELAYS: Tuple[Tuple[str, str, str], ...] = ()
    #: Streams whose last value the generated ``_calc_rows`` reads and
    #: updates (its ``_last_<name>`` cells).
    CELLS: Tuple[str, ...] = ()
    #: Derived: the ``_next_<name>`` attributes of the delays.
    NEXT_ATTRS: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.NEXT_ATTRS = tuple("_next_" + d for d, _, _ in cls.DELAYS)
        cls.HAS_DELAYS = bool(cls.DELAYS)
        # the pending inputs as a row; a lone input (the common case)
        # without building a tuple of one
        cls.LONE_INPUT = cls.IN_ATTRS[0] if len(cls.IN_ATTRS) == 1 else ""
        cls._delays_of = staticmethod(_tuple_getter(cls.NEXT_ATTRS))

    def _init_state(self) -> None:
        for attr in self.STATE:
            setattr(self, attr, None)

    def _calc_rows(self, rows: Sequence[tuple], emit: Any) -> None:
        """The calculation section over *rows*, all after timestamp 0."""
        raise NotImplementedError  # pragma: no cover - generated

    def _next_delay(self) -> Optional[int]:
        if len(self.NEXT_ATTRS) == 1:
            return getattr(self, self.NEXT_ATTRS[0])
        pending = [ts for ts in self._delays_of(self) if ts is not None]
        return min(pending) if pending else None

    def _run_calc(self, ts: int) -> None:
        """One timestamp (``push``, delays): the pending inputs become a
        single row."""
        assert ts > self._done_ts
        attr = self.LONE_INPUT
        if attr:
            row = (ts, getattr(self, attr))
            setattr(self, attr, None)
        else:
            row = (ts,) + self._inputs_of(self)
            for attr in self.IN_ATTRS:
                setattr(self, attr, None)
        if ts:
            self._calc_rows((row,), self._on_output)
        else:
            self._calc0(row)
        self._done_ts = ts

    def _calc0(self, row: Sequence[Any]) -> None:
        """The calculation section at timestamp 0, from ``PROGRAM``.

        At 0 no ``last`` has a value yet and no ``delay`` is due, so
        only ``unit``, ``time``, merges and lifts can fire.
        """
        lifts = self._calc_rows.__globals__
        rep = self._report
        error_mode = self.ERROR_MODE
        values: Dict[str, Any] = dict(zip(self.INPUTS, row[1:]))
        for name, kind, args in self.PROGRAM:
            value = None
            if kind == "unit":
                value = UNIT_VALUE
            elif kind == "time":
                if values.get(args[0]) is not None:
                    value = 0
            elif kind == "merge":
                value = values.get(args[0])
                if value is None:
                    value = values.get(args[1])
            elif kind in ("all", "any"):
                operands = [values.get(arg) for arg in args]
                present = [operand is not None for operand in operands]
                if all(present) if kind == "all" else any(present):
                    func = lifts["_f_" + name]
                    if error_mode:
                        value = func(rep, 0, *operands)
                    else:
                        value = func(*operands)
            values[name] = value
        emit = self._on_output
        n_out = 0
        try:
            for name in self.OUTPUTS:
                value = values.get(name)
                if value is not None:
                    if error_mode and value.__class__ is ErrorValue:
                        rep.error_outputs += 1
                    n_out += 1
                    emit(name, 0, value)
        finally:
            rep.events_out += n_out
        for name in self.LASTS:
            value = values.get(name)
            if value is not None:
                setattr(self, "_last_" + name, value)
        for name, reset, amount in self.DELAYS:
            if values.get(reset) is not None:
                value = values.get(amount)
                if error_mode:
                    value = delay_next(rep, 0, value)
                elif value is not None:
                    value = 0 + value
                setattr(self, "_next_" + name, value)

    def _calc_batch(self, rows: List[tuple]) -> None:
        if self.HAS_DELAYS:
            self._calc_rows(self._with_delays(rows), self._on_output)
        else:
            self._calc_rows(rows, self._on_output)
            self._done_ts = rows[-1][0]

    def _with_delays(self, rows: List[tuple]) -> Iterator[tuple]:
        """*rows*, each preceded by the delay timestamps due before it,
        and then those due before the pending timestamp.

        Lazy: ``_calc_rows`` pulls a row only after it has calculated
        the previous one, so the delays it (re)armed are already in
        place when the next due one is looked up.
        """
        next_delay = self._next_delay
        blank = (None,) * len(self.INPUTS)
        pending = self._pending_ts
        for row in rows + [(pending,)] if pending is not None else rows:
            ts = row[0]
            due = next_delay()
            while due is not None and due < ts:
                self._done_ts = due
                yield (due, *blank)
                due = next_delay()
            if ts != pending:
                self._done_ts = ts
                yield row


def assemble_class(
    class_name: str,
    namespace: Dict[str, Any],
    layout: Mapping[str, Any],
    source: str,
    code: Any,
) -> type:
    """The monitor class for an exec'd ``_calc_rows`` and its *layout*."""
    return type(
        class_name,
        (CodegenMonitorBase,),
        {
            "INPUTS": tuple(layout["inputs"]),
            "OUTPUTS": tuple(layout["outputs"]),
            "STATE": tuple(layout["state"]),
            "PROGRAM": tuple(
                (name, kind, tuple(args))
                for name, kind, args in layout["program"]
            ),
            "LASTS": tuple(layout["lasts"]),
            "CELLS": tuple(layout["cells"]),
            "DELAYS": tuple(tuple(arm) for arm in layout["delays"]),
            "ERROR_MODE": bool(layout["error_mode"]),
            "_calc_rows": namespace["_calc_rows"],
            "SOURCE": source,
            "CODE": code,
            "LAYOUT": layout,
        },
    )


class CodeGenerator:
    """Builds the source text, layout and namespace for one monitor class."""

    def __init__(
        self,
        flat: FlatSpec,
        order: Sequence[str],
        backend_for: Callable[[str], Backend],
        class_name: str = "GeneratedMonitor",
        error_policy: Optional[ErrorPolicy] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self.flat = flat
        self.order = list(order)
        self.backend_for = backend_for
        self.class_name = class_name
        #: Optional :class:`repro.obs.metrics.MetricsRegistry`; when set,
        #: structure-writing lifts are wrapped with per-stream copy /
        #: in-place counters and no lift is inlined.  ``None`` (the
        #: default) installs no wrapper at all.
        self.metrics = metrics
        #: When set, the generated monitor evaluates under the hardened
        #: error semantics (see :mod:`repro.compiler.runtime`): lifts
        #: are wrapped, delay re-arms tolerate error amounts, and a
        #: per-instance :class:`RunReport` counts every fault.
        self.error_policy = error_policy
        self.namespace: Dict[str, Any] = _base_namespace(error_policy)
        self._dead_streams: Optional[Set[str]] = None
        self._lift_modes: Optional[
            Tuple[FrozenSet[str], FrozenSet[str]]
        ] = None
        if sorted(self.order) != sorted(flat.streams):
            raise CodegenError("order must enumerate exactly the spec's streams")

    # -- helpers -------------------------------------------------------------

    def _modes(self) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        """:func:`lift_modes` of this compile, computed once."""
        if self._lift_modes is None:
            self._lift_modes = lift_modes(
                self.flat,
                self.backend_for,
                self.error_policy is not None or self.metrics is not None,
            )
        return self._lift_modes

    def _bind_functions(self) -> None:
        bare = self._modes()[0]
        for name, expr in self.flat.definitions.items():
            if isinstance(expr, Lift) and expr.func.name != "merge":
                self.namespace[f"_f_{name}"] = _bind_lift(
                    expr.func,
                    name,
                    self.backend_for(name),
                    name in bare,
                    self.error_policy,
                    self.metrics,
                )

    def _dead(self) -> Set[str]:
        """Streams that fire at most at timestamp 0: ``None`` in every row
        ``_calc_rows`` sees, and so is every ``last`` they trigger."""
        if self._dead_streams is None:
            self._dead_streams = zero_only_streams(self.flat)
        return self._dead_streams

    def layout(self) -> Dict[str, Any]:
        """The class-level tables of the monitor, as JSON-ready lists."""
        flat = self.flat
        dead = self._dead()
        cells: Set[str] = set()
        program: List[List[Any]] = []
        lasts: Set[str] = set()
        delays: List[List[str]] = []
        for name in self.order:
            expr = flat.definitions.get(name)
            if expr is None or isinstance(expr, Nil):
                continue
            if isinstance(expr, UnitExpr):
                program.append([name, "unit", []])
            elif isinstance(expr, TimeExpr):
                program.append([name, "time", [expr.operand.name]])
            elif isinstance(expr, Last):
                lasts.add(expr.value.name)
                if name not in dead:
                    cells.add(expr.value.name)
                program.append([name, "last", []])
            elif isinstance(expr, Delay):
                delays.append([name, expr.reset.name, expr.delay.name])
                program.append([name, "delay", []])
            else:
                assert isinstance(expr, Lift)
                if expr.func.name == "merge":
                    kind = "merge"
                elif expr.func.pattern is EventPattern.ALL:
                    kind = "all"
                else:
                    kind = "any"
                program.append([name, kind, [arg.name for arg in expr.args]])
        inputs = list(flat.inputs)
        last_values = sorted(lasts)
        return {
            "inputs": inputs,
            "outputs": list(flat.outputs),
            "state": (
                [f"_in_{name}" for name in inputs]
                + [f"_last_{name}" for name in last_values]
                + [f"_next_{name}" for name, _, _ in delays]
            ),
            "program": program,
            "lasts": last_values,
            "cells": sorted(cells),
            "delays": delays,
            "error_mode": self.error_policy is not None,
            "bare": sorted(self._modes()[0]),
        }

    # -- assembly ------------------------------------------------------------

    def source(self) -> str:
        """The calculation section for timestamps after 0: ``_calc_rows``."""
        flat = self.flat
        for name in flat.streams:
            _check_identifier(name)
        error_mode = self.error_policy is not None
        has_delays = any(isinstance(e, Delay) for e in flat.definitions.values())
        dead = self._dead()
        inline = self._modes()[1]
        #: stream → its value expression, and its guard: the variable
        #: whose None-ness decides whether it fires, ALWAYS when it fires
        #: in every row, None when it never fires after 0
        value: Dict[str, str] = {}
        guard: Dict[str, Optional[str]] = {}
        # A row exists only for a timestamp with an input event (delay
        # timestamps aside), so a stream that fires whenever any input
        # does — a lone input, a merge of all inputs — fires in every
        # row.  covers[s]: inputs whose events alone make s fire.
        every_row = frozenset(flat.inputs) if not has_delays else None
        covers: Dict[str, FrozenSet[str]] = {}
        for name in flat.inputs:
            value[name] = f"v_{name}"
            covers[name] = frozenset((name,))
            guard[name] = _ALWAYS if covers[name] == every_row else f"v_{name}"
        for name in dead:
            value[name], guard[name] = "None", None
        loop: List[str] = []

        def operand(stream: str) -> str:
            """*stream*'s value where it may be absent (``None`` then)."""
            v = value[stream]
            if guard[stream] == _ALWAYS or v in (guard[stream], "None"):
                return v
            return f"({v} if {guard[stream]} is not None else None)"

        def when(streams: Iterable[str], joiner: str) -> str:
            """The test that all (``and``) or any (``or``) of *streams*
            fire, each guard variable tested once; empty when it always
            holds."""
            guards: List[str] = []
            for stream in streams:
                g = guard[stream]
                if g == _ALWAYS:
                    if joiner == "or":
                        return ""
                elif g is not None and g not in guards:
                    guards.append(g)
            return f" {joiner} ".join(f"{g} is not None" for g in guards)

        def guarded(test: str, expr: str) -> str:
            return f"{expr} if {test} else None" if test else expr

        lasts: Set[str] = set()
        delays: List[Tuple[str, str, str]] = []
        for name in self.order:
            expr = flat.definitions.get(name)
            if expr is None or name in dead:
                continue
            v = f"v_{name}"
            value[name] = guard[name] = v
            if isinstance(expr, TimeExpr):
                value[name], guard[name] = "ts", guard[expr.operand.name]
                covers[name] = covers.get(expr.operand.name, frozenset())
            elif isinstance(expr, Last):
                lasts.add(expr.value.name)
                test = when([expr.trigger.name], "and")
                loop.append(f"{v} = {guarded(test, f'last_{expr.value.name}')}")
            elif isinstance(expr, Delay):
                delays.append((name, expr.reset.name, expr.delay.name))
                loop.append(f"{v} = _UNIT if self._next_{name} == ts else None")
            else:
                assert isinstance(expr, Lift)
                args = [arg.name for arg in expr.args]
                live = [arg for arg in args if guard[arg] is not None]
                if expr.func.name == "merge":
                    a, b = args
                    if len(live) == 1 or guard[a] == _ALWAYS or a == b:
                        value[name], guard[name] = value[live[0]], guard[live[0]]
                    else:
                        loop.append(
                            f"{v} = {value[a]} if {guard[a]} is not None"
                            f" else {operand(b)}"
                        )
                    covers[name] = covers.get(a, frozenset()) | covers.get(
                        b, frozenset()
                    )
                    if covers[name] == every_row:
                        guard[name] = _ALWAYS
                    continue
                strict = expr.func.pattern is EventPattern.ALL
                operands = [
                    value[arg] if strict else operand(arg) for arg in args
                ]
                if name in inline:
                    # a template may repeat an operand: each is a name
                    for k, text in enumerate(operands):
                        if not text.isidentifier():
                            operands[k] = f"o_{name}_{k}"
                            loop.append(f"{operands[k]} = {text}")
                    call = expr.func.template.format(*operands)
                elif error_mode:
                    call = f"_f_{name}(rep, ts, {', '.join(operands)})"
                else:
                    call = f"_f_{name}({', '.join(operands)})"
                test = when(live, "and" if strict else "or")
                loop.append(f"{v} = {guarded(test, call)}")
        for name in flat.outputs:
            if guard[name] is None:
                continue
            test = when([name], "and")
            emit = [f"n_out += 1; emit({name!r}, ts, {value[name]})"]
            if error_mode:
                emit.insert(
                    0,
                    f"if {value[name]}.__class__ is _ERR: rep.error_outputs += 1",
                )
            if not test:
                loop.extend(emit)
            elif len(emit) == 1:
                loop.append(f"if {test}: {emit[0]}")
            else:
                loop.append(f"if {test}:")
                loop.extend("    " + line for line in emit)
        # store last values for the next timestamps
        for name in sorted(lasts):
            if guard[name] is not None:
                test = when([name], "and")
                store = f"last_{name} = {value[name]}"
                loop.append(f"if {test}: {store}" if test else store)
        # schedule delays (paper §III-B): reset on reset-stream event or
        # own event; the delay amount is read at the reset timestamp
        for name, reset, amount in delays:
            if error_mode:
                arm = f"_delay_next(rep, ts, {operand(amount)})"
            elif guard[amount] is not None:
                arm = guarded(when([amount], "and"), f"ts + {value[amount]}")
            else:
                arm = "None"
            loop.append(f"if {when((reset, name), 'or')}: self._next_{name} = {arm}")

        # the last-value cells live in locals while the rows run; the
        # outputs are counted in a local, written back however the
        # loop ends (the callback may raise)
        cells = sorted(lasts)
        emitting = any(guard[name] is not None for name in flat.outputs)
        body = ["rep = self._report"] if error_mode else []
        body.extend(f"last_{name} = self._last_{name}" for name in cells)
        row = ", ".join(["ts"] + [f"v_{name}" for name in flat.inputs])
        rows_loop = [f"for {row}{',' if not flat.inputs else ''} in rows:"]
        rows_loop.extend("    " + line for line in loop or ["pass"])
        if emitting:
            body.extend(["n_out = 0", "try:"])
            body.extend("    " + line for line in rows_loop)
            body.extend(["finally:", "    self._report.events_out += n_out"])
        else:
            body.extend(rows_loop)
        body.extend(f"self._last_{name} = last_{name}" for name in cells)
        return "def _calc_rows(self, rows, emit):\n" + "".join(
            f"    {line}\n" for line in body
        )

    def compile(self) -> type:
        """Exec the generated source; return the monitor class."""
        self._bind_functions()
        source = self.source()
        code = compile(source, "<generated monitor>", "exec")
        exec(code, self.namespace)
        return assemble_class(
            self.class_name, self.namespace, self.layout(), source, code
        )


def _base_namespace(error_policy: Optional[ErrorPolicy]) -> Dict[str, Any]:
    """The runtime symbols every generated module refers to."""
    namespace: Dict[str, Any] = {"_UNIT": UNIT_VALUE, **TEMPLATE_GLOBALS}
    if error_policy is not None:
        namespace["_ERR"] = ErrorValue
        namespace["_delay_next"] = delay_next
    return namespace


def generate_monitor_class(
    flat: FlatSpec,
    order: Sequence[str],
    backends: Mapping[str, Backend],
    default_backend: Backend = Backend.PERSISTENT,
    class_name: str = "GeneratedMonitor",
    error_policy: Optional[ErrorPolicy] = None,
    metrics: Optional[Any] = None,
) -> type:
    """Generate and compile a monitor class.

    ``backends`` maps stream names to collection backends; unknown
    streams use *default_backend*.  ``error_policy`` switches on the
    hardened error-propagating evaluation (``None`` compiles none of
    it).  ``metrics`` threads a registry into the lift bindings for
    per-stream copy/in-place counting; both keep every lift a call.
    """
    generator = CodeGenerator(
        flat,
        order,
        lambda name: backends.get(name, default_backend),
        class_name,
        error_policy=error_policy,
        metrics=metrics,
    )
    return generator.compile()


def _exec_code(namespace: Dict[str, Any], code_blob: bytes) -> Optional[Any]:
    """Unmarshal and exec a cached module into *namespace*; ``None``
    when the blob is not the expected module."""
    import marshal

    try:
        code = marshal.loads(code_blob)
        exec(code, namespace)
    except (ValueError, EOFError, TypeError, SyntaxError, NameError):
        return None
    if not callable(namespace.get("_calc_rows")):
        return None
    return code


def monitor_class_from_code(
    flat: FlatSpec,
    order: Sequence[str],
    backends: Mapping[str, Backend],
    source: str,
    code_blob: bytes,
    default_backend: Backend = Backend.PERSISTENT,
    class_name: str = "GeneratedMonitor",
    error_policy: Optional[ErrorPolicy] = None,
    metrics: Optional[Any] = None,
) -> Optional[type]:
    """Rebuild a monitor class from a cached marshal'd code object.

    The expensive half of code generation is ``builtins.compile`` on
    the generated source; a plan-cache entry that carries the code
    object (``.pyc``-style, validated against the interpreter magic
    number by the cache layer) skips both source assembly and
    recompilation.  Only the namespace — lift callables bound to the
    per-stream backends — and the layout are rebuilt here.  Returns
    ``None`` when the blob does not unmarshal to the expected module
    (the caller falls back to full generation).
    """
    generator = CodeGenerator(
        flat,
        order,
        lambda name: backends.get(name, default_backend),
        class_name,
        error_policy=error_policy,
        metrics=metrics,
    )
    generator._bind_functions()
    code = _exec_code(generator.namespace, code_blob)
    if code is None:
        return None
    return assemble_class(
        class_name, generator.namespace, generator.layout(), source, code
    )


#: Constant types a lift recipe can carry, by their printed name.
_CONST_TYPES = {str(t): t for t in (INT, FLOAT, BOOL, STR)}


def lift_recipe(flat: FlatSpec) -> Optional[Dict[str, Any]]:
    """stream → recipe for every lifted function in *flat*.

    A recipe is the registry name of a builtin, or ``["const", value,
    type]`` for a lifted constant (:func:`~repro.lang.builtins.const_fn`)
    whose value is an int, float, bool or str.  ``None`` when any other
    lift appears (e.g. an ad-hoc
    :class:`~repro.lang.builtins.LiftedFunction`) — a name-based recipe
    could then rebind the wrong implementation, so such specs are
    excluded from the text-keyed fast path.
    """
    from ..lang.builtins import REGISTRY

    lifts: Dict[str, Any] = {}
    for name, expr in flat.definitions.items():
        if not isinstance(expr, Lift) or expr.func.name == "merge":
            continue
        func = expr.func
        if func.constant is not None:
            value, value_type = func.constant
            if type(value) not in (int, float, bool, str) or (
                _CONST_TYPES.get(str(value_type)) != value_type
            ):
                return None
            lifts[name] = ["const", value, str(value_type)]
        elif REGISTRY.get(func.name) is func:
            lifts[name] = func.name
        else:
            return None
    return lifts


def _recipe_function(recipe: Any) -> LiftedFunction:
    """The lifted function a :func:`lift_recipe` entry stands for
    (``KeyError`` when it names nothing)."""
    from ..lang.builtins import builtin, const_fn

    if isinstance(recipe, str):
        return builtin(recipe)
    tag, value, type_name = recipe
    if (
        tag != "const"
        or type(value) not in (int, float, bool, str)
        or type_name not in _CONST_TYPES
    ):
        raise KeyError(f"bad lift recipe {recipe!r}")
    return const_fn(value, _CONST_TYPES[type_name])


def monitor_class_from_recipe(
    lifts: Mapping[str, Any],
    backends: Mapping[str, Backend],
    source: str,
    code_blob: bytes,
    layout: Mapping[str, Any],
    default_backend: Backend = Backend.PERSISTENT,
    class_name: str = "GeneratedMonitor",
    error_policy: Optional[ErrorPolicy] = None,
    metrics: Optional[Any] = None,
) -> Optional[type]:
    """Rebuild a monitor class without the flat specification.

    The text-keyed plan-cache fast path: the generated module's
    namespace only needs the per-stream lift callables (resolvable from
    their recipes + backend) and a handful of runtime symbols, and the
    class tables come from the cached *layout*, so a warm hit skips the
    frontend entirely.  Returns ``None`` on any mismatch; the caller
    falls back to parsing and full generation.
    """
    namespace = _base_namespace(error_policy)
    try:
        bare = frozenset(layout["bare"])
        for stream, recipe in lifts.items():
            namespace[f"_f_{stream}"] = _bind_lift(
                _recipe_function(recipe),
                stream,
                backends.get(stream, default_backend),
                stream in bare,
                error_policy,
                metrics,
            )
        code = _exec_code(namespace, code_blob)
        if code is None:
            return None
        return assemble_class(
            class_name,
            namespace,
            dict(layout, error_mode=error_policy is not None),
            source,
            code,
        )
    except (KeyError, ValueError, TypeError):
        return None
