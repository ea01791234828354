"""Lifted functions: the value-level vocabulary of specifications.

Every ``lift`` carries a :class:`LiftedFunction`, which bundles

* the runtime implementation (over ``None`` as the no-event value ⊥),
* the **event pattern** — whether the lift produces an event iff *all*
  inputs have one (arithmetic, data-structure ops), iff *any* input has
  one (``merge``), or something custom (``filter``).  The pattern feeds
  the triggering-behaviour approximation ``ev'`` (paper §IV-C, which
  distinguishes exactly the ALL and ANY groups and treats the rest as
  formula atoms);
* the per-argument **access class** — whether the function Writes,
  Reads, Passes-through or does not touch the argument's value.  This
  feeds the edge classification of the usage graph (paper §IV-A,
  Def. 3);
* a polymorphic type **signature** for type checking/inference;
* for registered builtins, a Python expression **template** over bare
  ``set``/``dict``/``deque``/``list`` values, which the code generator
  inlines for certified-mutable families.

Data-structure constructors additionally take the collection *backend*
(mutable vs. persistent) at bind time — the single point where the
mutability analysis influences runtime behaviour.

Invariant: stream values are never Python ``None``; ``None`` uniformly
encodes ⊥ (no event) in implementations and in generated monitors.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..structures import Backend, empty_map, empty_queue, empty_set, empty_vector
from ..structures.interface import EmptyCollectionError
from . import types as ty
from .types import (
    BOOL,
    FLOAT,
    INT,
    STR,
    TIME,
    UNIT,
    MapType,
    QueueType,
    SetType,
    Type,
    TypeVar,
    VectorType,
)


#: Names the :attr:`LiftedFunction.template` expressions use beyond
#: Python's builtins; every namespace a template runs in includes them.
TEMPLATE_GLOBALS: Dict[str, Any] = {"_deque": deque}


class EventPattern(enum.Enum):
    """When a lifted function produces an event (paper §IV-C)."""

    #: Event iff **all** argument streams have an event (``+``, ``*``, ...).
    ALL = "all"
    #: Event iff **any** argument stream has an event (``merge``).
    ANY = "any"
    #: Anything else; the triggering analysis treats the stream as an atom.
    CUSTOM = "custom"


class Access(enum.Enum):
    """How a lifted function touches one argument (paper §IV-A, Def. 3)."""

    #: The argument's value is not an aggregate / is not inspected.
    NONE = "none"
    #: Read access to the current value.
    READ = "read"
    #: Write (modifying) access to the current value.
    WRITE = "write"
    #: The value may be handed through to the result unchanged.
    PASS = "pass"


#: Trigger specs describe *exactly* when a lifted function produces an
#: event, as a positive boolean combination of argument presences:
#: an ``int`` is an argument index ("argument i has an event"),
#: ``("and", s1, s2, ...)`` / ``("or", s1, s2, ...)`` combine sub-specs.
#: ``None`` means "not expressible" — the triggering analysis then treats
#: the stream as an opaque atom (paper §IV-C, last rule).
TriggerSpec = Any


class LiftedFunction:
    """A function that can be lifted over streams.

    ``make_impl(backend)`` yields the concrete callable; most functions
    ignore the backend, constructors use it to pick the collection
    family.  Under pattern ``ALL`` the callable only runs when every
    argument is present; under ``ANY``/``CUSTOM`` it receives ``None``
    for absent arguments and may return ``None`` for "no event".

    For ``CUSTOM`` functions an optional *trigger* spec states exactly
    when an event is produced; it must be exact (not an approximation),
    otherwise the triggering analysis — and with it the mutability
    analysis — would be unsound.
    """

    __slots__ = (
        "name",
        "pattern",
        "access",
        "arg_types",
        "result_type",
        "make_impl",
        "custom_trigger",
        "template",
        "metric_name",
        "constant",
        "_type_vars",
        "_bare",
    )

    def __init__(
        self,
        name: str,
        pattern: EventPattern,
        access: Sequence[Access],
        arg_types: Sequence[Type],
        result_type: Type,
        make_impl: Callable[[Backend], Callable[..., Any]],
        custom_trigger: TriggerSpec = None,
        metric_name: Optional[str] = None,
    ) -> None:
        if len(access) != len(arg_types):
            raise ValueError(f"{name}: access/arity mismatch")
        self.name = name
        self.pattern = pattern
        self.access = tuple(access)
        self.arg_types = tuple(arg_types)
        self.result_type = result_type
        self.make_impl = make_impl
        self.custom_trigger = custom_trigger
        #: Python expression of the function over *bare* collections
        #: (``set``/``dict``/``deque``/``list``, see
        #: :func:`bare_impl`): ``{0}``, ``{1}``, ... stand for the
        #: arguments, each a plain name, and may repeat.  Registered
        #: builtins have one (``_TEMPLATES``); ad-hoc lifts do not.
        self.template: Optional[str] = None
        #: Optional counter name bumped per invocation when the monitor
        #: runs instrumented (see :func:`repro.obs.metrics.instrument_lift`).
        self.metric_name = metric_name
        #: ``(value, value_type)`` for the lifted constants built by
        #: :func:`const_fn`, else ``None``.
        self.constant: Optional[Tuple[Any, Type]] = None
        self._type_vars: Optional[Tuple[TypeVar, ...]] = None
        self._bare: Optional[Callable[..., Any]] = None

    @property
    def trigger(self) -> TriggerSpec:
        """The exact trigger spec, or ``None`` for value-dependent events."""
        if self.pattern is EventPattern.ALL:
            return ("and", *range(self.arity))
        if self.pattern is EventPattern.ANY:
            return ("or", *range(self.arity))
        return self.custom_trigger

    @property
    def arity(self) -> int:
        return len(self.arg_types)

    def bind(self, backend: Backend) -> Callable[..., Any]:
        """Return the runtime callable for the given collection backend."""
        return self.make_impl(backend)

    def bare_impl(self) -> Callable[..., Any]:
        """The :attr:`template` as a callable over bare collections.

        Built once per function and process, so compiles that bind it
        (timestamp 0, error policies, metrics) pay no ``eval``.
        """
        if self._bare is None:
            params = [f"a{k}" for k in range(self.arity)]
            self._bare = eval(
                f"lambda {', '.join(params)}: {self.template.format(*params)}",
                dict(TEMPLATE_GLOBALS),
            )
        return self._bare

    def instantiate(self, suffix: str) -> Tuple[Tuple[Type, ...], Type]:
        """Return (argument types, result type) with fresh type variables."""
        if self._type_vars is None:
            self._type_vars = tuple(
                dict.fromkeys(
                    var
                    for ty_ in self.arg_types + (self.result_type,)
                    for var in ty.type_vars(ty_)
                )
            )
        if not self._type_vars:
            return self.arg_types, self.result_type
        binding: Dict[TypeVar, Type] = {
            var: TypeVar(f"{var.name}#{suffix}") for var in self._type_vars
        }
        args = tuple(ty.substitute(t, binding) for t in self.arg_types)
        return args, ty.substitute(self.result_type, binding)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LiftedFunction) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("lifted", self.name))

    def __repr__(self) -> str:
        return f"LiftedFunction({self.name!r})"


REGISTRY: Dict[str, LiftedFunction] = {}


def register(func: LiftedFunction) -> LiftedFunction:
    """Add *func* to the global registry (used by frontend name lookup)."""
    if func.name in REGISTRY:
        raise ValueError(f"builtin {func.name!r} already registered")
    REGISTRY[func.name] = func
    return func


def builtin(name: str) -> LiftedFunction:
    """Look up a registered lifted function by name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown builtin {name!r}") from None


def _simple(fn: Callable[..., Any]) -> Callable[[Backend], Callable[..., Any]]:
    """Implementation factory for backend-independent functions."""
    return lambda backend: fn


def _define(
    name: str,
    pattern: EventPattern,
    access: Sequence[Access],
    arg_types: Sequence[Type],
    result_type: Type,
    fn: Callable[..., Any],
) -> LiftedFunction:
    return register(
        LiftedFunction(name, pattern, access, arg_types, result_type, _simple(fn))
    )


_A = TypeVar("a")
_K = TypeVar("k")
_V = TypeVar("v")

_N = Access.NONE
_R = Access.READ
_W = Access.WRITE
_P = Access.PASS

# ---------------------------------------------------------------------------
# Scalar arithmetic / logic (pattern ALL)
# ---------------------------------------------------------------------------

ADD = _define("add", EventPattern.ALL, (_N, _N), (INT, INT), INT, lambda a, b: a + b)
SUB = _define("sub", EventPattern.ALL, (_N, _N), (INT, INT), INT, lambda a, b: a - b)
MUL = _define("mul", EventPattern.ALL, (_N, _N), (INT, INT), INT, lambda a, b: a * b)
DIV = _define(
    "div", EventPattern.ALL, (_N, _N), (INT, INT), INT, lambda a, b: a // b
)
MOD = _define("mod", EventPattern.ALL, (_N, _N), (INT, INT), INT, lambda a, b: a % b)
NEG = _define("neg", EventPattern.ALL, (_N,), (INT,), INT, lambda a: -a)
ABS = _define("abs", EventPattern.ALL, (_N,), (INT,), INT, abs)

FADD = _define(
    "fadd", EventPattern.ALL, (_N, _N), (FLOAT, FLOAT), FLOAT, lambda a, b: a + b
)
FSUB = _define(
    "fsub", EventPattern.ALL, (_N, _N), (FLOAT, FLOAT), FLOAT, lambda a, b: a - b
)
FMUL = _define(
    "fmul", EventPattern.ALL, (_N, _N), (FLOAT, FLOAT), FLOAT, lambda a, b: a * b
)
FDIV = _define(
    "fdiv", EventPattern.ALL, (_N, _N), (FLOAT, FLOAT), FLOAT, lambda a, b: a / b
)
FABS = _define("fabs", EventPattern.ALL, (_N,), (FLOAT,), FLOAT, abs)
TO_FLOAT = _define(
    "to_float", EventPattern.ALL, (_N,), (INT,), FLOAT, float
)
ROUND = _define("round", EventPattern.ALL, (_N,), (FLOAT,), INT, round)

EQ = _define(
    "eq", EventPattern.ALL, (_R, _R), (_A, _A), BOOL, lambda a, b: a == b
)
NEQ = _define(
    "neq", EventPattern.ALL, (_R, _R), (_A, _A), BOOL, lambda a, b: a != b
)
LT = _define("lt", EventPattern.ALL, (_N, _N), (_A, _A), BOOL, lambda a, b: a < b)
LEQ = _define("leq", EventPattern.ALL, (_N, _N), (_A, _A), BOOL, lambda a, b: a <= b)
GT = _define("gt", EventPattern.ALL, (_N, _N), (_A, _A), BOOL, lambda a, b: a > b)
GEQ = _define("geq", EventPattern.ALL, (_N, _N), (_A, _A), BOOL, lambda a, b: a >= b)

AND = _define(
    "and", EventPattern.ALL, (_N, _N), (BOOL, BOOL), BOOL, lambda a, b: a and b
)
OR = _define(
    "or", EventPattern.ALL, (_N, _N), (BOOL, BOOL), BOOL, lambda a, b: a or b
)
NOT = _define("not", EventPattern.ALL, (_N,), (BOOL,), BOOL, lambda a: not a)

ITE = _define(
    "ite",
    EventPattern.ALL,
    (_N, _P, _P),
    (BOOL, _A, _A),
    _A,
    lambda c, a, b: a if c else b,
)
MIN = _define(
    "min", EventPattern.ALL, (_P, _P), (_A, _A), _A, lambda a, b: a if a <= b else b
)
MAX = _define(
    "max", EventPattern.ALL, (_P, _P), (_A, _A), _A, lambda a, b: a if a >= b else b
)

STR_CONCAT = _define(
    "str_concat", EventPattern.ALL, (_N, _N), (STR, STR), STR, lambda a, b: a + b
)
TO_STR = _define(
    "to_str", EventPattern.ALL, (_R,), (_A,), STR, str
)

# ---------------------------------------------------------------------------
# Stream combinators
# ---------------------------------------------------------------------------

MERGE = _define(
    "merge",
    EventPattern.ANY,
    (_P, _P),
    (_A, _A),
    _A,
    lambda a, b: a if a is not None else b,
)

FILTER = _define(
    "filter",
    EventPattern.CUSTOM,
    (_P, _N),
    (_A, BOOL),
    _A,
    lambda v, c: v if (v is not None and c is not None and c) else None,
)

#: Pass the first argument's event only where the second also has one.
AT = register(
    LiftedFunction(
        "at",
        EventPattern.CUSTOM,
        (_P, _N),
        (_A, _V),
        _A,
        _simple(lambda v, t: v if (v is not None and t is not None) else None),
        custom_trigger=("and", 0, 1),
    )
)


def pointwise(
    name: str,
    fn: Callable[..., Any],
    arg_types: Sequence[Type],
    result_type: Type,
    access: Optional[Sequence[Access]] = None,
    metric_name: Optional[str] = None,
) -> LiftedFunction:
    """Create an ad-hoc (unregistered) strict lifted function.

    The idiomatic way to lift a plain Python function with baked-in
    constants — e.g. ``pointwise("mod8", lambda x: x % 8, (INT,), INT)``
    — instead of routing constants through single-event constant streams
    (which would starve ALL-pattern lifts after timestamp 0).
    """
    if access is None:
        access = tuple(_R if t.is_complex else _N for t in arg_types)
    return LiftedFunction(
        name,
        EventPattern.ALL,
        access,
        arg_types,
        result_type,
        _simple(fn),
        metric_name=metric_name,
    )


def const_fn(value: Any, value_type: Optional[Type] = None) -> LiftedFunction:
    """A lifted constant: maps any event (usually ``unit``) to *value*.

    Not registered by name — every constant gets its own instance, used
    by the desugaring of :class:`repro.lang.ast.Const`.
    """
    result = value_type if value_type is not None else ty.type_of_value(value)
    func = LiftedFunction(
        f"const({value!r})",
        EventPattern.ALL,
        (_N,),
        (UNIT,),
        result,
        _simple(lambda _u, _value=value: _value),
    )
    func.constant = (value, result)
    return func


# ---------------------------------------------------------------------------
# Aggregate constructors (backend-sensitive)
# ---------------------------------------------------------------------------


def _constructor(
    name: str, result_type: Type, factory: Callable[[Backend], Any]
) -> LiftedFunction:
    return register(
        LiftedFunction(
            name,
            EventPattern.ALL,
            (_N,),
            (UNIT,),
            result_type,
            lambda backend: (lambda _u, _b=backend: factory(_b)),
        )
    )


SET_EMPTY = _constructor("set_empty", SetType(_A), empty_set)
MAP_EMPTY = _constructor("map_empty", MapType(_K, _V), empty_map)
QUEUE_EMPTY = _constructor("queue_empty", QueueType(_A), empty_queue)
VEC_EMPTY = _constructor("vec_empty", VectorType(_A), empty_vector)

# ---------------------------------------------------------------------------
# Set operations
# ---------------------------------------------------------------------------

SET_ADD = _define(
    "set_add",
    EventPattern.ALL,
    (_W, _N),
    (SetType(_A), _A),
    SetType(_A),
    lambda s, x: s.add(x),
)
SET_REMOVE = _define(
    "set_remove",
    EventPattern.ALL,
    (_W, _N),
    (SetType(_A), _A),
    SetType(_A),
    lambda s, x: s.remove(x),
)
SET_TOGGLE = _define(
    "set_toggle",
    EventPattern.ALL,
    (_W, _N),
    (SetType(_A), _A),
    SetType(_A),
    lambda s, x: s.remove(x) if x in s else s.add(x),
)
SET_CONTAINS = _define(
    "set_contains",
    EventPattern.ALL,
    (_R, _N),
    (SetType(_A), _A),
    BOOL,
    lambda s, x: x in s,
)
SET_SIZE = _define(
    "set_size", EventPattern.ALL, (_R,), (SetType(_A),), INT, len
)

# ---------------------------------------------------------------------------
# Map operations
# ---------------------------------------------------------------------------

MAP_PUT = _define(
    "map_put",
    EventPattern.ALL,
    (_W, _N, _N),
    (MapType(_K, _V), _K, _V),
    MapType(_K, _V),
    lambda m, k, v: m.put(k, v),
)
MAP_REMOVE = _define(
    "map_remove",
    EventPattern.ALL,
    (_W, _N),
    (MapType(_K, _V), _K),
    MapType(_K, _V),
    lambda m, k: m.remove(k),
)
MAP_GET_OR = _define(
    "map_get_or",
    EventPattern.ALL,
    (_R, _N, _N),
    (MapType(_K, _V), _K, _V),
    _V,
    lambda m, k, d: m.get(k, d),
)
MAP_CONTAINS = _define(
    "map_contains",
    EventPattern.ALL,
    (_R, _N),
    (MapType(_K, _V), _K),
    BOOL,
    lambda m, k: k in m,
)
MAP_SIZE = _define(
    "map_size", EventPattern.ALL, (_R,), (MapType(_K, _V),), INT, len
)

# ---------------------------------------------------------------------------
# Queue operations
# ---------------------------------------------------------------------------


def _queue_front_or(q: Any, default: Any) -> Any:
    try:
        return q.front()
    except EmptyCollectionError:
        return default


QUEUE_ENQ = _define(
    "queue_enq",
    EventPattern.ALL,
    (_W, _N),
    (QueueType(_A), _A),
    QueueType(_A),
    lambda q, x: q.enqueue(x),
)
QUEUE_DEQ = _define(
    "queue_deq",
    EventPattern.ALL,
    (_W,),
    (QueueType(_A),),
    QueueType(_A),
    lambda q: q.dequeue() if len(q) else q,
)
QUEUE_FRONT_OR = _define(
    "queue_front_or",
    EventPattern.ALL,
    (_R, _N),
    (QueueType(_A), _A),
    _A,
    _queue_front_or,
)
QUEUE_SIZE = _define(
    "queue_size", EventPattern.ALL, (_R,), (QueueType(_A),), INT, len
)

# ---------------------------------------------------------------------------
# Vector operations
# ---------------------------------------------------------------------------


def _vec_get_or(v: Any, index: int, default: Any) -> Any:
    try:
        return v.get(index)
    except EmptyCollectionError:
        return default


VEC_APPEND = _define(
    "vec_append",
    EventPattern.ALL,
    (_W, _N),
    (VectorType(_A), _A),
    VectorType(_A),
    lambda v, x: v.append(x),
)
VEC_SET = _define(
    "vec_set",
    EventPattern.ALL,
    (_W, _N, _N),
    (VectorType(_A), INT, _A),
    VectorType(_A),
    lambda v, i, x: v.set(i, x) if 0 <= i < len(v) else v,
)
VEC_GET_OR = _define(
    "vec_get_or",
    EventPattern.ALL,
    (_R, _N, _N),
    (VectorType(_A), INT, _A),
    _A,
    _vec_get_or,
)
VEC_SIZE = _define(
    "vec_size", EventPattern.ALL, (_R,), (VectorType(_A),), INT, len
)

# ---------------------------------------------------------------------------
# Conditional in-place updates
# ---------------------------------------------------------------------------
#
# These produce an event whenever the *structure* argument has one and
# modify it only when the condition/key arguments are present (or true).
# In the unchanged case the same structure flows through the single Write
# edge unmodified — which is sound for in-place backends because writing
# nothing and passing the object on are indistinguishable.  They exist so
# that multi-trigger monitors (update on stream A, read on stream B) can
# keep the single-write shape of the paper's Fig. 1 instead of a
# conditional `ite` pass that would alias the structure to two targets.

QUEUE_DEQ_IF = _define(
    "queue_deq_if",
    EventPattern.ALL,
    (_W, _N),
    (QueueType(_A), BOOL),
    QueueType(_A),
    lambda q, c: q.dequeue() if (c and len(q)) else q,
)

SET_ADD_IF = _define(
    "set_add_if",
    EventPattern.ALL,
    (_W, _N, _N),
    (SetType(_A), _A, BOOL),
    SetType(_A),
    lambda s, x, c: s.add(x) if c else s,
)

MAP_PUT_IF = register(
    LiftedFunction(
        "map_put_if",
        EventPattern.CUSTOM,
        (_W, _N, _N),
        (MapType(_K, _V), _K, _V),
        MapType(_K, _V),
        _simple(
            lambda m, k, v: (
                None if m is None else (m if (k is None or v is None) else m.put(k, v))
            )
        ),
        custom_trigger=0,
    )
)


def _set_update_if(s: Any, add: Any, remove: Any) -> Any:
    if s is None:
        return None
    if add is not None:
        s = s.add(add)
    if remove is not None:
        s = s.remove(remove)
    return s


SET_UPDATE_IF = register(
    LiftedFunction(
        "set_update_if",
        EventPattern.CUSTOM,
        (_W, _N, _N),
        (SetType(_A), _A, _A),
        SetType(_A),
        _simple(_set_update_if),
        custom_trigger=0,
    )
)

# ---------------------------------------------------------------------------
# Write-then-read fusions (OPT008)
# ---------------------------------------------------------------------------
#
# ``r(w(a, xs...), ys...)`` where the written aggregate is only read:
# one Read-class builtin over the *unwritten* aggregate yields the same
# value, so the write — and the copy it forces on a persistent backend —
# disappears.  ALL∘ALL keeps the clock: the fused lift fires iff ``a``,
# ``xs`` and ``ys`` all do.  They are registered so the text-keyed
# plan-cache recipe path can resolve them by name.

SET_SIZE_AFTER_ADD = _define(
    "set_size_after_add",
    EventPattern.ALL,
    (_R, _N),
    (SetType(_A), _A),
    INT,
    lambda s, x: len(s) + (0 if x in s else 1),
)
SET_CONTAINS_AFTER_ADD = _define(
    "set_contains_after_add",
    EventPattern.ALL,
    (_R, _N, _N),
    (SetType(_A), _A, _A),
    BOOL,
    lambda s, x, y: y == x or y in s,
)
MAP_GET_OR_AFTER_PUT = _define(
    "map_get_or_after_put",
    EventPattern.ALL,
    (_R, _N, _N, _N, _N),
    (MapType(_K, _V), _K, _V, _K, _V),
    _V,
    lambda m, k, v, k2, d: v if k2 == k else m.get(k2, d),
)
QUEUE_SIZE_AFTER_ENQ = _define(
    "queue_size_after_enq",
    EventPattern.ALL,
    (_R, _N),
    (QueueType(_A), _A),
    INT,
    lambda q, x: len(q) + 1,
)

#: ``(write, read) → fused``: ``fused(a, xs..., ys...)`` equals
#: ``read(write(a, xs...), ys...)`` on every backend.
FUSIONS: Dict[Tuple[str, str], LiftedFunction] = {
    ("set_add", "set_size"): SET_SIZE_AFTER_ADD,
    ("set_add", "set_contains"): SET_CONTAINS_AFTER_ADD,
    ("map_put", "map_get_or"): MAP_GET_OR_AFTER_PUT,
    ("queue_enq", "queue_size"): QUEUE_SIZE_AFTER_ENQ,
}

# ---------------------------------------------------------------------------
# Python templates over bare collections
# ---------------------------------------------------------------------------
#
# What each builtin does to a bare ``set``/``dict``/``deque``/``list``
# (the representation of certified-mutable families, see
# :mod:`repro.compiler.codegen`), as an expression the code generator
# inlines.  Writes update in place and evaluate to the collection, like
# the mutable wrappers' methods.  The non-strict functions receive
# ``None`` for absent arguments, as their implementations do.

_TEMPLATES: Dict[str, str] = {
    "add": "({0} + {1})",
    "sub": "({0} - {1})",
    "mul": "({0} * {1})",
    "div": "({0} // {1})",
    "mod": "({0} % {1})",
    "neg": "(-{0})",
    "abs": "abs({0})",
    "fadd": "({0} + {1})",
    "fsub": "({0} - {1})",
    "fmul": "({0} * {1})",
    "fdiv": "({0} / {1})",
    "fabs": "abs({0})",
    "to_float": "float({0})",
    "round": "round({0})",
    "eq": "({0} == {1})",
    "neq": "({0} != {1})",
    "lt": "({0} < {1})",
    "leq": "({0} <= {1})",
    "gt": "({0} > {1})",
    "geq": "({0} >= {1})",
    "and": "({0} and {1})",
    "or": "({0} or {1})",
    "not": "(not {0})",
    "ite": "({1} if {0} else {2})",
    "min": "({0} if {0} <= {1} else {1})",
    "max": "({0} if {0} >= {1} else {1})",
    "str_concat": "({0} + {1})",
    "to_str": "str({0})",
    "merge": "({0} if {0} is not None else {1})",
    "filter": "({0} if {0} is not None and {1} is not None and {1} else None)",
    "at": "({0} if {0} is not None and {1} is not None else None)",
    "set_empty": "set()",
    "map_empty": "dict()",
    "queue_empty": "_deque()",
    "vec_empty": "list()",
    "set_add": "({0}.add({1}) or {0})",
    "set_remove": "({0}.discard({1}) or {0})",
    "set_toggle": "(({0}.discard({1}) if {1} in {0} else {0}.add({1})) or {0})",
    "set_contains": "({1} in {0})",
    "set_size": "len({0})",
    "map_put": "({0}.__setitem__({1}, {2}) or {0})",
    "map_remove": "({0}.pop({1}, None), {0})[1]",
    "map_get_or": "{0}.get({1}, {2})",
    "map_contains": "({1} in {0})",
    "map_size": "len({0})",
    "queue_enq": "({0}.append({1}) or {0})",
    "queue_deq": "(({0}.popleft(), {0})[1] if {0} else {0})",
    "queue_front_or": "({0}[0] if {0} else {1})",
    "queue_size": "len({0})",
    "vec_append": "({0}.append({1}) or {0})",
    "vec_set": "(({0}.__setitem__({1}, {2}) or {0}) if 0 <= {1} < len({0}) else {0})",
    "vec_get_or": "({0}[{1}] if 0 <= {1} < len({0}) else {2})",
    "vec_size": "len({0})",
    "queue_deq_if": "(({0}.popleft(), {0})[1] if {1} and {0} else {0})",
    "set_add_if": "(({0}.add({1}) or {0}) if {2} else {0})",
    "map_put_if": (
        "(None if {0} is None else {0} if {1} is None or {2} is None"
        " else ({0}.__setitem__({1}, {2}) or {0}))"
    ),
    "set_update_if": (
        "(None if {0} is None else ({0}.add({1}) if {1} is not None else None,"
        " {0}.discard({2}) if {2} is not None else None, {0})[2])"
    ),
    "set_size_after_add": "(len({0}) + (0 if {1} in {0} else 1))",
    "set_contains_after_add": "({2} == {1} or {2} in {0})",
    "map_get_or_after_put": "({2} if {3} == {1} else {0}.get({3}, {4}))",
    "queue_size_after_enq": "(len({0}) + 1)",
}
for _name, _template in _TEMPLATES.items():
    REGISTRY[_name].template = _template
del _name, _template

# TIME is currently interchangeable with INT in signatures; expose an
# explicit alias so specs reading timestamps type-check descriptively.
_ = TIME
