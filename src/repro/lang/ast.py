"""Expression AST for TeSSLa specifications.

The six basic operators of the paper (§II) — ``nil``, ``unit``,
``time``, ``lift``, ``last``, ``delay`` — plus stream references and the
syntactic sugar the paper introduces (constants as single-event streams,
``merge``, ``default``).  Sugar is eliminated by
:mod:`repro.lang.flatten` before any analysis runs.

All nodes are immutable and hashable so that flattening can perform
common-subexpression deduplication structurally.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Tuple, TYPE_CHECKING

from .types import Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .builtins import LiftedFunction


class Expr:
    """Base class of all expression nodes."""

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def __repr__(self) -> str:
        return str(self)


class Var(Expr):
    """Reference to a named input or defined stream."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("var", self.name))


class Nil(Expr):
    """The empty stream with no events; carries its element type."""

    __slots__ = ("type",)

    def __init__(self, type: Type) -> None:
        self.type = type

    def __str__(self) -> str:
        return f"nil[{self.type}]"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Nil) and other.type == self.type

    def __hash__(self) -> int:
        return hash(("nil", self.type))


class UnitExpr(Expr):
    """A single unit-valued event at timestamp 0."""

    __slots__ = ()

    def __str__(self) -> str:
        return "unit"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UnitExpr)

    def __hash__(self) -> int:
        return hash("unit")


class TimeExpr(Expr):
    """Events of the operand with the timestamp as value."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"time({self.operand})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TimeExpr) and other.operand == self.operand

    def __hash__(self) -> int:
        return hash(("time", self.operand))


class Lift(Expr):
    """Apply a lifted function pointwise to the argument streams."""

    __slots__ = ("func", "args")

    def __init__(self, func: "LiftedFunction", args: Tuple[Expr, ...]) -> None:
        self.func = func
        self.args = tuple(args)

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"lift({self.func.name})({inner})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Lift)
            and other.func == self.func
            and other.args == self.args
        )

    def __hash__(self) -> int:
        return hash(("lift", self.func, self.args))


class Last(Expr):
    """Strictly-last value of ``value``, sampled at events of ``trigger``."""

    __slots__ = ("value", "trigger")

    def __init__(self, value: Expr, trigger: Expr) -> None:
        self.value = value
        self.trigger = trigger

    def children(self) -> Tuple[Expr, ...]:
        return (self.value, self.trigger)

    def __str__(self) -> str:
        return f"last({self.value}, {self.trigger})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Last)
            and other.value == self.value
            and other.trigger == self.trigger
        )

    def __hash__(self) -> int:
        return hash(("last", self.value, self.trigger))


class Delay(Expr):
    """Unit event ``d`` time units after the last reset (paper §II)."""

    __slots__ = ("delay", "reset")

    def __init__(self, delay: Expr, reset: Expr) -> None:
        self.delay = delay
        self.reset = reset

    def children(self) -> Tuple[Expr, ...]:
        return (self.delay, self.reset)

    def __str__(self) -> str:
        return f"delay({self.delay}, {self.reset})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Delay)
            and other.delay == self.delay
            and other.reset == self.reset
        )

    def __hash__(self) -> int:
        return hash(("delay", self.delay, self.reset))


# ---------------------------------------------------------------------------
# Syntactic sugar (removed by flattening)
# ---------------------------------------------------------------------------


class SLift(Expr):
    """Signal lift: apply *func* whenever ANY argument has an event,
    substituting the last value for absent arguments.

    The signal semantics of Lustre-style languages (and of real TeSSLa's
    ``slift``), expressible in the six basic operators (paper §II: every
    future-independent transformation is): each argument is wrapped as
    ``merge(xᵢ, last(xᵢ, trigger))`` where *trigger* merges all
    arguments, and the strict ``lift`` is applied to the wrapped
    streams.  No event is produced until every argument has been
    initialized.  Desugared by :mod:`repro.lang.flatten`.
    """

    __slots__ = ("func", "args")

    def __init__(self, func: "LiftedFunction", args: Tuple[Expr, ...]) -> None:
        self.func = func
        self.args = tuple(args)

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"slift({self.func.name})({inner})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SLift)
            and other.func == self.func
            and other.args == self.args
        )

    def __hash__(self) -> int:
        return hash(("slift", self.func, self.args))


class Const(Expr):
    """A constant: one event with *value* at timestamp 0 (paper §II sugar)."""

    __slots__ = ("value", "type")

    def __init__(self, value: Any, type: Optional[Type] = None) -> None:
        self.value = value
        self.type = type

    def __str__(self) -> str:
        return repr(self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Const)
            and other.value == self.value
            and other.type == self.type
        )

    def __hash__(self) -> int:
        return hash(("const", repr(self.value), self.type))


class Merge(Expr):
    """Combine events of two streams, prioritizing the first (paper §II)."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr) -> None:
        self.left = left
        self.right = right

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"merge({self.left}, {self.right})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Merge)
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self) -> int:
        return hash(("merge", self.left, self.right))


class Default(Expr):
    """``operand`` with an initial event *value* at timestamp 0 merged in."""

    __slots__ = ("operand", "value")

    def __init__(self, operand: Expr, value: Any) -> None:
        self.operand = operand
        self.value = value

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"default({self.operand}, {self.value!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Default)
            and other.operand == self.operand
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash(("default", self.operand, repr(self.value)))


def walk(expr: Expr) -> Iterator[Expr]:
    """Pre-order traversal of *expr* and all descendants."""
    yield expr
    for child in expr.children():
        yield from walk(child)


def free_vars(expr: Expr) -> Iterator[str]:
    """Yield the names of all stream references in *expr* (with repeats)."""
    if isinstance(expr, Var):
        yield expr.name
        return
    for child in expr.children():
        if child.__class__ is Var:
            yield child.name
        else:
            yield from free_vars(child)


def is_basic(expr: Expr) -> bool:
    """True if *expr* is one of the six basic operators (or a Var)."""
    return isinstance(expr, (Var, Nil, UnitExpr, TimeExpr, Lift, Last, Delay))


def is_flat(expr: Expr) -> bool:
    """True if *expr* is a basic operator whose children are all Vars."""
    if not is_basic(expr):
        return False
    return all(isinstance(child, Var) for child in expr.children())
