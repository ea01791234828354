"""Derived stream operators (a small TeSSLa-style standard library).

Everything here is sugar over the six basic operators — the paper's
point that TeSSLa "is able to express every future-independent
multi-clocked stream transformation" (§I) — so the aggregate-update
analysis sees only the core constructs.  Recursive aggregators
(``counting``, ``summing`` ...) reference their own result stream, so
they take the *name* the caller will bind the expression to::

    spec = Specification(
        inputs={"x": INT},
        definitions={"n": counting("n", Var("x"))},
        outputs=["n"],
    )
"""

from __future__ import annotations

from .ast import Const, Expr, Last, Lift, Merge, SLift, TimeExpr, Var
from .builtins import builtin, pointwise
from .types import INT

#: Shared pointwise helpers (module-level so CSE can share their lifts).
_INC = pointwise("inc", lambda x: x + 1, (INT,), INT)


def counting(self_name: str, trigger: Expr) -> Expr:
    """Number of events seen on *trigger* (0 at timestamp 0).

    ``n := merge(inc(last(n, trigger)), 0)``
    """
    return Merge(
        Lift(_INC, (Last(Var(self_name), trigger),)),
        Const(0),
    )


def summing(self_name: str, values: Expr, zero=0) -> Expr:
    """Running sum of the events of *values*, starting from *zero*."""
    add = builtin("add") if isinstance(zero, int) else builtin("fadd")
    return Merge(
        Lift(add, (Last(Var(self_name), values), values)),
        Const(zero),
    )


def running_max(self_name: str, values: Expr) -> Expr:
    """Largest value seen so far (first event = first value)."""
    return Merge(
        Lift(builtin("max"), (Last(Var(self_name), values), values)),
        values,
    )


def running_min(self_name: str, values: Expr) -> Expr:
    """Smallest value seen so far."""
    return Merge(
        Lift(builtin("min"), (Last(Var(self_name), values), values)),
        values,
    )


def held(values: Expr, clock: Expr) -> Expr:
    """The signal value of *values* at every *clock* event: the current
    value if present, otherwise the last one (Lustre's ``current``)."""
    return Merge(Lift(builtin("at"), (values, clock)), Last(values, clock))


def changed(values: Expr) -> Expr:
    """True at each event whose value differs from the previous one
    (no event at the very first occurrence)."""
    return Lift(builtin("neq"), (values, Last(values, values)))


def previous(values: Expr) -> Expr:
    """The previous value of *values*, at each of its events."""
    return Last(values, values)


def time_of_last(values: Expr) -> Expr:
    """Timestamp of the previous event of *values*, at each event."""
    return Last(TimeExpr(values), values)


def time_since_last(values: Expr) -> Expr:
    """Elapsed time since the previous event, at each event of *values*
    (no event at the very first occurrence)."""
    return Lift(builtin("sub"), (TimeExpr(values), time_of_last(values)))


def signal_add(a: Expr, b: Expr) -> Expr:
    """Signal-semantics integer addition (``slift`` of ``add``)."""
    return SLift(builtin("add"), (a, b))
