"""Type checking / inference for flat specifications.

A standard unification pass: every stream gets a type variable, every
equation contributes constraints from its operator (builtin signatures
are instantiated with fresh variables per use), user annotations are
unified in, and at the end every stream type must be ground.

Timestamps are plain ``Int``s — ``time(x)`` produces ``Int`` so that
timestamp arithmetic works with the ordinary integer builtins (the
paper's time domain is totally ordered and supports subtraction; ours is
ℤ).

One restriction beyond unification: complex types may not nest (no
``Set<Queue<Int>>``).  The paper's aliasing analysis tracks one
aggregate per stream variable; element-level sharing between nested
aggregates is outside its model, so we reject it at the type level.

Another: the ordering builtins (``min``, ``max``, ``lt``, ``leq``,
``gt``, ``geq``) take scalar arguments only.  Over aggregates, Python's
``<=`` is a subset test on a bare ``set`` and a ``TypeError`` on a
persistent one, so the backend choice would change the result.
"""

from __future__ import annotations

from typing import Dict

from . import types as ty
from .ast import Delay, Expr, Last, Lift, Nil, TimeExpr, UnitExpr
from .spec import FlatSpec, SpecError
from .types import INT, UNIT, Type, TypeVar

#: Builtins that compare their arguments by order.
_ORDERING = frozenset(("min", "max", "lt", "leq", "gt", "geq"))


class _StreamVars(dict):
    """stream name → its type variable, created on first use."""

    def __missing__(self, name: str) -> TypeVar:
        var = self[name] = TypeVar(f"${name}")
        return var


def _constrain(
    flat: FlatSpec,
    name: str,
    expr: Expr,
    binding: Dict[TypeVar, Type],
    stream_var: _StreamVars,
) -> None:
    this = stream_var[name]
    try:
        if isinstance(expr, Nil):
            ty.unify(this, expr.type, binding)
        elif isinstance(expr, UnitExpr):
            ty.unify(this, UNIT, binding)
        elif isinstance(expr, TimeExpr):
            ty.unify(this, INT, binding)
        elif isinstance(expr, Lift):
            arg_types, result = expr.func.instantiate(name)
            if len(expr.args) != len(arg_types):
                raise SpecError(
                    f"{name}: {expr.func.name} expects {len(arg_types)}"
                    f" argument(s), got {len(expr.args)}"
                )
            for arg, expected in zip(expr.args, arg_types):
                ty.unify(stream_var[arg.name], expected, binding)
            ty.unify(this, result, binding)
        elif isinstance(expr, Last):
            ty.unify(this, stream_var[expr.value.name], binding)
        elif isinstance(expr, Delay):
            ty.unify(stream_var[expr.delay.name], INT, binding)
            ty.unify(this, UNIT, binding)
        else:  # pragma: no cover - FlatSpec guarantees basic operators
            raise SpecError(f"{name}: unexpected operator {expr!r}")
    except ty.TypeError_ as exc:
        raise SpecError(f"type error in definition of {name!r}: {exc}") from None


def _reject_nested_complex(name: str, resolved: Type) -> None:
    if resolved.is_complex:
        for param in resolved.children():
            if param.is_complex:
                raise SpecError(
                    f"stream {name!r} has nested complex type {resolved};"
                    " aggregate element types must be scalar"
                )


def _reject_ordered_aggregates(
    flat: FlatSpec, resolved: Dict[str, Type]
) -> None:
    for name, expr in flat.definitions.items():
        if isinstance(expr, Lift) and expr.func.name in _ORDERING:
            for arg in expr.args:
                if resolved[arg.name].is_complex:
                    raise SpecError(
                        f"type error in definition of {name!r}:"
                        f" {expr.func.name} orders its arguments, but"
                        f" {arg.name!r} has aggregate type"
                        f" {resolved[arg.name]}"
                    )


def check_types(flat: FlatSpec) -> Dict[str, Type]:
    """Infer and validate all stream types; store them on ``flat.types``."""
    binding: Dict[TypeVar, Type] = {}
    stream_var = _StreamVars()
    for name, input_type in flat.inputs.items():
        ty.unify(stream_var[name], input_type, binding)
    for name, annotation in flat.type_annotations.items():
        try:
            ty.unify(stream_var[name], annotation, binding)
        except ty.TypeError_ as exc:
            raise SpecError(f"annotation mismatch for {name!r}: {exc}") from None
    for name, expr in flat.definitions.items():
        _constrain(flat, name, expr, binding, stream_var)

    resolved: Dict[str, Type] = {}
    for name in flat.streams:
        result = ty.substitute(stream_var[name], binding)
        leftover = list(ty.type_vars(result))
        if leftover:
            raise SpecError(
                f"could not infer the type of stream {name!r} (got {result});"
                " add a type annotation"
            )
        _reject_nested_complex(name, result)
        resolved[name] = result
    _reject_ordered_aggregates(flat, resolved)
    flat.types = resolved
    return resolved
