"""Stream value types.

TeSSLa streams carry values from a data domain; the analysis cares about
one distinction above all (paper §IV-A): whether a stream's data type is
*complex* — an aggregate structure whose copy is costly (sets, maps,
queues, vectors) — because only edges out of complex-typed streams are
classified and only complex-typed variables enter the mutability
analysis.

Types are immutable and hashable.  ``TypeVar`` supports the forward type
inference used by the frontend (:mod:`repro.frontend.infer`) and by the
polymorphic builtin signatures.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple


class Type:
    """Base class of all stream value types."""

    #: True if values of this type are aggregate data structures whose
    #: persistent update is costly (paper's "complex data types").
    is_complex: bool = False

    def children(self) -> Tuple["Type", ...]:
        return ()

    def __repr__(self) -> str:
        return str(self)


class _Primitive(Type):
    """A named scalar type; instances are singletons."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Primitive) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)


INT = _Primitive("Int")
FLOAT = _Primitive("Float")
BOOL = _Primitive("Bool")
STR = _Primitive("Str")
UNIT = _Primitive("Unit")
#: Timestamps; TeSSLa's ``time`` operator produces this.  The reference
#: implementation uses integer timestamps, so TIME behaves like INT but
#: is kept distinct for documentation purposes in signatures.
TIME = _Primitive("Time")

_PRIMITIVES: Dict[str, _Primitive] = {
    t.name: t for t in (INT, FLOAT, BOOL, STR, UNIT, TIME)
}


class TypeVar(Type):
    """A type variable for polymorphic signatures and inference."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TypeVar) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)


class _Parametric(Type):
    """Base of the aggregate (complex) types."""

    constructor: str = "?"
    is_complex = True

    __slots__ = ("params",)

    def __init__(self, *params: Type) -> None:
        self.params = params

    def children(self) -> Tuple[Type, ...]:
        return self.params

    def __str__(self) -> str:
        inner = ", ".join(str(p) for p in self.params)
        return f"{self.constructor}<{inner}>"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _Parametric)
            and other.constructor == self.constructor
            and other.params == self.params
        )

    def __hash__(self) -> int:
        return hash((self.constructor, self.params))


class SetType(_Parametric):
    """A finite set of elements."""

    constructor = "Set"

    def __init__(self, element: Type) -> None:
        super().__init__(element)

    @property
    def element(self) -> Type:
        return self.params[0]


class MapType(_Parametric):
    """A finite map from keys to values."""

    constructor = "Map"

    def __init__(self, key: Type, value: Type) -> None:
        super().__init__(key, value)

    @property
    def key(self) -> Type:
        return self.params[0]

    @property
    def value(self) -> Type:
        return self.params[1]


class QueueType(_Parametric):
    """A FIFO queue of elements."""

    constructor = "Queue"

    def __init__(self, element: Type) -> None:
        super().__init__(element)

    @property
    def element(self) -> Type:
        return self.params[0]


class VectorType(_Parametric):
    """An indexed sequence of elements."""

    constructor = "Vector"

    def __init__(self, element: Type) -> None:
        super().__init__(element)

    @property
    def element(self) -> Type:
        return self.params[0]


_CONSTRUCTORS = {
    "Set": (SetType, 1),
    "Map": (MapType, 2),
    "Queue": (QueueType, 1),
    "Vector": (VectorType, 1),
}


class TypeError_(Exception):
    """Raised on type mismatches (named to avoid shadowing the builtin)."""


def primitive(name: str) -> Optional[_Primitive]:
    """Look up a primitive type by name, or None."""
    return _PRIMITIVES.get(name)


def parametric(constructor: str, *params: Type) -> Type:
    """Build a parametric type by constructor name."""
    try:
        cls, arity = _CONSTRUCTORS[constructor]
    except KeyError:
        raise TypeError_(f"unknown type constructor {constructor!r}") from None
    if len(params) != arity:
        raise TypeError_(
            f"{constructor} expects {arity} parameter(s), got {len(params)}"
        )
    return cls(*params)


def type_vars(ty: Type) -> Iterator[TypeVar]:
    """Yield every type variable occurring in *ty*."""
    if isinstance(ty, TypeVar):
        yield ty
    for child in ty.children():
        yield from type_vars(child)


def substitute(ty: Type, binding: Dict[TypeVar, Type]) -> Type:
    """Replace type variables in *ty* according to *binding*."""
    if isinstance(ty, TypeVar):
        replacement = binding.get(ty)
        if replacement is None:
            return ty
        # Chase chains so unify can bind var -> var.
        return substitute(replacement, binding)
    if isinstance(ty, _Parametric):
        params = tuple(substitute(p, binding) for p in ty.params)
        if params == ty.params:
            return ty
        cls, _ = _CONSTRUCTORS[ty.constructor]
        return cls(*params)
    return ty


def unify(a: Type, b: Type, binding: Dict[TypeVar, Type]) -> None:
    """Unify *a* and *b*, extending *binding* in place.

    Raises :class:`TypeError_` if the types cannot be made equal.
    """
    a = substitute(a, binding)
    b = substitute(b, binding)
    if a == b:
        return
    if isinstance(a, TypeVar):
        if isinstance(b, _Parametric) and a in set(type_vars(b)):
            raise TypeError_(f"occurs check failed: {a} in {b}")
        binding[a] = b
        return
    if isinstance(b, TypeVar):
        unify(b, a, binding)
        return
    if (
        isinstance(a, _Parametric)
        and isinstance(b, _Parametric)
        and a.constructor == b.constructor
    ):
        for pa, pb in zip(a.params, b.params):
            unify(pa, pb, binding)
        return
    raise TypeError_(f"cannot unify {a} with {b}")


def type_of_value(value: object) -> Type:
    """Infer the type of a Python constant used in a specification."""
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, str):
        return STR
    if value == ():
        return UNIT
    raise TypeError_(f"unsupported constant {value!r}")
