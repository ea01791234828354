"""Numpy kernels for the columnar vector engine.

The vector engine (:mod:`repro.compiler.vector`) lowers each stream of
a wholly vector-eligible spec to one whole-column numpy operation.  This
module holds the per-builtin kernel table plus the numpy availability
probe — numpy is an *optional* dependency (the ``repro[vector]`` extra);
everything here degrades gracefully when it is missing.

A kernel receives the numpy module, an optional pre-certified output
buffer (``None`` means allocate), and one positional column per lift
argument.  Columns passed to a kernel only ever contain *valid* lanes:
the executor either applies the kernel to full columns (when every lane
has an event) or to compressed gathers of the event lanes, so kernels
never observe garbage at masked-off positions.  This matters for the
division kernels, which replicate Python's ``ZeroDivisionError`` instead
of numpy's silent ``0``/``inf`` results.

Semantic caveats versus the scalar engines (documented in
``docs/vector.md``): values are held in fixed-width ``int64``/``float64``
columns, so integers beyond 64 bits overflow where Python's unbounded
ints would not.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..lang import types as ty

try:  # pragma: no cover - exercised via both branches in the test suite
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


def numpy_available() -> bool:
    """True if numpy is importable in this process (``repro[vector]``)."""
    return _np is not None


def numpy_module() -> Any:
    """Return the numpy module; raise with install guidance if missing."""
    if _np is None:
        raise RuntimeError(
            "the vector engine requires numpy; install the optional "
            "extra (pip install 'repro[vector]') or use engine='auto' "
            "to fall back to the codegen engine"
        )
    return _np


# ---------------------------------------------------------------------------
# Column dtypes


def dtype_name_for(t: ty.Type) -> Optional[str]:
    """Column dtype name for a stream type, or ``None`` if not columnar.

    ``Unit`` streams are representable but carry no value column (their
    presence mask is the whole representation), signalled by ``"unit"``.
    """
    if t == ty.INT or t == ty.TIME:
        return "int64"
    if t == ty.FLOAT:
        return "float64"
    if t == ty.BOOL:
        return "bool"
    if t == ty.UNIT:
        return "unit"
    return None


def resolve_dtype(np_mod: Any, name: str) -> Any:
    if name == "int64":
        return np_mod.int64
    if name == "float64":
        return np_mod.float64
    if name == "bool":
        return np_mod.bool_
    raise ValueError(f"no numpy dtype for column kind {name!r}")


# ---------------------------------------------------------------------------
# Kernel table

KernelFn = Callable[..., Any]


class Kernel:
    """A columnar implementation of one registered scalar builtin."""

    __slots__ = ("name", "fn", "supports_out")

    def __init__(self, name: str, fn: KernelFn, supports_out: bool) -> None:
        self.name = name
        self.fn = fn
        #: True when ``fn`` can write into a donated output buffer
        #: (ufunc-backed kernels); the executor only donates then.
        self.supports_out = supports_out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Kernel({self.name!r})"


KERNELS: Dict[str, Kernel] = {}


def _kernel(name: str, supports_out: bool = True) -> Callable[[KernelFn], KernelFn]:
    def deco(fn: KernelFn) -> KernelFn:
        KERNELS[name] = Kernel(name, fn, supports_out)
        return fn

    return deco


def kernel_for(name: str) -> Optional[Kernel]:
    """Kernel for a registered builtin name, or ``None``."""
    return KERNELS.get(name)


# ---------------------------------------------------------------------------
# Prefix scans
#
# Self-recursive running aggregates (``s = merge(op(last(s, x), x), x)``)
# execute a whole batch as one seeded ``ufunc.accumulate`` instead of the
# scalar feedback loop.  ``accumulate`` folds strictly left-to-right
# (``r[i] = op(r[i-1], a[i])``), exactly the order the per-event loop
# uses, so results match bit-for-bit — for float addition/multiplication
# too.  ``max``/``min`` are restricted to int64 columns: their scalar
# kernels are ``np.where`` comparisons whose NaN behaviour differs from
# ``np.maximum``/``np.minimum``.

#: builtin name → (numpy ufunc name, allowed column dtypes)
SCAN_UFUNCS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "add": ("add", ("int64",)),
    "fadd": ("add", ("float64",)),
    "mul": ("multiply", ("int64",)),
    "fmul": ("multiply", ("float64",)),
    "max": ("maximum", ("int64",)),
    "min": ("minimum", ("int64",)),
}


def scan_ufunc_for(name: str, dtype_name: str) -> Optional[str]:
    """Numpy ufunc name for a scan over *name*, or ``None`` if the
    builtin has no order-exact accumulate on that column dtype."""
    entry = SCAN_UFUNCS.get(name)
    if entry is None:
        return None
    ufunc_name, dtypes = entry
    return ufunc_name if dtype_name in dtypes else None


# Integer arithmetic ---------------------------------------------------------


@_kernel("add")
def _add(np, out, a, b):
    return np.add(a, b, out=out)


@_kernel("sub")
def _sub(np, out, a, b):
    return np.subtract(a, b, out=out)


@_kernel("mul")
def _mul(np, out, a, b):
    return np.multiply(a, b, out=out)


@_kernel("div")
def _div(np, out, a, b):
    # Python raises; numpy would yield 0 with a warning.
    if (np.asarray(b) == 0).any():
        raise ZeroDivisionError("integer division or modulo by zero")
    return np.floor_divide(a, b, out=out)


@_kernel("mod")
def _mod(np, out, a, b):
    if (np.asarray(b) == 0).any():
        raise ZeroDivisionError("integer division or modulo by zero")
    return np.remainder(a, b, out=out)


@_kernel("neg")
def _neg(np, out, a):
    return np.negative(a, out=out)


@_kernel("abs")
def _abs(np, out, a):
    return np.absolute(a, out=out)


# Float arithmetic -----------------------------------------------------------


@_kernel("fadd")
def _fadd(np, out, a, b):
    return np.add(a, b, out=out)


@_kernel("fsub")
def _fsub(np, out, a, b):
    return np.subtract(a, b, out=out)


@_kernel("fmul")
def _fmul(np, out, a, b):
    return np.multiply(a, b, out=out)


@_kernel("fdiv")
def _fdiv(np, out, a, b):
    if (np.asarray(b) == 0.0).any():
        raise ZeroDivisionError("float division by zero")
    return np.true_divide(a, b, out=out)


@_kernel("fabs")
def _fabs(np, out, a):
    return np.absolute(a, out=out)


@_kernel("to_float", supports_out=False)
def _to_float(np, out, a):
    return np.asarray(a).astype(np.float64)


@_kernel("round", supports_out=False)
def _round(np, out, a):
    # np.rint rounds half-to-even, matching Python's round().
    return np.rint(a).astype(np.int64)


# Comparisons ----------------------------------------------------------------


@_kernel("eq")
def _eq(np, out, a, b):
    return np.equal(a, b, out=out)


@_kernel("neq")
def _neq(np, out, a, b):
    return np.not_equal(a, b, out=out)


@_kernel("lt")
def _lt(np, out, a, b):
    return np.less(a, b, out=out)


@_kernel("leq")
def _leq(np, out, a, b):
    return np.less_equal(a, b, out=out)


@_kernel("gt")
def _gt(np, out, a, b):
    return np.greater(a, b, out=out)


@_kernel("geq")
def _geq(np, out, a, b):
    return np.greater_equal(a, b, out=out)


# Boolean logic --------------------------------------------------------------


@_kernel("and")
def _and(np, out, a, b):
    return np.logical_and(a, b, out=out)


@_kernel("or")
def _or(np, out, a, b):
    return np.logical_or(a, b, out=out)


@_kernel("not")
def _not(np, out, a):
    return np.logical_not(a, out=out)


# Selection ------------------------------------------------------------------


@_kernel("ite", supports_out=False)
def _ite(np, out, c, a, b):
    return np.where(c, a, b)


@_kernel("min", supports_out=False)
def _min(np, out, a, b):
    # np.where(a <= b, a, b) matches Python's `a if a <= b else b`
    # exactly, including NaN handling (np.minimum would differ).
    return np.where(np.less_equal(a, b), a, b)


@_kernel("max", supports_out=False)
def _max(np, out, a, b):
    return np.where(np.greater_equal(a, b), a, b)
