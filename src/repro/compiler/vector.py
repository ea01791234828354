"""Columnar vectorized batch engine (``engine="vector"``).

The paper's mutability analysis decides which stream variables can be
updated in place; the same structural facts — scalar data types, no
aggregate structures, no data-dependent clock feedback — are exactly the
eligibility condition for columnar execution.  :func:`classify_vector`
judges every stream of a spec, and a spec whose streams are *all*
eligible lowers its translation order to whole-column numpy kernels:

* one structure-of-arrays buffer pair per stream variable — a value
  column plus a boolean presence mask over the batch's unique
  timestamps (``Unit`` streams are mask-only);
* masked writes for sub-clocked streams: a kernel is applied either to
  full columns (every lane has an event) or to a compressed gather of
  the event lanes, so value lanes without events are never read;
* ``last`` as a shifted-column read (``maximum.accumulate`` over event
  indices) seeded from the monitor's cross-batch carry cells;
* in-place column writes only where a batch-local last-use liveness
  pass certifies the argument buffer dead — the column analogue of the
  paper's in-place update rule (the spec-level mutability analysis
  covers aggregate types only; scalar columns get the same
  "no later reader" certificate per batch instead).

The engine is all-or-nothing: one ineligible stream — an aggregate
type, ``delay`` feedback, an ad-hoc lift, or a dependency on any of
those — sends the whole spec to the codegen engine, under
``engine="vector"`` as under ``engine="auto"`` (see
:attr:`VectorClassification.auto_engine`).  So does an error policy.

Rows reach the columns through the triggering loop both engines share,
:meth:`MonitorBase.feed_batch <repro.compiler.monitor.MonitorBase.feed_batch>`:
it groups a batch into one row per timestamp under ``push``'s protocol
checks, and :class:`VectorMonitorBase` transposes the completed rows
into value columns and presence masks.  ``feed_columns`` hands dense
columns over without rows.

:class:`VectorMonitorBase` also carries a small scalar half, a flat op
list over a slot array (:class:`ScalarProgram`), for what is not a
column: per-event ``push``, timestamp 0, the pending timestamp
``finish`` flushes and the one a ``feed_columns`` call inherits.  Both
halves share one cross-batch state: the ``last`` cells (numbered once,
by :func:`last_cells`) and the pending ``_in_<name>`` input attributes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import ErrorPolicy
from ..lang import types as ty
from ..lang.ast import Delay, Last, Lift, Nil, TimeExpr, UnitExpr, free_vars
from ..lang.builtins import REGISTRY, EventPattern
from ..lang.spec import FlatSpec
from ..structures import Backend
from . import kernels
from .codegen import CodegenError
from .monitor import UNIT_VALUE, MonitorBase, MonitorError

__all__ = [
    "VectorClassification",
    "classify_vector",
    "make_vector_class",
    "VectorMonitorBase",
]


# ---------------------------------------------------------------------------
# Eligibility classification


@dataclass(frozen=True)
class VectorClassification:
    """Per-stream vector eligibility for one flat specification."""

    #: Ineligible stream → first reason.
    reasons: Mapping[str, str]
    numpy_ok: bool
    error_mode: bool
    #: Topological execution order of the eligible defined streams.
    order: Tuple[str, ...] = ()
    #: Recognized running-aggregate feedback triples, executed as one
    #: seeded prefix scan each: ``(h, k, s, x, op_name, ufunc, dtype)``
    #: for ``h = last(s, x); k = op(h, x); s = merge(k, x)``.
    scans: Tuple[Tuple[str, str, str, str, str, str, str], ...] = ()

    @property
    def auto_engine(self) -> str:
        """Engine ``engine="auto"`` and ``engine="vector"`` resolve to:
        vector iff numpy is importable, no error policy is set and every
        stream is eligible, else codegen."""
        if self.numpy_ok and not self.error_mode and not self.reasons:
            return "vector"
        return "codegen"

    def diagnostics(self) -> List[Any]:
        """VEC00x NOTE diagnostics explaining a codegen resolution."""
        from ..analysis.diagnostics import Diagnostic, Severity

        out: List[Any] = []
        if not self.numpy_ok:
            out.append(
                Diagnostic(
                    code="VEC002",
                    severity=Severity.NOTE,
                    stream="",
                    message=(
                        "numpy is not importable: engine='auto' resolves to"
                        " the codegen engine (install the 'vector' extra)"
                    ),
                    source="vector",
                    witness={"rule": "numpy-missing"},
                )
            )
        for stream, reason in self.reasons.items():
            out.append(
                Diagnostic(
                    code="VEC001",
                    severity=Severity.NOTE,
                    stream=stream,
                    message=(
                        f"stream is not vector-eligible ({reason}): the"
                        " spec compiles with codegen"
                    ),
                    source="vector",
                    witness={"rule": "vector-fallback", "reason": reason},
                )
            )
        return out


def _expr_deps(expr: Any) -> Set[str]:
    return set(free_vars(expr))


def lift_kernel(func: Any) -> Optional[kernels.Kernel]:
    """The columnar kernel of a strict scalar lift, or ``None``.

    A registered builtin has its table entry.  A rewrite-fused lift
    (``fused[outer@i<-inner]``, see :class:`repro.opt.rewrite.FusedFunction`)
    gets the composition of its parts' kernels when both have one,
    recursively; it writes no donated buffer.
    """
    if REGISTRY.get(func.name) is func:
        return kernels.kernel_for(func.name)
    outer = getattr(func, "outer", None)
    inner = getattr(func, "inner", None)
    if outer is None or inner is None:
        return None
    outer_kernel, inner_kernel = lift_kernel(outer), lift_kernel(inner)
    if outer_kernel is None or inner_kernel is None:
        return None
    start, stop = func.index, func.index + inner.arity
    outer_fn, inner_fn = outer_kernel.fn, inner_kernel.fn

    def fused(np: Any, out: Any, *cols: Any) -> Any:
        middle = inner_fn(np, None, *cols[start:stop])
        return outer_fn(np, None, *cols[:start], middle, *cols[stop:])

    return kernels.Kernel(func.name, fused, supports_out=False)


def _local_reason(flat: FlatSpec, name: str) -> Optional[str]:
    """Ineligibility reason of one stream's own type and operator, or None."""
    stream_type = flat.types.get(name)
    if stream_type is None or kernels.dtype_name_for(stream_type) is None:
        return f"type {stream_type} has no column representation"
    expr = flat.definitions.get(name)
    if expr is None:
        return None  # scalar-typed input
    if isinstance(expr, (Nil, UnitExpr, TimeExpr, Last)):
        return None
    if isinstance(expr, Delay):
        return "delay introduces data-dependent clock feedback in the batch slice"
    assert isinstance(expr, Lift)
    func = expr.func
    if func.name == "merge":
        return None
    if (
        func.name.startswith("const(")
        and func.pattern is EventPattern.ALL
        and func.arity == 1
    ):
        return None
    if REGISTRY.get(func.name) is not func:
        # pointwise() lifts: arbitrary Python, no kernel table entry;
        # rewrite-fused lifts compose their parts' kernels.
        if lift_kernel(func) is None:
            return f"ad-hoc lift {func.name!r} has no vector kernel"
    elif func.name in ("filter", "at"):
        return None
    elif kernels.kernel_for(func.name) is None:
        return f"no vector kernel for lift {func.name!r}"
    if stream_type == ty.UNIT:
        return f"unit-typed result of lift {func.name!r}"
    for arg in expr.args:
        if flat.types.get(arg.name) == ty.UNIT:
            return f"unit-typed argument {arg.name!r} to lift {func.name!r}"
    return None


def _find_scan_triple(
    flat: FlatSpec,
    remaining: Sequence[str],
    reasons: Mapping[str, str],
    placed: Set[str],
) -> Optional[Tuple[str, str, str, str, str, str, str]]:
    """Find one running-aggregate feedback triple among *remaining*.

    The shape is the self-seeded accumulator the spec library lowers
    ``running_aggregate`` to::

        h = last(s, x)          # previous total (absent on first event)
        k = op(h, x)            # combine — add/fadd/mul/fmul/max/min
        s = merge(k, x)         # seeded by the first event itself

    which is exactly ``op.accumulate`` over the batch's ``x`` column,
    seeded by the cross-batch last cell of ``s``.  Every member of the
    table is commutative, so ``op(h, x)`` and ``op(x, h)`` both match;
    ``merge`` argument order is significant (``merge(x, k)`` would shadow
    the accumulator) and must be ``merge(k, x)``.
    """
    defined = flat.definitions
    pending = set(remaining)
    for s in remaining:
        expr = defined[s]
        if not isinstance(expr, Lift) or expr.func.name != "merge":
            continue
        k, x = (arg.name for arg in expr.args)
        if k not in pending or x == k:
            continue
        if x in reasons or (x in defined and x not in placed):
            continue
        k_expr = defined.get(k)
        if not isinstance(k_expr, Lift) or len(k_expr.args) != 2:
            continue
        func = k_expr.func
        if REGISTRY.get(func.name) is not func:
            continue
        if func.pattern is not EventPattern.ALL:
            continue
        dtype_name = kernels.dtype_name_for(flat.types[s])
        if dtype_name is None:
            continue
        ufunc_name = kernels.scan_ufunc_for(func.name, dtype_name)
        if ufunc_name is None:
            continue
        a, b = (arg.name for arg in k_expr.args)
        h = b if a == x else (a if b == x else None)
        if h is None or h == x or h not in pending:
            continue
        h_expr = defined.get(h)
        if not isinstance(h_expr, Last):
            continue
        if h_expr.value.name != s or h_expr.trigger.name != x:
            continue
        if not (flat.types[h] == flat.types[k] == flat.types[s]
                == flat.types[x]):
            continue
        return (h, k, s, x, func.name, ufunc_name, dtype_name)
    return None


def classify_vector(
    flat: FlatSpec,
    *,
    error_policy: Optional[ErrorPolicy] = None,
) -> VectorClassification:
    """Classify every stream of *flat* as vector-eligible or not.

    Purely syntactic over the typed flat spec, so it is cheap enough to
    run on every compile — including warm plan-cache hits — for
    ``auto``/``vector`` engine resolution.  A stream is eligible when
    its type has a column, its operator has a columnar lowering and
    every stream it reads is eligible.
    """
    defined = flat.definitions
    reasons: Dict[str, str] = {}
    for name in flat.streams:
        reason = _local_reason(flat, name)
        if reason is not None:
            reasons[name] = reason

    # Dependency-closure demotion + cycle detection via Kahn's algorithm:
    # a stream is placed once all of its dependencies are eligible and
    # placed; leftovers either depend on an ineligible stream or sit on
    # an in-batch feedback cycle through ``last``.  One cycle shape is
    # salvageable: the running-aggregate triple, which lowers to a
    # seeded ``ufunc.accumulate`` — when a pass stalls, recognized
    # triples are placed as a unit and the loop resumes.
    deps_of: Dict[str, Set[str]] = {
        name: _expr_deps(expr)
        for name, expr in defined.items()
        if name not in reasons
    }
    order: List[str] = []
    placed: Set[str] = set()
    scans: List[Tuple[str, str, str, str, str, str, str]] = []
    remaining = list(deps_of)
    while remaining:
        progress = False
        still: List[str] = []
        for name in remaining:
            ready = True
            for dep in deps_of[name]:
                if dep in reasons or (dep in defined and dep not in placed):
                    ready = False
                    break
            if ready:
                order.append(name)
                placed.add(name)
                progress = True
            else:
                still.append(name)
        remaining = still
        if progress:
            continue
        triple = _find_scan_triple(flat, remaining, reasons, placed)
        if triple is None:
            break
        scans.append(triple)
        for member in triple[:3]:  # h, k, s — scan step order
            order.append(member)
            placed.add(member)
            remaining.remove(member)
    changed = True
    while changed:
        changed = False
        for name in remaining:
            if name in reasons:
                continue
            for dep in deps_of[name]:
                if dep in reasons:
                    reasons[name] = f"depends on ineligible stream {dep!r}"
                    changed = True
                    break
    for name in remaining:
        reasons.setdefault(
            name, "recursive: in-batch feedback through last"
        )

    return VectorClassification(
        reasons=reasons,
        numpy_ok=kernels.numpy_available(),
        error_mode=error_policy is not None,
        order=tuple(order),
        scans=tuple(scans),
    )


# ---------------------------------------------------------------------------
# Shared state layout


def last_cells(flat: FlatSpec) -> Dict[str, int]:
    """``last`` source stream → index into the monitor's ``_last_cells``.

    The one numbering both halves use: the columnar pass seeds from and
    stores back to these cells, the scalar half reads and writes them.
    """
    cells: Dict[str, int] = {}
    for expr in flat.definitions.values():
        if isinstance(expr, Last):
            cells.setdefault(expr.value.name, len(cells))
    return cells


# ---------------------------------------------------------------------------
# Scalar half

#: Scalar opcodes.  NIL streams compile to no op (their slot stays
#: ``None``); ``delay`` never reaches here (it is not vector-eligible).
OP_UNIT = 0
OP_TIME = 1
OP_LAST = 2
OP_MERGE = 3
OP_LIFT_ALL = 4
OP_LIFT_ANY = 5


@dataclass(frozen=True)
class ScalarProgram:
    """One timestamp of a vector-eligible spec as a flat op list.

    ``ops`` rows are ``(opcode, dst_slot, args, callable)``: ``args``
    are argument slots, except for ``OP_LAST`` — ``(cell,
    trigger_slot)``.
    """

    n_slots: int
    #: ``(slot, "_in_<name>")`` per input stream.
    input_loads: Tuple[Tuple[int, str], ...]
    ops: Tuple[Tuple[int, int, Tuple[int, ...], Optional[Any]], ...]
    #: ``(name, slot)`` per output stream, in declaration order.
    outputs: Tuple[Tuple[str, int], ...]
    #: ``(src_slot, cell)``: store surviving ``last`` values.
    last_stores: Tuple[Tuple[int, int], ...]


def build_scalar_program(
    flat: FlatSpec,
    order: Sequence[str],
    backends: Mapping[str, Backend],
    default_backend: Backend = Backend.PERSISTENT,
) -> ScalarProgram:
    """Lower *flat* along *order* into the vector engine's scalar half.

    Metrics need no wrapping here: vector-eligible lifts are scalar
    builtins, which write no aggregate.
    """
    if sorted(order) != sorted(flat.streams):
        raise CodegenError("order must enumerate exactly the spec's streams")
    slot_of = {name: index for index, name in enumerate(flat.streams)}
    cells = last_cells(flat)
    ops: List[Tuple[int, int, Tuple[int, ...], Optional[Any]]] = []
    for name in order:
        expr = flat.definitions.get(name)
        if expr is None or isinstance(expr, Nil):
            continue  # inputs are loaded; a nil slot stays None
        dst = slot_of[name]
        if isinstance(expr, UnitExpr):
            ops.append((OP_UNIT, dst, (), None))
        elif isinstance(expr, TimeExpr):
            ops.append((OP_TIME, dst, (slot_of[expr.operand.name],), None))
        elif isinstance(expr, Last):
            trigger = slot_of[expr.trigger.name]
            ops.append((OP_LAST, dst, (cells[expr.value.name], trigger), None))
        else:
            assert isinstance(expr, Lift)
            args = tuple(slot_of[arg.name] for arg in expr.args)
            if expr.func.name == "merge":
                ops.append((OP_MERGE, dst, args, None))
                continue
            impl = expr.func.bind(backends.get(name, default_backend))
            opcode = (
                OP_LIFT_ALL
                if expr.func.pattern is EventPattern.ALL
                else OP_LIFT_ANY
            )
            ops.append((opcode, dst, args, impl))
    return ScalarProgram(
        n_slots=len(slot_of),
        input_loads=tuple(
            (slot_of[name], "_in_" + name) for name in flat.inputs
        ),
        ops=tuple(ops),
        outputs=tuple((name, slot_of[name]) for name in flat.outputs),
        last_stores=tuple(
            (slot_of[name], cell) for name, cell in cells.items()
        ),
    )


# ---------------------------------------------------------------------------
# Vector program lowering

VOP_UNIT = 0
VOP_TIME = 1
VOP_NIL = 2
VOP_MERGE = 3
VOP_LAST = 4
VOP_CONST = 5
VOP_FILTER = 6
VOP_AT = 7
VOP_KERNEL = 8
VOP_SCAN = 9


@dataclass(frozen=True)
class VectorProgram:
    """The columnar lowering of a wholly vector-eligible spec."""

    n_vslots: int
    vslot_of: Mapping[str, int]
    #: Inputs: ``(name, vslot, dtype_name)`` (``"unit"`` → mask only).
    col_inputs: Tuple[Tuple[str, int, str], ...]
    steps: Tuple[tuple, ...]
    #: All outputs in declaration order: ``(name, vslot, is_unit)``.
    out_sched: Tuple[Tuple[str, int, bool], ...]
    #: ``last`` sources: ``(vslot, cell_index, is_unit)``.
    last_vec: Tuple[Tuple[int, int, bool], ...]
    #: Kernel steps certified for in-place buffer reuse (step position).
    inplace_steps: Tuple[int, ...] = ()


def _step_reads(step: tuple) -> Tuple[int, ...]:
    kind = step[0]
    if kind in (VOP_UNIT, VOP_NIL):
        return ()
    if kind == VOP_TIME:
        return (step[2],)
    if kind == VOP_MERGE:
        return (step[2], step[3])
    if kind == VOP_LAST:
        return (step[3], step[4])
    if kind == VOP_CONST:
        return (step[2],)
    if kind in (VOP_FILTER, VOP_AT):
        return (step[2], step[3])
    if kind == VOP_SCAN:
        return (step[5],)  # src_x — h/k/s are all written, never read
    return tuple(step[2])  # VOP_KERNEL


def build_vector_program(
    flat: FlatSpec,
    classification: VectorClassification,
    default_backend: Backend = Backend.PERSISTENT,
) -> VectorProgram:
    """Lower the streams of a wholly eligible *flat* to columnar steps."""
    vslot_of: Dict[str, int] = {}
    col_inputs: List[Tuple[str, int, str]] = []
    for name in flat.inputs:
        vslot = len(vslot_of)
        vslot_of[name] = vslot
        col_inputs.append(
            (name, vslot, kernels.dtype_name_for(flat.types[name]))
        )
    for name in classification.order:
        vslot_of[name] = len(vslot_of)

    vslot_dtype: List[Optional[str]] = [None] * len(vslot_of)
    for name, vslot in vslot_of.items():
        vslot_dtype[vslot] = kernels.dtype_name_for(flat.types[name])

    last_index = last_cells(flat)

    protected: Set[int] = {vslot for _, vslot, _ in col_inputs}
    # Scan triples lower to one VOP_SCAN at the ``h`` member computing
    # all three columns; ``k`` and ``s`` emit no step of their own.
    scan_at: Dict[str, Tuple[str, str, str, str, str, str, str]] = {}
    scan_skip: Set[str] = set()
    for triple in classification.scans:
        scan_at[triple[0]] = triple
        scan_skip.update(triple[1:3])
    steps: List[list] = []
    for name in classification.order:
        if name in scan_skip:
            continue
        triple = scan_at.get(name)
        if triple is not None:
            h, k, s, x, _op_name, ufunc_name, scan_dtype = triple
            steps.append(
                [
                    VOP_SCAN,
                    vslot_of[h],
                    vslot_of[k],
                    vslot_of[s],
                    last_index[s],
                    vslot_of[x],
                    ufunc_name,
                    scan_dtype,
                    k,
                ]
            )
            continue
        expr = flat.definitions[name]
        dst = vslot_of[name]
        dtn = vslot_dtype[dst]
        is_unit = dtn == "unit"
        if isinstance(expr, UnitExpr):
            steps.append([VOP_UNIT, dst])
        elif isinstance(expr, Nil):
            steps.append([VOP_NIL, dst, None if is_unit else dtn])
        elif isinstance(expr, TimeExpr):
            steps.append([VOP_TIME, dst, vslot_of[expr.operand.name]])
            protected.add(dst)  # column aliases the shared ts array
        elif isinstance(expr, Last):
            src = vslot_of[expr.value.name]
            steps.append(
                [
                    VOP_LAST,
                    dst,
                    last_index[expr.value.name],
                    src,
                    vslot_of[expr.trigger.name],
                    is_unit,
                ]
            )
        else:
            assert isinstance(expr, Lift)
            func = expr.func
            if func.name == "merge":
                a, b = (vslot_of[arg.name] for arg in expr.args)
                steps.append([VOP_MERGE, dst, a, b, is_unit])
            elif func.name == "filter":
                value, cond = (vslot_of[arg.name] for arg in expr.args)
                steps.append([VOP_FILTER, dst, value, cond, is_unit])
                protected.add(value)  # result column aliases the value column
                protected.add(dst)
            elif func.name == "at":
                value, trigger = (vslot_of[arg.name] for arg in expr.args)
                steps.append([VOP_AT, dst, value, trigger, is_unit])
                protected.add(value)
                protected.add(dst)
            elif func.name.startswith("const("):
                value = func.bind(default_backend)(UNIT_VALUE)
                trigger = vslot_of[expr.args[0].name]
                steps.append([VOP_CONST, dst, trigger, value, dtn])
            else:
                kernel = lift_kernel(func)
                assert kernel is not None, func.name
                arg_vslots = tuple(vslot_of[arg.name] for arg in expr.args)
                steps.append(
                    [VOP_KERNEL, dst, arg_vslots, kernel, dtn, -1, name]
                )

    out_sched = tuple(
        (name, vslot_of[name], flat.types[name] == ty.UNIT)
        for name in flat.outputs
    )
    last_vec = tuple(
        (vslot_of[name], cell, flat.types[name] == ty.UNIT)
        for name, cell in last_index.items()
    )

    # Batch-local liveness: a kernel may overwrite an argument column
    # in place iff this step is the argument's last read and nothing
    # outside the step order (outputs, last carries, input buffers,
    # aliased columns) can observe it afterwards.
    for _name, vslot, _unit in out_sched:
        protected.add(vslot)
    for vslot, _cell, _unit in last_vec:
        protected.add(vslot)
    last_read: Dict[int, int] = {}
    for position, step in enumerate(steps):
        for vslot in _step_reads(tuple(step)):
            last_read[vslot] = position
    inplace_steps: List[int] = []
    for position, step in enumerate(steps):
        if step[0] != VOP_KERNEL:
            continue
        kernel = step[3]
        if not kernel.supports_out or step[4] == "unit":
            continue
        for arg_pos, vslot in enumerate(step[2]):
            if vslot in protected:
                continue
            if last_read.get(vslot) != position:
                continue
            if vslot_dtype[vslot] != step[4]:
                continue
            step[5] = arg_pos
            inplace_steps.append(position)
            break

    return VectorProgram(
        n_vslots=len(vslot_of),
        vslot_of=dict(vslot_of),
        col_inputs=tuple(col_inputs),
        steps=tuple(tuple(step) for step in steps),
        out_sched=out_sched,
        last_vec=last_vec,
        inplace_steps=tuple(inplace_steps),
    )


# ---------------------------------------------------------------------------
# Runtime


class VectorMonitorBase(MonitorBase):
    """Columnar monitor with a scalar half.

    ``feed_batch`` (the shared loop of :class:`MonitorBase`, through
    ``_calc_batch``) and ``feed_columns`` run every stream as whole
    columns over the batch's completed timestamps; ``_run_calc`` runs
    one timestamp through the :class:`ScalarProgram` (``push``,
    timestamp 0, the pending timestamp at ``finish`` or before a
    ``feed_columns`` block).  The only cross-batch state is the
    ``last`` cells and the pending input attributes.
    """

    VPROG: VectorProgram = None  # type: ignore[assignment]
    SCALAR: ScalarProgram = None  # type: ignore[assignment]
    NP: Any = None
    METRICS: Any = None
    SOURCE = "<vector engine — columnar numpy kernels, no generated source>"

    def _init_state(self) -> None:
        self._last_cells: List[Any] = [None] * len(self.SCALAR.last_stores)
        for attr in self.INPUT_ATTRS.values():
            setattr(self, attr, None)

    def _run_calc(self, ts: int) -> None:
        assert ts > self._done_ts
        prog = self.SCALAR
        values: List[Any] = [None] * prog.n_slots
        for slot, attr in prog.input_loads:
            values[slot] = getattr(self, attr)
            setattr(self, attr, None)
        last = self._last_cells
        for opcode, dst, args, fn in prog.ops:
            if opcode == OP_LIFT_ALL:
                operands = [values[a] for a in args]
                if all(operand is not None for operand in operands):
                    values[dst] = fn(*operands)
            elif opcode == OP_MERGE:
                first = values[args[0]]
                values[dst] = first if first is not None else values[args[1]]
            elif opcode == OP_LIFT_ANY:
                operands = [values[a] for a in args]
                if any(operand is not None for operand in operands):
                    values[dst] = fn(*operands)
            elif opcode == OP_LAST:
                if values[args[1]] is not None:
                    values[dst] = last[args[0]]
            elif opcode == OP_TIME:
                if values[args[0]] is not None:
                    values[dst] = ts
            elif ts == 0:  # OP_UNIT
                values[dst] = UNIT_VALUE
        emit = self._on_output
        n_out = 0
        try:
            for name, slot in prog.outputs:
                value = values[slot]
                if value is not None:
                    n_out += 1
                    emit(name, ts, value)
        finally:
            self._report.events_out += n_out
        for slot, cell in prog.last_stores:
            value = values[slot]
            if value is not None:
                last[cell] = value
        self._done_ts = ts

    def _calc0(self, row: Sequence[Any]) -> None:
        """Timestamp 0 through the scalar half, *row* as its inputs."""
        for attr, value in zip(self.IN_ATTRS, row[1:]):
            setattr(self, attr, value)
        self._run_calc(0)

    def _calc_batch(self, rows: List[tuple]) -> None:
        """:meth:`feed_batch`'s rows as one columnar pass: one transpose
        into value columns and presence masks (a later row of a stream
        overwrote an earlier one already, as ``push`` does)."""
        np = self.NP
        prog = self.VPROG
        ts_col, *inputs = zip(*rows)
        length = len(ts_col)
        cols: List[Any] = [None] * prog.n_vslots
        masks: List[Any] = [None] * prog.n_vslots
        for (_name, vslot, dtype_name), values in zip(prog.col_inputs, inputs):
            if None in values:
                masks[vslot] = np.array(
                    [value is not None for value in values], dtype=bool
                )
                values = [0 if value is None else value for value in values]
            else:
                masks[vslot] = np.ones(length, dtype=bool)
            if dtype_name != "unit":
                cols[vslot] = np.array(
                    values, dtype=kernels.resolve_dtype(np, dtype_name)
                )
        ts_arr = np.array(ts_col, dtype=np.int64)
        from ..obs.trace import TRACER

        if TRACER.enabled:
            with TRACER.span("run.vector_batch"):
                self._vector_exec(ts_arr, cols, masks)
        else:
            self._vector_exec(ts_arr, cols, masks)

    # -- columnar ingestion ------------------------------------------------

    def feed_columns(
        self,
        timestamps: Sequence[int],
        columns: Mapping[str, Sequence[Any]],
    ) -> int:
        """Columnar ingestion: zero-copy handoff to the vector engine.

        Dense semantics: every stream in *columns* has an event at
        every timestamp; streams absent from *columns* have none.
        Timestamps must be strictly increasing.  Caller arrays are
        never mutated; numeric columns are consumed as numpy views
        without row conversion, and the timestamps stay one int64
        array through to emission, which converts only the rows where
        an output fires (its cost scales with firings, not with chunk
        length).  The final timestamp stays pending, exactly as with
        :meth:`feed_batch`.
        """
        if self._finished:
            return super().feed_columns(timestamps, columns)
        np = self.NP
        ts_arr = np.asarray(timestamps, dtype=np.int64)
        total = int(ts_arr.shape[0])
        input_attrs = type(self).INPUT_ATTRS
        for name, column in columns.items():
            if name not in input_attrs:
                raise MonitorError(f"unknown input stream {name!r}")
            if len(column) != total:
                raise MonitorError(
                    f"column {name!r} has {len(column)} values for"
                    f" {total} timestamps"
                )
            # Dense semantics: a hole is not expressible as None (that
            # is the no-event value) — validated eagerly, before any
            # slice executes, since numeric dtype conversion would
            # otherwise turn it into an opaque TypeError mid-batch.
            if (
                not hasattr(column, "dtype")
                or getattr(column.dtype, "kind", "O") == "O"
            ) and None in column:
                raise MonitorError(
                    "None is the no-event value; not a valid payload"
                )
        if total == 0:
            # After column validation: an unknown or ragged column is
            # reported even for an empty batch, exactly as the row shim
            # does.
            return 0
        first_ts = int(ts_arr[0])
        if first_ts < 0:
            raise MonitorError(f"negative timestamp {first_ts}")
        if first_ts <= self._done_ts:
            raise MonitorError(
                f"event at t={first_ts} arrived after t={self._done_ts}"
                " was calculated"
            )
        if total > 1 and bool((ts_arr[1:] <= ts_arr[:-1]).any()):
            raise MonitorError(
                "feed_columns() timestamps must be strictly increasing"
            )
        if not columns:
            return 0  # no stream has an event: the clock stays put
        pending = self._pending_ts
        if pending is not None and first_ts <= pending:
            # Merge corner (or an out-of-order error the row path
            # reports with its exact message): row-convert.
            return super().feed_columns(timestamps, columns)
        sliced = total - 1
        cols, masks = self._column_slots(columns, sliced)
        tail_ts = int(ts_arr[-1])
        try:
            if pending is not None:
                self._run_calc(pending)
                self._pending_ts = None
            if sliced == 0:
                self._catch_up(tail_ts)
            else:
                if self._done_ts < 0 and first_ts > 0:
                    self._run_calc(0)
                from ..obs.trace import TRACER

                if TRACER.enabled:
                    with TRACER.span("run.vector_batch"):
                        self._vector_exec(ts_arr[:sliced], cols, masks)
                else:
                    self._vector_exec(ts_arr[:sliced], cols, masks)
            self._set_column_tail(columns, sliced)
        except BaseException as exc:
            self._stop(f"feed_columns() raised {type(exc).__name__}")
            raise
        self._pending_ts = tail_ts
        return total * len(columns)

    def _column_slots(
        self, columns: Mapping[str, Sequence[Any]], sliced: int
    ) -> Tuple[List[Any], List[Any]]:
        """Per-slot value columns and presence masks over the first
        *sliced* timestamps of a dense block (no calculation)."""
        np = self.NP
        prog = self.VPROG
        cols: List[Any] = [None] * prog.n_vslots
        masks: List[Any] = [None] * prog.n_vslots
        if sliced == 0:
            return cols, masks
        for name, vslot, dtype_name in prog.col_inputs:
            column = columns.get(name)
            if column is None:
                masks[vslot] = np.zeros(sliced, dtype=bool)
                if dtype_name != "unit":
                    cols[vslot] = np.zeros(
                        sliced, dtype=kernels.resolve_dtype(np, dtype_name)
                    )
            else:
                masks[vslot] = np.ones(sliced, dtype=bool)
                if dtype_name != "unit":
                    # converted straight to the column dtype: a list is
                    # read once, an array of that dtype is a view
                    arr = np.asarray(
                        column, dtype=kernels.resolve_dtype(np, dtype_name)
                    )
                    cols[vslot] = arr[:sliced]
        return cols, masks

    def _set_column_tail(
        self, columns: Mapping[str, Sequence[Any]], index: int
    ) -> None:
        input_attrs = type(self).INPUT_ATTRS
        for name, column in columns.items():
            value = column[index]
            if hasattr(value, "item"):
                value = value.item()
            if value is None:
                raise MonitorError(
                    "None is the no-event value; not a valid payload"
                )
            setattr(self, input_attrs[name], value)

    # -- columnar execution ------------------------------------------------

    def _vector_exec(
        self, ts_arr: Any, cols: List[Any], masks: List[Any]
    ) -> None:
        """Run the columnar steps over one slice of unique timestamps.

        *ts_arr* is a one-dimensional int64 array; it may be a view of a
        caller's array, so no step writes it (``build_vector_program``
        protects the ``time()`` columns that alias it).
        """
        np = self.NP
        prog = self.VPROG
        registry = self.METRICS
        length = int(ts_arr.shape[0])
        arange = np.arange(length)
        if registry is not None:
            registry.inc("vector.batches")
            registry.inc("vector.rows", length)
        for step in prog.steps:
            kind = step[0]
            if kind == VOP_KERNEL:
                self._exec_kernel(np, length, cols, masks, step, registry)
            elif kind == VOP_MERGE:
                _k, dst, a, b, is_unit = step
                mask_a = masks[a]
                masks[dst] = mask_a | masks[b]
                cols[dst] = (
                    None if is_unit else np.where(mask_a, cols[a], cols[b])
                )
            elif kind == VOP_LAST:
                self._exec_last(np, length, arange, cols, masks, step)
            elif kind == VOP_SCAN:
                self._exec_scan(np, length, cols, masks, step, registry)
            elif kind == VOP_FILTER:
                _k, dst, value, cond, is_unit = step
                mask = masks[value] & masks[cond] & cols[cond]
                masks[dst] = mask
                cols[dst] = None if is_unit else cols[value]
            elif kind == VOP_AT:
                _k, dst, value, trigger, is_unit = step
                masks[dst] = masks[value] & masks[trigger]
                cols[dst] = None if is_unit else cols[value]
            elif kind == VOP_CONST:
                _k, dst, trigger, value, dtype_name = step
                masks[dst] = masks[trigger]
                cols[dst] = np.full(
                    length, value, dtype=kernels.resolve_dtype(np, dtype_name)
                )
            elif kind == VOP_TIME:
                masks[step[1]] = masks[step[2]]
                cols[step[1]] = ts_arr
            elif kind == VOP_UNIT:
                masks[step[1]] = ts_arr == 0
            else:  # VOP_NIL
                _k, dst, dtype_name = step
                masks[dst] = np.zeros(length, dtype=bool)
                cols[dst] = (
                    None
                    if dtype_name is None
                    else np.zeros(
                        length, dtype=kernels.resolve_dtype(np, dtype_name)
                    )
                )
        self._emit_columns(ts_arr, cols, masks)
        self._store_last_columns(np, cols, masks)
        self._done_ts = int(ts_arr[-1])

    def _exec_kernel(
        self,
        np: Any,
        length: int,
        cols: List[Any],
        masks: List[Any],
        step: tuple,
        registry: Any,
    ) -> None:
        _kind, dst, arg_vslots, kernel, dtype_name, donate, name = step
        mask = masks[arg_vslots[0]]
        for vslot in arg_vslots[1:]:
            mask = mask & masks[vslot]
        masks[dst] = mask
        if not mask.any():
            cols[dst] = np.empty(
                length, dtype=kernels.resolve_dtype(np, dtype_name)
            )
            return
        out = cols[arg_vslots[donate]] if donate >= 0 else None
        if mask.all():
            result = kernel.fn(np, out, *[cols[v] for v in arg_vslots])
        else:
            indices = np.flatnonzero(mask)
            gathered = [cols[v][indices] for v in arg_vslots]
            partial = kernel.fn(np, None, *gathered)
            buffer = (
                out
                if out is not None
                else np.empty(
                    length, dtype=kernels.resolve_dtype(np, dtype_name)
                )
            )
            buffer[indices] = partial
            result = buffer
        cols[dst] = result
        if registry is not None:
            registry.inc("vector.kernel." + kernel.name)
            stats = registry.stream(name)
            written = int(mask.sum())
            if donate >= 0:
                stats.inplace_updates += written
            else:
                stats.copies_performed += written

    def _exec_last(
        self,
        np: Any,
        length: int,
        arange: Any,
        cols: List[Any],
        masks: List[Any],
        step: tuple,
    ) -> None:
        _kind, dst, cell, src, trigger, is_unit = step
        mask_src = masks[src]
        mask_trigger = masks[trigger]
        carry = self._last_cells[cell]
        event_at = np.where(mask_src, arange, -1)
        running = np.maximum.accumulate(event_at)
        previous = np.empty(length, dtype=np.int64)
        previous[0] = -1
        previous[1:] = running[:-1]
        if is_unit:
            if carry is not None:
                masks[dst] = mask_trigger
            else:
                masks[dst] = mask_trigger & (previous >= 0)
            cols[dst] = None
            return
        gathered = cols[src][np.maximum(previous, 0)]
        if carry is None:
            masks[dst] = mask_trigger & (previous >= 0)
            cols[dst] = gathered
        else:
            masks[dst] = mask_trigger
            cols[dst] = np.where(previous >= 0, gathered, carry)

    def _exec_scan(
        self,
        np: Any,
        length: int,
        cols: List[Any],
        masks: List[Any],
        step: tuple,
        registry: Any,
    ) -> None:
        """One running-aggregate triple as a seeded prefix scan.

        ``ufunc.accumulate`` folds strictly left-to-right — the same
        order as the per-event feedback loop, so results are
        bit-identical (the dtype gate in :data:`kernels.SCAN_UFUNCS`
        excludes the one divergent case, float ``max``/``min``).  The
        cross-batch seed is the monitor's last cell for ``s``,
        which ``_store_last_columns`` keeps current because ``s`` is a
        ``last`` source.
        """
        (_kind, dst_h, dst_k, dst_s, cell, src_x,
         ufunc_name, dtype_name, name) = step
        mask = masks[src_x]
        dtype = kernels.resolve_dtype(np, dtype_name)
        ufunc = getattr(np, ufunc_name)
        carry = self._last_cells[cell]
        idx = np.flatnonzero(mask)
        vals = cols[src_x][idx]
        col_h = np.zeros(length, dtype=dtype)
        col_k = np.zeros(length, dtype=dtype)
        col_s = np.zeros(length, dtype=dtype)
        if carry is not None:
            seeded = np.empty(idx.size + 1, dtype=dtype)
            seeded[0] = carry
            seeded[1:] = vals
            acc = ufunc.accumulate(seeded)
            col_h[idx] = acc[:-1]
            col_k[idx] = acc[1:]
            col_s[idx] = acc[1:]
            masks[dst_h] = mask
            masks[dst_k] = mask
            masks[dst_s] = mask
        else:
            acc = ufunc.accumulate(vals)
            col_s[idx] = acc
            masks[dst_s] = mask
            if idx.size:
                # No seed: the first event only initializes ``s``; the
                # combine fires from the second event on.
                sub = mask.copy()
                sub[idx[0]] = False
                col_h[idx[1:]] = acc[:-1]
                col_k[idx[1:]] = acc[1:]
                masks[dst_h] = sub
                masks[dst_k] = sub
            else:
                masks[dst_h] = mask
                masks[dst_k] = mask
        cols[dst_h] = col_h
        cols[dst_k] = col_k
        cols[dst_s] = col_s
        if registry is not None:
            registry.inc("vector.kernel.scan_" + ufunc_name)
            stats = registry.stream(name)
            stats.copies_performed += int(idx.size)

    def _emit_columns(
        self, ts_arr: Any, cols: List[Any], masks: List[Any]
    ) -> None:
        # Convert only the rows where something fires: monitors whose
        # outputs are sparse alerts pay for firings, not batch length.
        sched = self.VPROG.out_sched
        if not sched:
            return
        any_mask = masks[sched[0][1]]
        for _name, vslot, _is_unit in sched[1:]:
            any_mask = any_mask | masks[vslot]
        rows = self.NP.flatnonzero(any_mask)
        if not rows.size:
            return
        outputs = [
            (
                name,
                masks[vslot][rows].tolist(),
                None if is_unit else cols[vslot][rows].tolist(),
            )
            for name, vslot, is_unit in sched
        ]
        emit = self._on_output
        n_out = 0
        try:
            for position, ts in enumerate(ts_arr[rows].tolist()):
                for name, fired, values in outputs:
                    if fired[position]:
                        n_out += 1
                        emit(
                            name,
                            ts,
                            UNIT_VALUE if values is None else values[position],
                        )
        finally:
            self._report.events_out += n_out

    def _store_last_columns(
        self, np: Any, cols: List[Any], masks: List[Any]
    ) -> None:
        cells = self._last_cells
        for vslot, cell, is_unit in self.VPROG.last_vec:
            indices = np.flatnonzero(masks[vslot])
            if indices.size:
                cells[cell] = (
                    UNIT_VALUE if is_unit else cols[vslot][indices[-1]].item()
                )


# ---------------------------------------------------------------------------
# Class builder


def make_vector_class(
    flat: FlatSpec,
    order: Sequence[str],
    backends: Mapping[str, Backend],
    default_backend: Backend = Backend.PERSISTENT,
    class_name: str = "VectorMonitor",
    error_policy: Optional[ErrorPolicy] = None,
    metrics: Optional[Any] = None,
    classification: Optional[VectorClassification] = None,
) -> type:
    """Build a vector-engine monitor class for a wholly eligible *flat*.

    The scalar half is built too: per-event ``push`` and the pending
    timestamp run on it.  A spec with an ineligible stream, or an error
    policy, is refused — the pipeline resolves those to the codegen
    engine.
    """
    np = kernels.numpy_module()
    if classification is None:
        classification = classify_vector(flat, error_policy=error_policy)
    if classification.auto_engine != "vector":
        raise ValueError(
            "spec is not vector-eligible (see its VEC001 notes) or has an"
            " error policy; compile it with the codegen engine"
        )
    return type(
        class_name,
        (VectorMonitorBase,),
        {
            "INPUTS": tuple(flat.inputs),
            "OUTPUTS": tuple(flat.outputs),
            "SCALAR": build_scalar_program(
                flat, order, backends, default_backend=default_backend
            ),
            "VPROG": build_vector_program(
                flat, classification, default_backend=default_backend
            ),
            "NP": np,
            "METRICS": metrics if (metrics and getattr(metrics, "enabled", True)) else None,
        },
    )
