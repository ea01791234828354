"""Execution planning: flat spec → precomputed dispatch plan.

The planning stage lowers a translation order into an
:class:`ExecutionPlan`: a flat, array-shaped program for the
calculation section.  Every stream gets an integer *slot*; every
operator becomes one row of parallel tuples (opcode, destination slot,
argument slots, resolved lift callable).  Executing a timestamp is then
a single loop over index arrays — no per-event dictionary lookups, no
attribute chasing, and no AST in sight.

Three consumers:

* :func:`make_plan_class` — the ``engine="plan"`` monitor: a
  :class:`MonitorBase` subclass whose ``_calc`` interprets the plan
  over a preallocated slot list.  Differentially identical to the
  generated engine.
* the plan cache (:mod:`repro.compiler.plancache`) — the analysis
  outputs a plan is built from (translation order, per-stream backend
  choices) are exactly what gets persisted and reloaded, so repeated
  compilations of an unchanged spec skip the analysis entirely.
* tooling — :meth:`ExecutionPlan.describe` renders the plan as a
  readable program listing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ErrorPolicy, ErrorValue
from ..lang.ast import Delay, Last, Lift, Nil, TimeExpr, UnitExpr
from ..lang.builtins import EventPattern
from ..lang.spec import FlatSpec
from ..structures import Backend
from .codegen import CodegenError
from .monitor import UNIT_VALUE, MonitorBase
from .runtime import RunReport, delay_next, wrap_lift

#: Plan opcodes.  NIL streams compile to no op at all (their slot just
#: stays ``None``), so the smallest opcode is UNIT.
OP_UNIT = 0
OP_TIME = 1
OP_LAST = 2
OP_DELAY = 3
OP_MERGE = 4
OP_LIFT_ALL = 5
OP_LIFT_ANY = 6

_OP_NAMES = {
    OP_UNIT: "unit",
    OP_TIME: "time",
    OP_LAST: "last",
    OP_DELAY: "delay",
    OP_MERGE: "merge",
    OP_LIFT_ALL: "lift",
    OP_LIFT_ANY: "lift",
}


@dataclass(frozen=True)
class ExecutionPlan:
    """A flat dispatch program for one compiled specification.

    All sequences are tuples of primitive indices, precomputed once at
    compile time.  ``ops`` rows are ``(opcode, dst_slot, arg_indices,
    callable)``; the meaning of ``arg_indices`` depends on the opcode:

    * ``OP_UNIT`` — empty,
    * ``OP_TIME`` / ``OP_MERGE`` / ``OP_LIFT_*`` — argument slots,
    * ``OP_LAST`` — ``(last_index, trigger_slot)``,
    * ``OP_DELAY`` — ``(delay_index,)``.
    """

    #: stream name → slot index (inputs first, then definitions).
    slot_of: Mapping[str, int]
    n_slots: int
    #: ``(slot, "_in_<name>", name)`` per input stream.
    input_loads: Tuple[Tuple[int, str, str], ...]
    ops: Tuple[Tuple[int, int, Tuple[int, ...], Optional[Callable]], ...]
    #: ``(name, slot)`` per output stream, in declaration order.
    outputs: Tuple[Tuple[str, int], ...]
    #: ``(src_slot, last_index)`` — store surviving ``last`` values.
    last_stores: Tuple[Tuple[int, int], ...]
    n_last: int
    #: ``(delay_index, own_slot, reset_slot, amount_slot)`` per delay.
    delay_arms: Tuple[Tuple[int, int, int, int], ...]
    n_delays: int
    error_mode: bool
    #: per-slot backend choice (the mutability analysis, flattened).
    slot_backends: Tuple[Optional[Backend], ...] = field(default=())

    def describe(self) -> str:
        """The plan as a readable program listing (for tooling/tests)."""
        name_of = {slot: name for name, slot in self.slot_of.items()}
        lines = [
            f"plan: {self.n_slots} slots, {len(self.ops)} ops,"
            f" {self.n_last} last cells, {self.n_delays} delay cells"
        ]
        for slot, _attr, name in self.input_loads:
            lines.append(f"  s{slot:<3} <- input {name}")
        for opcode, dst, args, fn in self.ops:
            op = _OP_NAMES[opcode]
            detail = f" {fn.__name__}" if fn is not None else ""
            argtext = ", ".join(f"s{a}" for a in args)
            lines.append(
                f"  s{dst:<3} <- {op}{detail}({argtext})"
                f"   # {name_of.get(dst, '?')}"
            )
        for name, slot in self.outputs:
            lines.append(f"  out {name} <- s{slot}")
        return "\n".join(lines)


def build_plan(
    flat: FlatSpec,
    order: Sequence[str],
    backends: Mapping[str, Backend],
    default_backend: Backend = Backend.PERSISTENT,
    error_policy: Optional[ErrorPolicy] = None,
    metrics: Optional[Any] = None,
) -> ExecutionPlan:
    """Lower *flat* along *order* into an :class:`ExecutionPlan`."""
    if sorted(order) != sorted(flat.streams):
        raise CodegenError("order must enumerate exactly the spec's streams")
    error_mode = error_policy is not None
    slot_of: Dict[str, int] = {
        name: index for index, name in enumerate(flat.streams)
    }
    input_loads = tuple(
        (slot_of[name], "_in_" + name, name) for name in flat.inputs
    )
    last_index: Dict[str, int] = {}
    for expr in flat.definitions.values():
        if isinstance(expr, Last):
            last_index.setdefault(expr.value.name, len(last_index))
    delay_index: Dict[str, int] = {}
    for name, expr in flat.definitions.items():
        if isinstance(expr, Delay):
            delay_index.setdefault(name, len(delay_index))

    ops: List[Tuple[int, int, Tuple[int, ...], Optional[Callable]]] = []
    for name in order:
        expr = flat.definitions.get(name)
        if expr is None:  # input streams are loaded, not computed
            continue
        dst = slot_of[name]
        if isinstance(expr, Nil):
            continue  # the slot simply stays None
        if isinstance(expr, UnitExpr):
            ops.append((OP_UNIT, dst, (), None))
        elif isinstance(expr, TimeExpr):
            ops.append((OP_TIME, dst, (slot_of[expr.operand.name],), None))
        elif isinstance(expr, Last):
            ops.append(
                (
                    OP_LAST,
                    dst,
                    (last_index[expr.value.name], slot_of[expr.trigger.name]),
                    None,
                )
            )
        elif isinstance(expr, Delay):
            ops.append((OP_DELAY, dst, (delay_index[name],), None))
        else:
            assert isinstance(expr, Lift)
            arg_slots = tuple(slot_of[arg.name] for arg in expr.args)
            if expr.func.name == "merge":
                ops.append((OP_MERGE, dst, arg_slots, None))
                continue
            impl = expr.func.bind(backends.get(name, default_backend))
            if metrics is not None:
                from ..obs.metrics import instrument_lift

                impl = instrument_lift(impl, expr.func, name, metrics)
            if error_mode:
                impl = wrap_lift(name, expr.func.name, impl, error_policy)
            opcode = (
                OP_LIFT_ALL
                if expr.func.pattern is EventPattern.ALL
                else OP_LIFT_ANY
            )
            ops.append((opcode, dst, arg_slots, impl))

    last_stores = tuple(
        (slot_of[name], index) for name, index in last_index.items()
    )
    delay_arms = []
    for name, index in delay_index.items():
        expr = flat.definitions[name]
        assert isinstance(expr, Delay)
        delay_arms.append(
            (
                index,
                slot_of[name],
                slot_of[expr.reset.name],
                slot_of[expr.delay.name],
            )
        )
    slot_backends = tuple(
        backends.get(name) for name in flat.streams
    )
    return ExecutionPlan(
        slot_of=slot_of,
        n_slots=len(slot_of),
        input_loads=input_loads,
        ops=tuple(ops),
        outputs=tuple((name, slot_of[name]) for name in flat.outputs),
        last_stores=last_stores,
        n_last=len(last_index),
        delay_arms=tuple(delay_arms),
        n_delays=len(delay_index),
        error_mode=error_mode,
        slot_backends=slot_backends,
    )


class PlanMonitorBase(MonitorBase):
    """Monitor executing an :class:`ExecutionPlan` over slot arrays."""

    PLAN: ExecutionPlan = None  # type: ignore[assignment]
    SOURCE = "<plan engine — flat dispatch plan, no generated source>"

    def _init_state(self) -> None:
        plan = self.PLAN
        self._values: List[Any] = [None] * plan.n_slots
        self._last_cells: List[Any] = [None] * plan.n_last
        self._next_cells: List[Optional[int]] = [None] * plan.n_delays
        for _slot, attr, _name in plan.input_loads:
            setattr(self, attr, None)
        if plan.error_mode:
            self._report = RunReport()

    def _calc(self, ts: int) -> None:
        plan = self.PLAN
        values = self._values
        for i in range(len(values)):
            values[i] = None
        for slot, attr, _name in plan.input_loads:
            values[slot] = getattr(self, attr)
        last = self._last_cells
        nxt = self._next_cells
        error_mode = plan.error_mode
        rep = self._report if error_mode else None
        for opcode, dst, args, fn in plan.ops:
            if opcode == OP_LIFT_ALL:
                triggered = True
                for a in args:
                    if values[a] is None:
                        triggered = False
                        break
                if triggered:
                    if error_mode:
                        values[dst] = fn(rep, ts, *[values[a] for a in args])
                    else:
                        values[dst] = fn(*[values[a] for a in args])
            elif opcode == OP_MERGE:
                first = values[args[0]]
                values[dst] = first if first is not None else values[args[1]]
            elif opcode == OP_LIFT_ANY:
                triggered = False
                for a in args:
                    if values[a] is not None:
                        triggered = True
                        break
                if triggered:
                    if error_mode:
                        values[dst] = fn(rep, ts, *[values[a] for a in args])
                    else:
                        values[dst] = fn(*[values[a] for a in args])
            elif opcode == OP_LAST:
                if values[args[1]] is not None:
                    values[dst] = last[args[0]]
            elif opcode == OP_TIME:
                if values[args[0]] is not None:
                    values[dst] = ts
            elif opcode == OP_UNIT:
                if ts == 0:
                    values[dst] = UNIT_VALUE
            else:  # OP_DELAY
                if nxt[args[0]] == ts:
                    values[dst] = UNIT_VALUE
        emit = self._on_output
        for name, slot in plan.outputs:
            value = values[slot]
            if value is not None:
                if error_mode and value.__class__ is ErrorValue:
                    rep.error_outputs += 1
                emit(name, ts, value)
        for src_slot, index in plan.last_stores:
            value = values[src_slot]
            if value is not None:
                last[index] = value
        for index, own_slot, reset_slot, amount_slot in plan.delay_arms:
            if (
                values[reset_slot] is not None
                or values[own_slot] is not None
            ):
                amount = values[amount_slot]
                if error_mode:
                    nxt[index] = delay_next(rep, ts, amount)
                else:
                    nxt[index] = ts + amount if amount is not None else None
        for _slot, attr, _name in plan.input_loads:
            setattr(self, attr, None)

    def _next_delay(self) -> Optional[int]:
        pending = [t for t in self._next_cells if t is not None]
        return min(pending) if pending else None


def make_plan_class(
    flat: FlatSpec,
    order: Sequence[str],
    backends: Mapping[str, Backend],
    default_backend: Backend = Backend.PERSISTENT,
    class_name: str = "PlanMonitor",
    error_policy: Optional[ErrorPolicy] = None,
    metrics: Optional[Any] = None,
) -> type:
    """Build a plan-engine monitor class for *flat*.

    Same analysis inputs as the generated engine; only
    the execution strategy differs (flat dispatch over slot arrays).
    """
    plan = build_plan(
        flat,
        order,
        backends,
        default_backend=default_backend,
        error_policy=error_policy,
        metrics=metrics,
    )
    return type(
        class_name,
        (PlanMonitorBase,),
        {
            "INPUTS": tuple(flat.inputs),
            "OUTPUTS": tuple(flat.outputs),
            "HAS_DELAYS": plan.n_delays > 0,
            "PLAN": plan,
        },
    )
