"""Scala source emitter (the paper's actual target, §I/§III).

Emits a self-contained Scala object with the same two-section structure
as the Python backend: per-stream ``Option`` variables, a calculation
section in the translation order, ``last``/``nextTs`` state, and a
driver loop.  Streams in the mutability set use
``scala.collection.mutable`` collections, the rest
``scala.collection.immutable`` — exactly the paper's generated code.

This backend cannot be executed here (no JVM in the test environment);
it exists to demonstrate that the analysis results retarget cleanly,
and its tests check the structure of the emitted source.  Only
registry builtins carry Scala templates; ad-hoc ``pointwise`` functions
must provide one via their ``scala_template`` attribute or emission
fails with a clear error.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Sequence

from ..lang.ast import Delay, Last, Lift, Nil, TimeExpr, UnitExpr
from ..lang.builtins import EventPattern, LiftedFunction
from ..lang.spec import FlatSpec
from ..lang.types import (
    BOOL,
    FLOAT,
    INT,
    STR,
    UNIT,
    MapType,
    QueueType,
    SetType,
    Type,
    VectorType,
)
from ..structures import Backend
from .codegen import CodegenError

#: Scala expression templates per builtin; {0}, {1}, ... are arguments.
#: Mutable-collection write operations get a separate template (the
#: value is updated in place and then passed on).
_SCALA: Dict[str, str] = {
    "add": "({0} + {1})",
    "sub": "({0} - {1})",
    "mul": "({0} * {1})",
    "div": "({0} / {1})",
    "mod": "({0} % {1})",
    "neg": "(-{0})",
    "abs": "math.abs({0})",
    "fadd": "({0} + {1})",
    "fsub": "({0} - {1})",
    "fmul": "({0} * {1})",
    "fdiv": "({0} / {1})",
    "fabs": "math.abs({0})",
    "to_float": "({0}.toDouble)",
    "round": "math.round({0})",
    "eq": "({0} == {1})",
    "neq": "({0} != {1})",
    "lt": "({0} < {1})",
    "leq": "({0} <= {1})",
    "gt": "({0} > {1})",
    "geq": "({0} >= {1})",
    "and": "({0} && {1})",
    "or": "({0} || {1})",
    "not": "(!{0})",
    "ite": "(if ({0}) {1} else {2})",
    "min": "math.min({0}, {1})",
    "max": "math.max({0}, {1})",
    "str_concat": "({0} + {1})",
    "to_str": "({0}.toString)",
    "set_contains": "({0}.contains({1}))",
    "set_size": "({0}.size)",
    "map_contains": "({0}.contains({1}))",
    "map_size": "({0}.size)",
    "map_get_or": "({0}.getOrElse({1}, {2}))",
    "queue_size": "({0}.size)",
    "queue_front_or": "({0}.headOption.getOrElse({1}))",
    "vec_size": "({0}.size)",
    "vec_get_or": "(if ({1} >= 0 && {1} < {0}.size) {0}({1}) else {2})",
    "set_size_after_add": "({0}.size + (if ({0}.contains({1})) 0 else 1))",
    "set_contains_after_add": "({2} == {1} || {0}.contains({2}))",
    "map_get_or_after_put": "(if ({3} == {1}) {2} else {0}.getOrElse({3}, {4}))",
    "queue_size_after_enq": "({0}.size + 1)",
}

_SCALA_WRITE_PERSISTENT: Dict[str, str] = {
    "set_add": "({0} + {1})",
    "set_remove": "({0} - {1})",
    "set_toggle": "(if ({0}.contains({1})) {0} - {1} else {0} + {1})",
    "map_put": "({0} + ({1} -> {2}))",
    "map_remove": "({0} - {1})",
    "queue_enq": "({0}.enqueue({1}))",
    "queue_deq": "(if ({0}.nonEmpty) {0}.dequeue._2 else {0})",
    "queue_deq_if": "(if ({1} && {0}.nonEmpty) {0}.dequeue._2 else {0})",
    "vec_append": "({0} :+ {1})",
    "vec_set": "(if ({1} >= 0 && {1} < {0}.size) {0}.updated({1}, {2}) else {0})",
}

_SCALA_WRITE_MUTABLE: Dict[str, str] = {
    "set_add": "{{ {0} += {1}; {0} }}",
    "set_remove": "{{ {0} -= {1}; {0} }}",
    "set_toggle": "{{ if ({0}.contains({1})) {0} -= {1} else {0} += {1}; {0} }}",
    "map_put": "{{ {0}({1}) = {2}; {0} }}",
    "map_remove": "{{ {0} -= {1}; {0} }}",
    "queue_enq": "{{ {0} += {1}; {0} }}",
    "queue_deq": "{{ if ({0}.nonEmpty) {0}.dequeue(); {0} }}",
    "queue_deq_if": "{{ if ({1} && {0}.nonEmpty) {0}.dequeue(); {0} }}",
    "vec_append": "{{ {0} += {1}; {0} }}",
    "vec_set": "{{ if ({1} >= 0 && {1} < {0}.size) {0}({1}) = {2}; {0} }}",
}

#: Templates for non-strict (ANY/CUSTOM) functions; arguments are the
#: per-stream Option values.  Write variants (mutable, persistent) where
#: the function may modify its first argument.
_SCALA_OPTION: Dict[str, str] = {
    "filter": "(if ({1}.contains(true)) {0} else None)",
    "at": "(if ({1}.isDefined) {0} else None)",
}

_SCALA_OPTION_WRITE: Dict[str, Dict[bool, str]] = {
    "map_put_if": {
        False: "({0}.map(m => (for (k <- {1}; v <- {2}) yield m + (k -> v)).getOrElse(m)))",
        True: "({0}.map {{ m => for (k <- {1}; v <- {2}) m(k) = v; m }})",
    },
    "set_update_if": {
        False: "({0}.map(s => {2}.foldLeft({1}.foldLeft(s)(_ + _))(_ - _)))",
        True: "({0}.map {{ s => {1}.foreach(s += _); {2}.foreach(s -= _); s }})",
    },
}

_SCALA_EMPTY = {
    "set_empty": ("Set.empty{param}", "mutable.Set.empty{param}"),
    "map_empty": ("Map.empty{param}", "mutable.Map.empty{param}"),
    "queue_empty": (
        "Queue.empty{param}",
        "mutable.Queue.empty{param}",
    ),
    "vec_empty": ("Vector.empty{param}", "mutable.ArrayBuffer.empty{param}"),
}


def scala_type(ty: Type, mutable: bool = False) -> str:
    """The Scala rendering of a stream value type."""
    if ty == INT:
        return "Long"
    if ty == FLOAT:
        return "Double"
    if ty == BOOL:
        return "Boolean"
    if ty == STR:
        return "String"
    if ty == UNIT:
        return "Unit"
    prefix = "mutable." if mutable else ""
    if isinstance(ty, SetType):
        return f"{prefix}Set[{scala_type(ty.element)}]"
    if isinstance(ty, MapType):
        return f"{prefix}Map[{scala_type(ty.key)}, {scala_type(ty.value)}]"
    if isinstance(ty, QueueType):
        return f"{prefix}Queue[{scala_type(ty.element)}]"
    if isinstance(ty, VectorType):
        if mutable:
            return f"mutable.ArrayBuffer[{scala_type(ty.element)}]"
        return f"Vector[{scala_type(ty.element)}]"
    raise CodegenError(f"no Scala rendering for type {ty}")


def _scala_call(
    func: LiftedFunction, args: Sequence[str], mutable: bool, result_type: Type
) -> str:
    name = func.name
    if name in _SCALA_EMPTY:
        immutable_tpl, mutable_tpl = _SCALA_EMPTY[name]
        param = "[" + ", ".join(
            scala_type(p) for p in result_type.children()
        ) + "]"
        return (mutable_tpl if mutable else immutable_tpl).format(param=param)
    if name in _SCALA_WRITE_PERSISTENT:
        table = _SCALA_WRITE_MUTABLE if mutable else _SCALA_WRITE_PERSISTENT
        return table[name].format(*args)
    if name in _SCALA:
        return _SCALA[name].format(*args)
    if name.startswith("const("):
        literal = name[len("const("):-1]
        if literal in ("True", "False"):
            return literal.lower()
        return literal
    template = getattr(func, "scala_template", None)
    if template:
        return template.format(*args)
    raise CodegenError(
        f"no Scala template for lifted function {func.name!r};"
        " set its .scala_template attribute"
    )


class ScalaGenerator:
    """Emits one Scala object implementing the monitor."""

    def __init__(
        self,
        flat: FlatSpec,
        order: Sequence[str],
        backend_for: Callable[[str], Backend],
        object_name: str = "GeneratedMonitor",
    ) -> None:
        if sorted(order) != sorted(flat.streams):
            raise CodegenError("order must enumerate exactly the spec's streams")
        self.flat = flat
        self.order = list(order)
        self.backend_for = backend_for
        self.object_name = object_name

    def _is_mutable(self, name: str) -> bool:
        return self.backend_for(name) is Backend.MUTABLE

    def _var_type(self, name: str) -> str:
        return scala_type(self.flat.types[name], self._is_mutable(name))

    def _calc_line(self, name: str) -> str:
        expr = self.flat.definitions[name]
        if isinstance(expr, Nil):
            return f"v_{name} = None"
        if isinstance(expr, UnitExpr):
            return f"v_{name} = if (ts == 0L) Some(()) else None"
        if isinstance(expr, TimeExpr):
            return (
                f"v_{name} = if (v_{expr.operand.name}.isDefined)"
                " Some(ts) else None"
            )
        if isinstance(expr, Last):
            return (
                f"v_{name} = if (v_{expr.trigger.name}.isDefined)"
                f" last_{expr.value.name} else None"
            )
        if isinstance(expr, Delay):
            return (
                f"v_{name} = if (next_{name}.contains(ts))"
                " Some(()) else None"
            )
        assert isinstance(expr, Lift)
        if expr.func.name == "merge":
            a, b = (f"v_{x.name}" for x in expr.args)
            return f"v_{name} = {a}.orElse({b})"
        if expr.func.pattern is EventPattern.ALL:
            args = [f"v_{a.name}.get" for a in expr.args]
            call = _scala_call(
                expr.func, args, self._is_mutable(name), self.flat.types[name]
            )
            guard = " && ".join(f"v_{a.name}.isDefined" for a in expr.args)
            return f"v_{name} = if ({guard}) Some({call}) else None"
        # non-strict patterns operate on the Option values directly
        opt_args = [f"v_{a.name}" for a in expr.args]
        func_name = expr.func.name
        if func_name in _SCALA_OPTION:
            call_opt = _SCALA_OPTION[func_name].format(*opt_args)
        elif func_name in _SCALA_OPTION_WRITE:
            call_opt = _SCALA_OPTION_WRITE[func_name][
                self._is_mutable(name)
            ].format(*opt_args)
        else:
            template = getattr(expr.func, "scala_option_template", None)
            if not template:
                raise CodegenError(
                    f"no Scala Option-template for non-strict function"
                    f" {func_name!r}; set its .scala_option_template"
                )
            call_opt = template.format(*opt_args)
        return f"v_{name} = {call_opt}"

    def source(self) -> str:
        flat = self.flat
        delays = [
            n for n, e in flat.definitions.items() if isinstance(e, Delay)
        ]
        last_values = sorted(
            {
                e.value.name
                for e in flat.definitions.values()
                if isinstance(e, Last)
            }
        )
        lines: List[str] = [
            "import scala.collection.mutable",
            "import scala.collection.immutable.{Map, Queue, Set, Vector}",
            "",
            f"object {self.object_name} {{",
            "  type Time = Long",
            "",
        ]
        # state
        for name in flat.streams:
            lines.append(
                f"  var v_{name}: Option[{self._var_type(name)}] = None"
            )
        for name in last_values:
            lines.append(
                f"  var last_{name}: Option[{self._var_type(name)}] = None"
            )
        for name in delays:
            lines.append(f"  var next_{name}: Option[Time] = None")
        # calculation section
        lines += ["", "  def calc(ts: Time): Unit = {"]
        for name in self.order:
            if name in flat.inputs:
                continue
            lines.append("    " + self._calc_line(name))
        for name in flat.outputs:
            lines.append(
                f'    v_{name}.foreach(v => println(s"$ts,{name},$v"))'
            )
        for name in last_values:
            lines.append(f"    if (v_{name}.isDefined) last_{name} = v_{name}")
        for name in delays:
            expr = flat.definitions[name]
            assert isinstance(expr, Delay)
            lines.append(
                f"    if (v_{expr.reset.name}.isDefined ||"
                f" v_{name}.isDefined)"
            )
            lines.append(
                f"      next_{name} = v_{expr.delay.name}.map(ts + _)"
            )
        for name in flat.streams:
            lines.append(f"    v_{name} = None")
        lines.append("  }")
        # triggering section (driver skeleton)
        lines += [
            "",
            "  def nextDelay: Option[Time] =",
        ]
        if delays:
            opts = ", ".join(f"next_{d}" for d in delays)
            lines.append(f"    Seq({opts}).flatten.minOption")
        else:
            lines.append("    None")
        lines += [
            "",
            "  def run(events: Iterator[(Time, String, Any)]): Unit = {",
            "    var pending: Option[Time] = None",
            "    for ((ts, name, value) <- events) {",
            "      if (pending.exists(_ < ts)) { calc(pending.get); pending = None }",
            "      var nd = nextDelay",
            "      while (nd.exists(_ < ts)) { calc(nd.get); nd = nextDelay }",
            "      pending = Some(ts)",
            "      setInput(name, value)",
            "    }",
            "    pending.foreach(calc)",
            "  }",
            "",
            "  def setInput(name: String, value: Any): Unit = name match {",
        ]
        for name in flat.inputs:
            scala_ty = self._var_type(name)
            lines.append(
                f'    case "{name}" =>'
                f" v_{name} = Some(value.asInstanceOf[{scala_ty}])"
            )
        lines += [
            '    case other => sys.error(s"unknown input $other")',
            "  }",
            "}",
        ]
        return "\n".join(lines) + "\n"


def generate_scala_source(
    flat: FlatSpec,
    order: Sequence[str],
    backends: Mapping[str, Backend],
    default_backend: Backend = Backend.PERSISTENT,
    object_name: str = "GeneratedMonitor",
) -> str:
    """Emit Scala monitor source for *flat* under the given backends."""
    generator = ScalaGenerator(
        flat,
        order,
        lambda name: backends.get(name, default_backend),
        object_name,
    )
    return generator.source()
