"""Tests for type inference on flat specifications."""

import pytest

from repro.lang import (
    BOOL,
    Const,
    INT,
    Last,
    Lift,
    Merge,
    Nil,
    SetType,
    SpecError,
    Specification,
    TimeExpr,
    UNIT,
    UnitExpr,
    Var,
    check_types,
    flatten,
)
from repro.lang.builtins import builtin
from repro.lang.types import MapType, QueueType
from repro.speclib import fig1_spec, seen_set


def infer(spec):
    flat = flatten(spec)
    return check_types(flat), flat


class TestInference:
    def test_fig1(self):
        types, _ = infer(fig1_spec())
        assert types["y"] == SetType(INT)
        assert types["yl"] == SetType(INT)
        assert types["m"] == SetType(INT)
        assert types["s"] == BOOL

    def test_time_is_int(self):
        types, _ = infer(
            Specification(inputs={"i": BOOL}, definitions={"t": TimeExpr(Var("i"))})
        )
        assert types["t"] == INT

    def test_unit(self):
        spec = Specification(inputs={}, definitions={"u": UnitExpr()})
        types, _ = infer(spec)
        assert types["u"] == UNIT

    def test_nil_annotated_type(self):
        spec = Specification(inputs={}, definitions={"n": Nil(SetType(INT))})
        types, _ = infer(spec)
        assert types["n"] == SetType(INT)

    def test_last_propagates_value_type(self):
        spec = Specification(
            inputs={"v": BOOL, "t": INT},
            definitions={"l": Last(Var("v"), Var("t"))},
        )
        types, _ = infer(spec)
        assert types["l"] == BOOL

    def test_polymorphic_merge_resolves(self):
        spec = Specification(
            inputs={"a": BOOL, "b": BOOL},
            definitions={"m": Merge(Var("a"), Var("b"))},
        )
        types, _ = infer(spec)
        assert types["m"] == BOOL

    def test_conflicting_merge_rejected(self):
        spec = Specification(
            inputs={"a": BOOL, "b": INT},
            definitions={"m": Merge(Var("a"), Var("b"))},
        )
        with pytest.raises(SpecError, match="type error"):
            infer(spec)

    def test_arity_mismatch_rejected(self):
        spec = Specification(
            inputs={"a": INT},
            definitions={"x": Lift(builtin("add"), (Var("a"),))},
        )
        with pytest.raises(SpecError, match="expects 2"):
            infer(spec)

    def test_unresolved_needs_annotation(self):
        # A set built only from empty + last: the element type is free.
        spec = Specification(
            inputs={"t": INT},
            definitions={
                "e": Lift(builtin("set_empty"), (UnitExpr(),)),
            },
        )
        with pytest.raises(SpecError, match="annotation"):
            infer(spec)

    def test_annotation_resolves(self):
        spec = Specification(
            inputs={"t": INT},
            definitions={"e": Lift(builtin("set_empty"), (UnitExpr(),))},
            type_annotations={"e": SetType(INT)},
        )
        types, _ = infer(spec)
        assert types["e"] == SetType(INT)

    def test_annotation_conflict_rejected(self):
        spec = Specification(
            inputs={"i": INT},
            definitions={"t": TimeExpr(Var("i"))},
            type_annotations={"t": BOOL},
        )
        # the conflict is reported either at the annotation or when the
        # equation contradicts it — both are SpecErrors
        with pytest.raises(SpecError, match="annotation mismatch|type error"):
            infer(spec)

    def test_nested_complex_rejected(self):
        spec = Specification(
            inputs={},
            definitions={"n": Nil(SetType(QueueType(INT)))},
        )
        with pytest.raises(SpecError, match="nested complex"):
            infer(spec)

    def test_map_inference_through_put(self):
        spec = Specification(
            inputs={"k": INT, "v": BOOL},
            definitions={
                "e": Lift(builtin("map_empty"), (UnitExpr(),)),
                "m": Lift(builtin("map_put"), (Var("e"), Var("k"), Var("v"))),
            },
        )
        types, _ = infer(spec)
        assert types["m"] == MapType(INT, BOOL)
        assert types["e"] == MapType(INT, BOOL)

    def test_delay_types(self):
        from repro.lang import Delay

        spec = Specification(
            inputs={"d": INT, "r": BOOL},
            definitions={"z": Delay(Var("d"), Var("r"))},
        )
        types, _ = infer(spec)
        assert types["z"] == UNIT

    def test_delay_requires_int_delay(self):
        from repro.lang import Delay

        spec = Specification(
            inputs={"d": BOOL, "r": BOOL},
            definitions={"z": Delay(Var("d"), Var("r"))},
        )
        with pytest.raises(SpecError, match="type error"):
            infer(spec)

    def test_types_stored_on_flatspec(self):
        types, flat = infer(seen_set())
        assert flat.types == types
        assert flat.types["seen"] == SetType(INT)

    def test_const_types(self):
        spec = Specification(
            inputs={},
            definitions={"c": Const(3.5)},
        )
        types, _ = infer(spec)
        from repro.lang import FLOAT

        assert types["c"] == FLOAT



ORDERED_OVER_SET = """\
in i: Int
def m  := merge(y, set_empty(unit))
def yl := last(m, i)
def y  := set_add(yl, i)
def z  := {expr}
out z
"""


class TestOrderingOverAggregates:
    # Python's <= is a subset test on a bare set and a TypeError on a
    # persistent one: both compiles must reject the spec the same way.
    @pytest.mark.parametrize(
        "op, expr",
        [
            ("min", "set_size(min(y, y))"),
            ("max", "set_size(max(y, y))"),
            ("lt", "lt(y, yl)"),
            ("leq", "leq(y, yl)"),
            ("gt", "gt(y, yl)"),
            ("geq", "geq(y, yl)"),
        ],
    )
    @pytest.mark.parametrize("optimize", [True, False])
    def test_ordering_over_set_rejected(self, op, expr, optimize):
        from repro import api

        with pytest.raises(SpecError) as info:
            api.compile(
                ORDERED_OVER_SET.format(expr=expr),
                api.CompileOptions(optimize=optimize),
            )
        assert f"{op} orders its arguments" in str(info.value)
        assert "aggregate type Set<Int>" in str(info.value)

    def test_ordering_over_scalars_accepted(self):
        spec = Specification(
            inputs={"a": INT, "b": INT},
            definitions={"m": Lift(builtin("max"), (Var("a"), Var("b")))},
        )
        types, _ = infer(spec)
        assert types["m"] == INT
