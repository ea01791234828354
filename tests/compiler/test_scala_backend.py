"""Tests for the Scala source emitter (structural — no JVM here)."""

import pytest

from repro.analysis import analyze_mutability
from repro.compiler.codegen import CodegenError
from repro.compiler.scala_backend import (
    _scala_call,
    generate_scala_source,
    scala_type,
)
from repro.graph import build_usage_graph, translation_order
from repro.lang import (
    BOOL,
    FLOAT,
    INT,
    Lift,
    Specification,
    Var,
    check_types,
    flatten,
)
from repro.lang.builtins import FUSIONS, builtin, pointwise
from repro.lang.types import MapType, QueueType, SetType, VectorType
from repro.speclib import db_access_constraint, fig1_spec, fig4_lower_spec
from repro.structures import Backend


def emit(spec, optimize=True):
    flat = flatten(spec)
    check_types(flat)
    if optimize:
        result = analyze_mutability(flat)
        backends = {n: result.backend_for(n) for n in flat.streams}
        order = result.order
    else:
        order = translation_order(build_usage_graph(flat))
        backends = {}
    return generate_scala_source(flat, order, backends)


class TestScalaTypes:
    def test_primitives(self):
        assert scala_type(INT) == "Long"
        assert scala_type(FLOAT) == "Double"
        assert scala_type(BOOL) == "Boolean"

    def test_collections(self):
        assert scala_type(SetType(INT)) == "Set[Long]"
        assert scala_type(SetType(INT), mutable=True) == "mutable.Set[Long]"
        assert scala_type(MapType(INT, BOOL)) == "Map[Long, Boolean]"
        assert scala_type(QueueType(FLOAT), mutable=True) == "mutable.Queue[Double]"
        assert scala_type(VectorType(INT)) == "Vector[Long]"
        assert (
            scala_type(VectorType(INT), mutable=True)
            == "mutable.ArrayBuffer[Long]"
        )


class TestEmission:
    def test_fig1_optimized_uses_mutable_collections(self):
        source = emit(fig1_spec(), optimize=True)
        assert "object GeneratedMonitor {" in source
        assert "mutable.Set.empty[Long]" in source
        assert "+=" in source  # in-place set_add
        assert "def calc(ts: Time): Unit" in source
        assert "def run(events" in source

    def test_fig1_unoptimized_uses_immutable_collections(self):
        source = emit(fig1_spec(), optimize=False)
        assert "Set.empty[Long]" in source
        assert "mutable.Set" not in source
        assert "({0}" not in source  # all templates were instantiated

    def test_fig4_lower_optimized_stays_immutable(self):
        source = emit(fig4_lower_spec(), optimize=True)
        assert "mutable.Set" not in source

    def test_read_ordered_before_write(self):
        source = emit(fig1_spec(), optimize=True)
        assert source.index("v_s = if") < source.index("v_y = if")

    def test_custom_write_function_emitted(self):
        source = emit(db_access_constraint(), optimize=True)
        # set_update_if has an Option-level mutable template
        assert "foreach(s += _)" in source

    def test_outputs_printed(self):
        source = emit(fig1_spec())
        assert 'println(s"$ts,s,$v")' in source

    def test_inputs_dispatch(self):
        source = emit(fig1_spec())
        assert 'case "i" =>' in source
        assert "asInstanceOf[Long]" in source

    def test_delay_state(self):
        from repro.lang import Delay, TimeExpr

        spec = Specification(
            inputs={"r": INT},
            definitions={"z": Delay(Var("r"), Var("r")), "t": TimeExpr(Var("z"))},
            outputs=["t"],
        )
        source = emit(spec)
        assert "var next_z: Option[Time] = None" in source
        assert "next_z = v_r.map(ts + _)" in source
        assert "Seq(next_z).flatten.minOption" in source

    def test_pointwise_without_template_rejected(self):
        inc = pointwise("inc", lambda x: x + 1, (INT,), INT)
        spec = Specification(
            inputs={"i": INT},
            definitions={"n": Lift(inc, (Var("i"),))},
        )
        with pytest.raises(CodegenError, match="no Scala template"):
            emit(spec)

    def test_pointwise_with_template_accepted(self):
        inc = pointwise("inc", lambda x: x + 1, (INT,), INT)
        inc.scala_template = "({0} + 1L)"
        spec = Specification(
            inputs={"i": INT},
            definitions={"n": Lift(inc, (Var("i"),))},
        )
        source = emit(spec)
        assert "(v_i.get + 1L)" in source

    def test_constants_inlined(self):
        from repro.lang import Const, Merge

        spec = Specification(
            inputs={"i": INT},
            definitions={"d": Merge(Var("i"), Const(7))},
        )
        source = emit(spec)
        assert "Some(7)" in source

    def test_balanced_braces(self):
        for spec in (fig1_spec(), db_access_constraint()):
            source = emit(spec)
            assert source.count("{") == source.count("}")


class TestRandomStructural:
    """Emitted Scala must be structurally sane for arbitrary registry-only
    specifications (balanced braces, every stream declared, every
    calculated)."""

    @staticmethod
    def _registry_only(spec):
        from repro.lang.ast import Lift, SLift, walk

        for expr in spec.definitions.values():
            for node in walk(expr):
                if isinstance(node, (Lift, SLift)):
                    from repro.lang.builtins import REGISTRY

                    if REGISTRY.get(node.func.name) is not node.func and not (
                        node.func.name.startswith("const(")
                    ):
                        return False
        return True

    def test_random_specs_emit_sane_scala(self):
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        from ..integration.specgen import specifications

        @settings(
            max_examples=30,
            deadline=None,
            suppress_health_check=[
                HealthCheck.too_slow,
                HealthCheck.data_too_large,
            ],
        )
        @given(data=st.data())
        def check(data):
            spec = data.draw(specifications())
            if not self._registry_only(spec):
                return  # pointwise-bearing specs have no Scala templates
            source = emit(spec, optimize=True)
            assert source.count("{") == source.count("}")
            assert source.count("(") == source.count(")")
            from repro.lang import flatten

            flat = flatten(spec)
            for name in flat.streams:
                assert f"var v_{name}: Option[" in source
            for name in flat.definitions:
                assert f"v_{name} = " in source

        check()


class TestFusedBuiltins:
    """The write-then-read fused builtins (OPT008) render in Scala."""

    #: perfbench's ``uncertified`` workload: Fig. 4 (lower) with only
    #: the fork's size emitted.
    UNCERTIFIED_TEXT = """\
in i1: Int
in i2: Int
def m := merge(y, set_empty(unit))
def yl := last(m, i1)
def y := set_add(yl, i1)
def yp := last(y, i2)
def s := set_add(yp, i2)
def n := set_size(s)
out n
"""

    @pytest.mark.parametrize(
        "fused",
        sorted(FUSIONS.values(), key=lambda f: f.name),
        ids=lambda f: f.name,
    )
    def test_every_fused_builtin_has_a_template(self, fused):
        args = [f"a{k}" for k in range(fused.arity)]
        rendered = _scala_call(fused, args, False, fused.result_type)
        assert "{" not in rendered
        assert "a0" in rendered  # the unwritten aggregate

    def test_emit_scala_on_the_fused_uncertified_spec(self, tmp_path, capsys):
        from repro.cli import main
        from repro.frontend import parse_spec, unparse_flat
        from repro.opt import fuse_write_reads

        flat = flatten(parse_spec(self.UNCERTIFIED_TEXT))
        check_types(flat)
        fused, records = fuse_write_reads(flat)
        assert [r.detail["fused"] for r in records] == ["set_size_after_add"]
        path = tmp_path / "fused.tessla"
        path.write_text(unparse_flat(fused))
        assert main(["emit-scala", str(path)]) == 0
        source = capsys.readouterr().out
        assert (
            "(v_yp.get.size + (if (v_yp.get.contains(v_i2.get)) 0 else 1))"
            in source
        )
        assert "mutable.Set" in source  # the fused family is certified
