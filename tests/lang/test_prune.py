"""Tests for dead-stream elimination (now `repro.opt.project_live`)."""

from repro.compiler import build_compiled_spec
from repro.lang import (
    Const,
    Delay,
    INT,
    Last,
    Lift,
    Merge,
    Specification,
    TimeExpr,
    UnitExpr,
    Var,
    check_types,
    flatten,
)
from repro.lang.builtins import builtin
from repro.lang.prune import live_streams
from repro.opt import project_live
from repro.speclib import fig1_spec
from repro.testing import assert_equivalent


def flat_of(spec):
    flat = flatten(spec)
    check_types(flat)
    return flat


class TestLiveness:
    def test_everything_live_in_fig1(self):
        flat = flat_of(fig1_spec())
        assert live_streams(flat) >= set(flat.definitions)

    def test_dead_branch_detected(self):
        spec = Specification(
            inputs={"i": INT},
            definitions={
                "used": TimeExpr(Var("i")),
                "dead1": Merge(Var("i"), Const(1)),
                "dead2": TimeExpr(Var("dead1")),
            },
            outputs=["used"],
        )
        flat = flat_of(spec)
        live = live_streams(flat)
        assert "used" in live
        assert "dead1" not in live
        assert "dead2" not in live

    def test_last_state_dependencies_kept(self):
        spec = Specification(
            inputs={"i": INT},
            definitions={
                "keeper": Last(Var("chain"), Var("i")),
                "chain": Merge(Var("i"), Const(0)),
            },
            outputs=["keeper"],
        )
        live = live_streams(flat_of(spec))
        assert "chain" in live

    def test_delay_dependencies_kept(self):
        spec = Specification(
            inputs={"r": INT},
            definitions={
                "z": Delay(Var("d"), Var("r")),
                "d": Merge(Var("r"), Const(5)),
                "t": TimeExpr(Var("z")),
            },
            outputs=["t"],
        )
        live = live_streams(flat_of(spec))
        assert {"z", "d"} <= live


class TestProjectLive:
    def _spec_with_dead_aggregate(self):
        return Specification(
            inputs={"i": INT},
            definitions={
                "out_t": TimeExpr(Var("i")),
                # a whole dead accumulator family
                "m": Merge(Var("y"), Lift(builtin("set_empty"), (UnitExpr(),))),
                "yl": Last(Var("m"), Var("i")),
                "y": Lift(builtin("set_add"), (Var("yl"), Var("i"))),
            },
            outputs=["out_t"],
        )

    def test_projection_removes_dead_family(self):
        flat = flat_of(self._spec_with_dead_aggregate())
        pruned = project_live(flat)
        assert set(pruned.definitions) == {"out_t"}
        assert pruned.inputs == flat.inputs  # interface unchanged

    def test_projection_noop_returns_same_object(self):
        flat = flat_of(fig1_spec())
        assert project_live(flat) is flat

    def test_pruned_compiles_and_agrees(self):
        spec = self._spec_with_dead_aggregate()
        trace = {"i": [(1, 4), (3, 7)]}
        expected = assert_equivalent(spec, trace)
        compiled = build_compiled_spec(project_live(flat_of(spec)))
        pruned_out = compiled.run_traces(trace)
        assert {n: s.events for n, s in pruned_out.items()} == expected

    def test_pruned_monitor_is_smaller(self):
        spec = self._spec_with_dead_aggregate()
        full = build_compiled_spec(spec)
        lean = build_compiled_spec(project_live(flat_of(spec)))
        assert len(lean.source) < len(full.source)
        assert "set_add" not in lean.source.replace("_f_", " _f_")

    def test_types_carried_over(self):
        flat = flat_of(self._spec_with_dead_aggregate())
        pruned = project_live(flat)
        assert pruned.types["out_t"] == INT

    def test_rewrite_drops_dead_family(self):
        spec = self._spec_with_dead_aggregate()
        compiled = build_compiled_spec(spec, rewrite=True)
        assert "y" not in compiled.flat.definitions
        codes = {r.code for r in compiled.rewrite_result.applied}
        assert "OPT005" in codes
