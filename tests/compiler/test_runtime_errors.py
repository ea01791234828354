"""Tests for the error-propagating evaluation (hardened runtime)."""

import pytest

from repro import (
    ErrorPolicy,
    ErrorValue,
    MonitorRunner,
    LiftError,
    build_compiled_spec,
    is_error,
    parse_spec,
)
from repro.compiler import MonitorError
from repro.compiler.kernels import numpy_available
from repro.compiler.runtime import RunReport, delay_next, validate_value
from repro.lang import types as ty

# Every surviving engine carries the hardened runtime; vector rides
# along wherever numpy is present.
ENGINES = ["codegen"] + (["vector"] if numpy_available() else [])

DIV_SPEC = """
in a: Int
in b: Int
def q := div(a, b)
out q
"""

CHAIN_SPEC = """
in a: Int
in b: Int
def q  := div(a, b)
def q2 := add(q, a)
out q2
"""


class TestErrorValue:
    def test_identity_and_equality(self):
        e1 = ErrorValue("boom", origin="q", ts=3)
        e2 = ErrorValue("boom", origin="q", ts=3)
        assert e1 == e2
        assert hash(e1) == hash(e2)
        assert e1 != ErrorValue("other")

    def test_immutable(self):
        err = ErrorValue("boom")
        with pytest.raises(AttributeError):
            err.message = "changed"

    def test_repr_is_trace_literal(self):
        assert repr(ErrorValue("boom")) == 'error("boom")'

    def test_truthiness_is_an_error(self):
        with pytest.raises(LiftError):
            bool(ErrorValue("boom"))

    def test_is_error(self):
        assert is_error(ErrorValue("x"))
        assert not is_error("x")
        assert not is_error(None)


@pytest.mark.parametrize("engine", ENGINES)
class TestPolicies:
    def test_propagate_surfaces_error_event(self, engine):
        compiled = build_compiled_spec(
            parse_spec(DIV_SPEC), engine=engine, error_policy="propagate"
        )
        out = compiled.run_traces({"a": [(1, 10), (2, 20)], "b": [(1, 2), (2, 0)]})
        events = out["q"].events
        assert events[0] == (1, 5)
        assert events[1][0] == 2 and is_error(events[1][1])
        assert "ZeroDivisionError" in events[1][1].message

    def test_substitute_suppresses_event(self, engine):
        compiled = build_compiled_spec(
            parse_spec(DIV_SPEC),
            engine=engine,
            error_policy="substitute-default",
        )
        out = compiled.run_traces({"a": [(1, 10), (2, 20)], "b": [(1, 2), (2, 0)]})
        assert out["q"].events == [(1, 5)]

    def test_fail_fast_raises_with_context(self, engine):
        compiled = build_compiled_spec(
            parse_spec(DIV_SPEC), engine=engine, error_policy="fail-fast"
        )
        with pytest.raises(LiftError, match=r"stream 'q'.*t=2"):
            compiled.run_traces({"a": [(1, 10), (2, 20)], "b": [(1, 2), (2, 0)]})

    def test_clean_input_matches_unhardened(self, engine):
        spec = parse_spec(CHAIN_SPEC)
        inputs = {"a": [(t, t) for t in range(1, 10)],
                  "b": [(t, t + 1) for t in range(1, 10)]}
        baseline = build_compiled_spec(spec).run_traces(inputs)["q2"].events
        for policy in ("propagate", "substitute-default", "fail-fast"):
            hardened = build_compiled_spec(
                spec, engine=engine, error_policy=policy
            ).run_traces(inputs)["q2"].events
            assert hardened == baseline

    def test_error_propagates_through_downstream_lift(self, engine):
        compiled = build_compiled_spec(
            parse_spec(CHAIN_SPEC), engine=engine, error_policy="propagate"
        )
        out = compiled.run_traces({"a": [(1, 10), (2, 20)], "b": [(1, 2), (2, 0)]})
        events = out["q2"].events
        assert events[0] == (1, 15)
        # the divide error flows through add() untouched
        assert is_error(events[1][1])
        assert events[1][1].origin == "q"


@pytest.mark.parametrize("engine", ENGINES)
class TestErrorFlow:
    def test_error_through_last(self, engine):
        spec = parse_spec(
            """
            in a: Int
            in b: Int
            in tick: Unit
            def q := div(a, b)
            def l := last(q, tick)
            out l
            """
        )
        compiled = build_compiled_spec(spec, engine=engine, error_policy="propagate")
        out = compiled.run_traces(
            {
                "a": [(1, 10)],
                "b": [(1, 0)],
                "tick": [(2, ()), (3, ())],
            }
        )
        events = out["l"].events
        # the stored last value IS the error, re-observed at each tick
        assert [ts for ts, _ in events] == [2, 3]
        assert all(is_error(v) for _, v in events)

    def test_error_through_merge(self, engine):
        spec = parse_spec(
            """
            in a: Int
            in b: Int
            in c: Int
            def q := div(a, b)
            def m := merge(q, c)
            out m
            """
        )
        compiled = build_compiled_spec(spec, engine=engine, error_policy="propagate")
        out = compiled.run_traces(
            {"a": [(1, 1)], "b": [(1, 0)], "c": [(1, 99), (2, 42)]}
        )
        events = out["m"].events
        assert is_error(events[0][1])  # error wins the merge at t=1
        assert events[1] == (2, 42)

    def test_error_delay_amount_drops_rearm(self, engine):
        spec = parse_spec(
            """
            in a: Int
            in b: Int
            in r: Unit
            def amt := div(a, b)
            def d := delay(amt, r)
            def t := time(d)
            out t
            """
        )
        compiled = build_compiled_spec(spec, engine=engine, error_policy="propagate")
        out = compiled.run_traces(
            {"a": [(1, 5), (10, 5)], "b": [(1, 0), (10, 1)],
             "r": [(1, ()), (10, ())]},
            end_time=40,
        )
        # t=1 re-arm is an error (dropped); t=10 arms 10+5=15
        assert out["t"].events == [(15, 15)]

    def test_time_of_error_event(self, engine):
        spec = parse_spec(
            """
            in a: Int
            in b: Int
            def q := div(a, b)
            def w := time(q)
            out w
            """
        )
        compiled = build_compiled_spec(spec, engine=engine, error_policy="propagate")
        out = compiled.run_traces({"a": [(3, 1)], "b": [(3, 0)]})
        # an error event still happens AT a timestamp
        assert out["w"].events == [(3, 3)]


@pytest.mark.parametrize("engine", ENGINES)
class TestRunReportCounters:
    def test_counters(self, engine):
        compiled = build_compiled_spec(
            parse_spec(CHAIN_SPEC), engine=engine, error_policy="propagate"
        )
        outputs = []
        runner = MonitorRunner(
            compiled, lambda n, t, v: outputs.append((n, t, v))
        )
        runner.run(
            [
                (1, "a", 10), (1, "b", 2),
                (2, "a", 20), (2, "b", 0),
                (3, "a", 30), (3, "b", 3),
            ]
        )
        report = runner.report
        assert report.events_in == 6
        assert report.events_out == 3
        assert report.lift_errors == 1          # the div at t=2
        assert report.errors_propagated == 1    # add() short-circuited
        assert report.error_outputs == 1
        assert report.faults_absorbed() == 1

    def test_substitute_counts(self, engine):
        compiled = build_compiled_spec(
            parse_spec(DIV_SPEC),
            engine=engine,
            error_policy="substitute-default",
        )
        runner = MonitorRunner(compiled)
        runner.run([(1, "a", 1), (1, "b", 0)])
        assert runner.report.lift_errors == 1
        assert runner.report.errors_substituted == 1
        assert runner.report.events_out == 0

    def test_report_round_trips_json(self, engine):
        import json

        compiled = build_compiled_spec(
            parse_spec(DIV_SPEC), engine=engine, error_policy="propagate"
        )
        runner = MonitorRunner(compiled)
        runner.run([(1, "a", 1), (1, "b", 0)])
        decoded = json.loads(runner.report.to_json())
        assert decoded["lift_errors"] == 1
        assert decoded["faults_absorbed"] == 1


class TestInputValidation:
    def test_validate_value_scalars(self):
        assert validate_value(3, ty.INT)
        assert not validate_value(True, ty.INT)   # bools are not Ints
        assert not validate_value("3", ty.INT)
        assert validate_value(3.5, ty.FLOAT)
        assert validate_value(3, ty.FLOAT)
        assert validate_value(True, ty.BOOL)
        assert validate_value("x", ty.STR)
        assert validate_value((), ty.UNIT)
        assert not validate_value((1,), ty.UNIT)

    def test_fail_fast_on_invalid_input(self):
        compiled = build_compiled_spec(parse_spec(DIV_SPEC))
        runner = MonitorRunner(compiled, validate_inputs=True)
        with pytest.raises(MonitorError, match="invalid value"):
            runner.push("a", 1, "not an int")

    def test_propagate_converts_invalid_input(self):
        compiled = build_compiled_spec(
            parse_spec(DIV_SPEC), error_policy="propagate"
        )
        outputs = []
        runner = MonitorRunner(
            compiled,
            lambda n, t, v: outputs.append((n, t, v)),
            validate_inputs=True,
        )
        runner.run([(1, "a", "junk"), (1, "b", 2)])
        assert runner.report.invalid_inputs == 1
        assert len(outputs) == 1 and is_error(outputs[0][2])

    def test_substitute_drops_invalid_input(self):
        compiled = build_compiled_spec(
            parse_spec(DIV_SPEC), error_policy="substitute-default"
        )
        outputs = []
        runner = MonitorRunner(
            compiled,
            lambda n, t, v: outputs.append((n, t, v)),
            validate_inputs=True,
        )
        runner.run([(1, "a", "junk"), (1, "b", 2)])
        assert runner.report.invalid_inputs == 1
        assert outputs == []


class TestDelayNext:
    def test_normal(self):
        report = RunReport()
        assert delay_next(report, 10, 5) == 15
        assert delay_next(report, 10, None) is None
        assert report.delay_errors == 0

    def test_error_amount(self):
        report = RunReport()
        assert delay_next(report, 10, ErrorValue("x")) is None
        assert report.delay_errors == 1

    def test_nonpositive_and_junk_amounts(self):
        report = RunReport()
        assert delay_next(report, 10, 0) is None
        assert delay_next(report, 10, -(2**63)) is None
        assert delay_next(report, 10, float("nan")) is None
        assert delay_next(report, 10, "junk") is None
        assert report.delay_errors == 4


class TestZeroOverheadWhenDisabled:
    def test_generated_source_identical_without_policy(self):
        spec = parse_spec(CHAIN_SPEC)
        plain = build_compiled_spec(spec).source
        assert "rep" not in plain.split("def _calc_rows")[1].splitlines()[0]
        # the report is read only to count outputs: no error machinery
        for hardening in ("_ERR", "_delay_next", "error_outputs", "(rep, ts"):
            assert hardening not in plain
        hardened = build_compiled_spec(spec, error_policy="propagate").source
        assert "rep = self._report" in hardened
        assert "(rep, ts" in hardened
        assert plain != hardened

    def test_policy_coercion(self):
        spec = parse_spec(DIV_SPEC)
        a = build_compiled_spec(spec, error_policy=ErrorPolicy.PROPAGATE)
        b = build_compiled_spec(spec, error_policy="propagate")
        assert a.error_policy is b.error_policy is ErrorPolicy.PROPAGATE
        with pytest.raises(ValueError):
            build_compiled_spec(spec, error_policy="bogus")


class TestRunnerLifetime:
    @pytest.mark.parametrize("on_output", [None, lambda n, t, v: None])
    def test_dropped_runner_is_freed_without_the_cycle_collector(
        self, on_output
    ):
        import gc
        import weakref

        compiled = build_compiled_spec(parse_spec(CHAIN_SPEC))
        gc.disable()
        try:
            runner = MonitorRunner(compiled, on_output)
            runner.feed_batch([(1, "a", 6), (1, "b", 2), (2, "a", 4), (2, "b", 1)])
            runner.finish()
            assert runner.report.events_out > 0
            monitor = weakref.ref(runner.monitor)
            del runner
            assert monitor() is None
        finally:
            gc.enable()
