"""Tests for the code generator (calculation section, §III-A)."""

import pytest

from repro.compiler import CodegenError, build_compiled_spec
from repro.compiler.codegen import CodeGenerator, generate_monitor_class
from repro.graph import build_usage_graph, translation_order
from repro.lang import (
    Const,
    INT,
    Last,
    Lift,
    Merge,
    Nil,
    Specification,
    TimeExpr,
    UnitExpr,
    Var,
    check_types,
    flatten,
)
from repro.lang.builtins import builtin
from repro.speclib import fig1_spec, queue_window
from repro.structures import Backend, PersistentSet

from .test_plan_cache import FLEET_TEXT


class TestGeneratedSource:
    def test_fig1_source_shape(self):
        compiled = build_compiled_spec(fig1_spec())
        source = compiled.source
        assert source.startswith("def _calc_rows(self, rows,")
        assert compiled.monitor_class.INPUTS == ("i",)
        assert compiled.monitor_class.OUTPUTS == ("s",)
        assert compiled.monitor_class.CELLS == ("m",)
        assert "last_m = " in source
        # merge is inlined, not called through a closure
        assert "_f_m(" not in source

    def test_order_respected_in_source(self):
        compiled = build_compiled_spec(fig1_spec(), optimize=True)
        source = compiled.source
        # optimized order computes the read s before the write y
        assert source.index("v_s =") < source.index("v_y =")

    def test_nil_and_unit_fold_away(self):
        # Neither can fire after timestamp 0: no line for either; unit
        # is evaluated at 0 from the class's PROGRAM table.
        spec = Specification(
            inputs={},
            definitions={"n": Nil(INT), "u": UnitExpr()},
            outputs=["n", "u"],
        )
        compiled = build_compiled_spec(spec)
        assert "v_n" not in compiled.source
        assert "v_u" not in compiled.source
        assert ("u", "unit", ()) in compiled.monitor_class.PROGRAM
        out = compiled.run_traces({})
        assert out["u"] == [(0, ())]
        assert out["n"] == []

    def test_time_reads_ts_under_its_operand(self):
        spec = Specification(
            inputs={"i": INT, "j": INT},
            definitions={"t": TimeExpr(Var("i"))},
            outputs=["t"],
        )
        source = build_compiled_spec(spec).source
        assert "v_t" not in source
        assert "if v_i is not None: n_out += 1; emit('t', ts, ts)" in source

    def test_lone_input_is_present_in_every_row(self):
        spec = Specification(
            inputs={"i": INT},
            definitions={"t": TimeExpr(Var("i"))},
            outputs=["t"],
        )
        compiled = build_compiled_spec(spec)
        assert "is not None" not in compiled.source
        out = compiled.run_traces({"i": [(0, 1), (3, 2)]})
        assert out["t"] == [(0, 0), (3, 3)]

    def test_no_delays_no_next_delay_method(self):
        compiled = build_compiled_spec(fig1_spec())
        assert "_next_delay" not in compiled.source
        assert compiled.monitor_class.HAS_DELAYS is False

    def test_multi_delay_next_delay(self):
        from repro.lang import Delay

        spec = Specification(
            inputs={"r": INT},
            definitions={
                "z1": Delay(Var("r"), Var("r")),
                "z2": Delay(Var("r"), Var("r")),
            },
        )
        compiled = build_compiled_spec(spec)
        assert compiled.monitor_class.HAS_DELAYS is True
        monitor = compiled.new_monitor()
        monitor._next_z1, monitor._next_z2 = 9, 4
        assert monitor._next_delay() == 4
        monitor._next_z2 = None
        assert monitor._next_delay() == 9

    def test_invalid_order_rejected(self):
        flat = flatten(fig1_spec())
        check_types(flat)
        with pytest.raises(CodegenError, match="order must enumerate"):
            CodeGenerator(flat, ["i", "y"], lambda n: Backend.PERSISTENT)


def _assigned(source):
    """Stream variable → number of assignments in *source*."""
    import re

    counts = {}
    for match in re.finditer(r"^\s*(v_\w+) = ", source, re.MULTILINE):
        counts[match.group(1)] = counts.get(match.group(1), 0) + 1
    return counts


class TestSingleCalculationSection:
    """The calculation section is generated once, with one line per
    stream at most and no repeated null tests."""

    @pytest.mark.parametrize(
        "factory",
        [fig1_spec, lambda: queue_window(3), lambda: FLEET_TEXT],
        ids=["fig1", "queue_window", "fleet"],
    )
    def test_each_stream_assigned_once(self, factory):
        from repro import api

        spec = factory()
        compiled = (
            api.compile(spec, api.CompileOptions(engine="codegen")).compiled
            if isinstance(spec, str)
            else build_compiled_spec(spec)
        )
        source = compiled.source
        assert source.count("def ") == 1
        assert source.count("for ts") == 1
        counts = _assigned(source)
        assert counts and set(counts.values()) == {1}
        defined = {f"v_{name}" for name in compiled.flat.definitions}
        assert set(counts) <= defined

    def test_no_repeated_null_tests(self):
        import re

        from repro import api

        source = api.compile(
            FLEET_TEXT, api.CompileOptions(engine="codegen")
        ).compiled.source
        assert not re.search(
            r"(\w+) is not None and \1 is not None", source
        )
        assert "v_db3 is not None and v_db3 is not None" not in source

    def test_timestamp_zero_streams_fold_away(self):
        from repro import api

        compiled = api.compile(
            FLEET_TEXT, api.CompileOptions(engine="codegen")
        ).compiled
        for name in ("_s0", "_s1", "_s9", "_s10"):
            assert f"v_{name} " not in compiled.source
        kinds = {name: kind for name, kind, _ in compiled.monitor_class.PROGRAM}
        assert kinds["_s1"] == "unit" and kinds["_s10"] == "all"


class TestBackendBinding:
    def _constructed_set(self, optimize):
        compiled = build_compiled_spec(fig1_spec(), optimize=optimize)
        captured = []
        monitor = compiled.new_monitor(lambda n, t, v: None)
        monitor.push("i", 1, 5)
        monitor.finish()
        return monitor._last_m  # the accumulated set object

    def test_optimized_uses_mutable_structures(self):
        # a certified family whose lifts all have templates is a bare set
        assert type(self._constructed_set(True)) is set

    def test_unoptimized_uses_persistent_structures(self):
        assert isinstance(self._constructed_set(False), PersistentSet)

    def test_copying_override(self):
        from repro.structures import CopySet

        compiled = build_compiled_spec(fig1_spec(), backend_override=Backend.COPYING)
        monitor = compiled.new_monitor()
        monitor.push("i", 1, 5)
        monitor.finish()
        assert isinstance(monitor._last_m, CopySet)

    def test_in_place_update_observable(self):
        """The optimized monitor really updates in place: the stored
        last object is the SAME object across steps."""
        compiled = build_compiled_spec(fig1_spec(), optimize=True)
        monitor = compiled.new_monitor()
        monitor.push("i", 1, 5)
        monitor.push("i", 2, 6)
        monitor.finish()
        first = monitor._last_m
        compiled2 = build_compiled_spec(fig1_spec(), optimize=False)
        monitor2 = compiled2.new_monitor()
        monitor2.push("i", 1, 5)
        obj_after_one = None
        # persistent monitor: object identity changes between steps
        monitor2.push("i", 2, 6)
        monitor2.finish()
        assert sorted(first) == [5, 6]

    def test_identity_preserved_in_optimized_run(self):
        spec = fig1_spec()
        spec.outputs = ["y"]
        compiled = build_compiled_spec(spec, optimize=True)
        seen = []  # hold references so object identities stay unique
        monitor = compiled.new_monitor(lambda n, t, v: seen.append(v))
        monitor.run_traces({"i": [(1, 1), (2, 2), (3, 3)]})
        assert len({id(v) for v in seen}) == 1  # one object mutated in place

    def test_identity_fresh_in_persistent_run(self):
        spec = fig1_spec()
        spec.outputs = ["y"]
        compiled = build_compiled_spec(spec, optimize=False)
        seen = []
        monitor = compiled.new_monitor(lambda n, t, v: seen.append(v))
        monitor.run_traces({"i": [(1, 1), (2, 2), (3, 3)]})
        assert len({id(v) for v in seen}) == 3  # a new version per step


class TestGenerateMonitorClass:
    def test_custom_class_name(self):
        flat = flatten(fig1_spec())
        check_types(flat)
        graph = build_usage_graph(flat)
        order = translation_order(graph)
        cls = generate_monitor_class(flat, order, {}, class_name="MyMon")
        assert cls.__name__ == "MyMon"
        assert cls.SOURCE.startswith("def _calc_rows(self, rows,")

    def test_queue_window_compiles_and_runs(self):
        compiled = build_compiled_spec(queue_window(3))
        out = compiled.run_traces({"i": [(t, t * 10) for t in range(1, 8)]})
        # window of 3: from the 3rd input on, the oldest value pops out
        assert out["nth"] == [(3, 10), (4, 20), (5, 30), (6, 40), (7, 50)]


def _feed_columns_blocks(events):
    """Split timestamp-sorted events into dense ``feed_columns`` blocks:
    runs of timestamps that carry the same set of streams."""
    by_ts = {}
    for ts, name, value in events:
        by_ts.setdefault(ts, {})[name] = value
    blocks = []
    for ts in sorted(by_ts):
        row = by_ts[ts]
        names = tuple(sorted(row))
        if blocks and blocks[-1][0] == names:
            blocks[-1][1].append(ts)
            for name in names:
                blocks[-1][2][name].append(row[name])
        else:
            blocks.append((names, [ts], {name: [row[name]] for name in names}))
    return [(timestamps, columns) for _, timestamps, columns in blocks]


class TestAgainstInterpreter:
    """push, feed_batch and feed_columns agree with the reference
    interpreter on random specs, with and without delay streams."""

    @pytest.mark.parametrize("delays", [False, True], ids=["plain", "delays"])
    def test_every_ingestion_path(self, delays):
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        from repro.compiler.monitor import collecting_callback
        from repro.testing import reference_outputs

        from ..integration.specgen import specifications, traces

        end_time = 60

        def outputs(compiled, feed):
            on_output, collected = collecting_callback()
            monitor = compiled.new_monitor(on_output)
            feed(monitor)
            monitor.finish(end_time=end_time)
            return {
                name: collected.get(name, [])
                for name in compiled.monitor_class.OUTPUTS
            }

        @settings(
            max_examples=60,
            deadline=None,
            suppress_health_check=[
                HealthCheck.too_slow,
                HealthCheck.data_too_large,
            ],
        )
        @given(data=st.data())
        def check(data):
            spec = data.draw(specifications(allow_delays=delays))
            inputs = data.draw(traces(list(spec.inputs)))
            if data.draw(st.booleans()):
                # Timestamp 0 takes its own path (the PROGRAM table):
                # give every input an event there.
                for name, trace in inputs.items():
                    if not trace or trace[0][0] != 0:
                        trace.insert(0, (0, data.draw(st.integers(0, 8))))
            flat = flatten(spec)
            expected = reference_outputs(flat, inputs, end_time)
            compiled = build_compiled_spec(flat, engine="codegen")
            events = sorted(
                (ts, name, value)
                for name, trace in inputs.items()
                for ts, value in trace
            )

            def push(monitor):
                for ts, name, value in events:
                    monitor.push(name, ts, value)

            def batches(monitor):
                for start in range(0, len(events), 5):
                    monitor.feed_batch(events[start:start + 5])

            def columns(monitor):
                for timestamps, block in _feed_columns_blocks(events):
                    monitor.feed_columns(timestamps, block)

            for path in (push, batches, columns):
                assert outputs(compiled, path) == expected, path.__name__

        check()

    def _agree_on_every_path(self, spec, events):
        from repro.compiler.monitor import collecting_callback
        from repro.testing import reference_outputs

        flat = flatten(spec)
        compiled = build_compiled_spec(flat)
        expected = reference_outputs(
            flat,
            {
                name: [(ts, v) for ts, n, v in events if n == name]
                for name in flat.inputs
            },
        )
        feeds = {
            "push": lambda m: [m.push(n, ts, v) for ts, n, v in events],
            "batch": lambda m: m.feed_batch(events),
            "columns": lambda m: [
                m.feed_columns(ts, cols)
                for ts, cols in _feed_columns_blocks(events)
            ],
        }
        for path, feed in feeds.items():
            on_output, collected = collecting_callback()
            monitor = compiled.new_monitor(on_output)
            feed(monitor)
            monitor.finish()
            got = {name: collected.get(name, []) for name in flat.outputs}
            assert got == expected, path
        return expected

    def test_timestamp_zero_program(self):
        """The PROGRAM table evaluates timestamp 0: merge priority,
        strict and lenient lifts, time, and the cells it leaves for
        later rows, on every ingestion path."""
        spec = Specification(
            inputs={"a": INT, "b": INT},
            definitions={
                "m": Merge(Var("a"), Var("b")),
                "k": Const(5),
                "s": Lift(builtin("add"), (Var("m"), Var("k"))),
                "t": TimeExpr(Var("b")),
                "prev": Last(Var("s"), Var("b")),
            },
            outputs=["m", "k", "s", "t", "prev"],
        )
        events = [(0, "a", 1), (0, "b", 2), (3, "b", 4), (4, "a", 7)]
        expected = self._agree_on_every_path(spec, events)
        assert expected["m"][0] == (0, 1)

    def test_time_of_a_merge_guards_a_lift(self):
        # t = time(m) shares m's guard variable: the merge line must be
        # emitted although no lift reads m's value.
        spec = Specification(
            inputs={"a": INT, "b": INT, "c": INT},
            definitions={
                "m": Merge(Var("a"), Var("b")),
                "t": TimeExpr(Var("m")),
                "s": Lift(builtin("add"), (Var("c"), Var("t"))),
            },
            outputs=["s"],
        )
        events = [(1, "a", 1), (1, "c", 2), (2, "c", 3), (4, "b", 4), (4, "c", 5)]
        expected = self._agree_on_every_path(spec, events)
        assert expected["s"] == [(1, 3), (4, 9)]
