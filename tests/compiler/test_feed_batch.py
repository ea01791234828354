"""Differential tests for the ``feed_batch`` hot path.

The batch path must be event-for-event identical to the per-event
``push`` loop (and hence to the reference interpreter) on every
engine, every batch size, and every paper-figure spec — including
specs with ``delay`` streams, whose delay timestamps the codegen
engine interleaves with the batch's rows.  The paper-figure specs all
resolve to codegen under ``engine="vector"``, so wholly vector-eligible
scalar specs ride along to put the vector engine's own batch path
through the same checks.
"""

import random

import pytest

from repro.compiler import build_compiled_spec, freeze
from repro.compiler.monitor import MonitorError, collecting_callback
from repro.frontend import parse_spec
from repro.lang import flatten
from repro.semantics import Stream, interpret
from repro.semantics.traceio import batch_events
from repro.speclib import (
    db_access_constraint,
    db_time_constraint,
    denorm_scalar_chain,
    fig1_spec,
    fig4_lower_spec,
    fig4_upper_spec,
    map_window,
    queue_window,
    running_aggregate,
    seen_set,
    watchdog,
)

from repro.compiler.kernels import numpy_available

# The vector engine rides along wherever numpy is present; without it
# the suite must still pass (engine="vector" then refuses to compile).
ENGINES = ["codegen"] + (
    ["vector"] if numpy_available() else []
)


def random_events(names, length, domain, seed, start=1, duplicates=False):
    """Sorted random events; at most one per stream and timestamp
    unless *duplicates* (then a later event of a stream at one
    timestamp overwrites the earlier, as with ``push``)."""
    rng = random.Random(seed)
    events = []
    seen = set()
    t = start
    for _ in range(length):
        name = rng.choice(names)
        if duplicates or (t, name) not in seen:
            seen.add((t, name))
            events.append((t, name, rng.randrange(domain)))
        if rng.random() < 0.7:
            t += rng.randint(1, 3)
    return events


def last_write_wins(events):
    """*events* with only the last event of each stream per timestamp."""
    latest = {}
    for ts, name, value in events:
        latest[ts, name] = value
    return [(ts, name, value) for (ts, name), value in latest.items()]


def outputs_via_push(compiled, events, end_time=None):
    on_output, collected = collecting_callback()
    monitor = compiled.new_monitor(on_output)
    for ts, name, value in events:
        monitor.push(name, ts, value)
    monitor.finish(end_time=end_time)
    return collected


def outputs_via_batch(compiled, events, batch_size, end_time=None):
    on_output, collected = collecting_callback()
    monitor = compiled.new_monitor(on_output)
    consumed = 0
    for batch in batch_events(iter(events), batch_size):
        consumed += monitor.feed_batch(batch)
    assert consumed == len(events)
    monitor.finish(end_time=end_time)
    return collected


def reference(spec, events, end_time=None):
    flat = flatten(spec)
    traces = {name: [] for name in flat.inputs}
    for ts, name, value in events:
        traces[name].append((ts, value))
    results = interpret(
        flat, {n: Stream(t) for n, t in traces.items()}, end_time=end_time
    )
    return {
        out: [(t, freeze(v)) for t, v in results[out]]
        for out in flat.outputs
        if results[out]
    }


CASES = [
    ("fig1", fig1_spec, ["i"], None),
    ("fig4_upper", fig4_upper_spec, ["i1", "i2"], None),
    ("fig4_lower", fig4_lower_spec, ["i1", "i2"], None),
    ("seen_set", seen_set, ["i"], None),
    ("map_window", lambda: map_window(4), ["i"], None),
    ("queue_window", lambda: queue_window(4), ["i"], None),
    ("db_time", db_time_constraint, ["db2", "db3"], None),
    ("db_access", db_access_constraint, ["ins", "del_", "acc"], None),
    ("watchdog", lambda: watchdog(5), ["hb"], 200),
]

# Wholly vector-eligible specs (under engine="vector" they run the
# columnar pass, not codegen).
SCALAR_DIFF = """
in i: Int
def prev := last(i, i)
def d := sub(i, prev)
def neg := lt(d, 0)
out d
out neg
"""

TIME_AND_LAST = """
in x: Int
in y: Int
def t := time(x)
def p := last(t, y)
def s := add(p, y)
def m := merge(s, x)
out s
out m
"""

SCALAR_CASES = [
    ("scalar_chain", denorm_scalar_chain, ["x"], None),
    ("running_sum", lambda: running_aggregate("sum"), ["x"], None),
    ("running_max", lambda: running_aggregate("max"), ["x"], None),
    ("time_and_last", lambda: parse_spec(TIME_AND_LAST), ["x", "y"], None),
    ("scalar_diff", lambda: parse_spec(SCALAR_DIFF), ["i"], None),
]
CASES += SCALAR_CASES

# One-input specs over ``i`` for the protocol and composition checks:
# the Seen Set resolves to codegen everywhere, SCALAR_DIFF runs the
# vector engine's own feed_batch under engine="vector".
row_specs = pytest.mark.parametrize(
    "spec",
    [seen_set, lambda: parse_spec(SCALAR_DIFF)],
    ids=["seen_set", "scalar_diff"],
)


class TestBatchEqualsPush:
    @pytest.mark.parametrize(
        "duplicates", [False, True], ids=["distinct", "duplicates"]
    )
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "name,factory,inputs,end_time", CASES, ids=[c[0] for c in CASES]
    )
    def test_identical_to_push_and_reference(
        self, engine, name, factory, inputs, end_time, duplicates
    ):
        events = random_events(
            inputs, 120, 8, seed=hash(name) % 1000, duplicates=duplicates
        )
        # batches below and above 64 events
        assert len(events) > 64
        compiled = build_compiled_spec(factory(), engine=engine)
        via_push = outputs_via_push(compiled, events, end_time)
        ref = reference(factory(), last_write_wins(events), end_time)
        assert {
            n: [(t, freeze(v)) for t, v in evs]
            for n, evs in via_push.items()
        } == ref
        for batch_size in (1, 7, len(events)):
            compiled_b = build_compiled_spec(factory(), engine=engine)
            via_batch = outputs_via_batch(
                compiled_b, events, batch_size, end_time
            )
            assert via_batch == via_push, (
                f"{name}/{engine}: batch_size={batch_size} diverged"
            )

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_scalar_cases_run_the_vector_engine(self):
        for name, factory, _inputs, _end_time in SCALAR_CASES:
            compiled = build_compiled_spec(factory(), engine="vector")
            assert compiled.engine == "vector", name

    @row_specs
    @pytest.mark.parametrize("engine", ENGINES)
    def test_timestamp_zero_events(self, engine, spec):
        compiled = build_compiled_spec(spec(), engine=engine)
        events = [(0, "i", 1), (1, "i", 1), (1, "i", 2), (3, "i", 2)]
        assert outputs_via_batch(compiled, events, 2) == outputs_via_push(
            build_compiled_spec(spec(), engine=engine), events
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_batch_loop_is_shared_not_generated(self, engine):
        from repro.compiler.monitor import MonitorBase

        factories = [seen_set, lambda: watchdog(5)]
        if engine == "vector":
            factories = [factory for _, factory, _, _ in SCALAR_CASES]
        for factory in factories:
            compiled = build_compiled_spec(factory(), engine=engine)
            assert compiled.engine == engine
            assert "def feed_batch" not in compiled.source
            assert compiled.monitor_class.feed_batch is MonitorBase.feed_batch

    @row_specs
    @pytest.mark.parametrize("engine", ENGINES)
    def test_batch_composes_with_push_and_advance(self, engine, spec):
        events = random_events(["i"], 60, 6, seed=3)
        split = len(events) // 2
        whole = outputs_via_push(
            build_compiled_spec(spec(), engine=engine), events
        )
        on_output, collected = collecting_callback()
        monitor = build_compiled_spec(spec(), engine=engine).new_monitor(
            on_output
        )
        monitor.feed_batch(events[:split])
        for ts, name, value in events[split:]:
            monitor.push(name, ts, value)
        monitor.finish()
        assert collected == whole

    @row_specs
    @pytest.mark.parametrize("engine", ENGINES)
    def test_batch_splitting_one_timestamp(self, engine, spec):
        # A batch boundary in the middle of one timestamp's events
        # must still be seamless (the timestamp stays pending).
        events = [(1, "i", 1), (2, "i", 2), (2, "i", 3), (2, "i", 4), (5, "i", 5)]
        on_output, collected = collecting_callback()
        monitor = build_compiled_spec(spec(), engine=engine).new_monitor(
            on_output
        )
        monitor.feed_batch(events[:3])
        monitor.feed_batch(events[3:])
        monitor.finish()
        assert collected == outputs_via_push(
            build_compiled_spec(spec(), engine=engine), events
        )


class TestBatchProtocolErrors:
    @row_specs
    @pytest.mark.parametrize("engine", ENGINES)
    def test_unknown_stream(self, engine, spec):
        monitor = build_compiled_spec(
            spec(), engine=engine
        ).new_monitor()
        with pytest.raises(MonitorError, match="unknown input stream"):
            monitor.feed_batch([(1, "nope", 1)])

    @row_specs
    @pytest.mark.parametrize("engine", ENGINES)
    def test_none_payload(self, engine, spec):
        monitor = build_compiled_spec(
            spec(), engine=engine
        ).new_monitor()
        with pytest.raises(MonitorError, match="no-event value"):
            monitor.feed_batch([(1, "i", None)])

    @row_specs
    @pytest.mark.parametrize("engine", ENGINES)
    def test_out_of_order_within_batch(self, engine, spec):
        monitor = build_compiled_spec(
            spec(), engine=engine
        ).new_monitor()
        with pytest.raises(MonitorError, match="out-of-order"):
            monitor.feed_batch([(5, "i", 1), (3, "i", 2)])

    @row_specs
    @pytest.mark.parametrize("engine", ENGINES)
    def test_negative_timestamp(self, engine, spec):
        monitor = build_compiled_spec(
            spec(), engine=engine
        ).new_monitor()
        with pytest.raises(MonitorError, match="negative timestamp"):
            monitor.feed_batch([(-1, "i", 1)])

    @row_specs
    @pytest.mark.parametrize("engine", ENGINES)
    def test_after_finish(self, engine, spec):
        monitor = build_compiled_spec(
            spec(), engine=engine
        ).new_monitor()
        monitor.finish()
        with pytest.raises(MonitorError, match="after finish"):
            monitor.feed_batch([(1, "i", 1)])

    @row_specs
    @pytest.mark.parametrize("engine", ENGINES)
    def test_stale_timestamp_across_batches(self, engine, spec):
        monitor = build_compiled_spec(
            spec(), engine=engine
        ).new_monitor()
        monitor.feed_batch([(1, "i", 1), (5, "i", 2)])
        monitor.advance(10)  # flushes t=5; the calculation frontier is 5
        with pytest.raises(MonitorError, match="arrived after"):
            monitor.feed_batch([(3, "i", 3)])


def _boom_spec(with_delay):
    """``x := boom(i)`` (raises on 3) as output, plus a delay it arms."""
    from repro.lang import Delay, Lift, Specification, TimeExpr, Var
    from repro.lang.builtins import pointwise
    from repro.lang.types import INT

    def boom(value):
        if value == 3:
            raise ValueError("boom")
        return 2

    definitions = {"x": Lift(pointwise("boom", boom, (INT,), INT), (Var("i"),))}
    outputs = ["x"]
    if with_delay:
        definitions["a"] = Delay(Var("x"), Var("i"))
        definitions["at"] = TimeExpr(Var("a"))
        outputs.append("at")
    return Specification(
        inputs={"i": INT}, definitions=definitions, outputs=outputs
    )


class TestBatchCalculationErrors:
    """An exception raised by the calculation inside a codegen
    ``feed_batch`` stops the monitor: the batch's events are consumed
    by then, so no later call could continue from a push loop's state."""

    EVENTS = [(1, "i", 1), (2, "i", 2), (5, "i", 3), (6, "i", 4), (7, "i", 5)]

    @pytest.mark.parametrize("with_delay", [False, True], ids=["plain", "delay"])
    def test_lift_raising_mid_batch_stops_the_monitor(self, with_delay):
        on_output, collected = collecting_callback()
        monitor = build_compiled_spec(
            _boom_spec(with_delay), engine="codegen"
        ).new_monitor(on_output)
        with pytest.raises(ValueError, match="boom"):
            monitor.feed_batch(self.EVENTS)
        # the rows before the failing one ran, as in a push loop
        assert collected["x"] == [(1, 2), (2, 2)]
        if with_delay:
            assert collected["at"] == [(4, 4)]
        for call in (
            lambda: monitor.push("i", 9, 1),
            lambda: monitor.feed_batch([(9, "i", 1)]),
            lambda: monitor.advance(9),
            lambda: monitor.finish(),
        ):
            with pytest.raises(
                MonitorError, match="after feed_batch\\(\\) raised ValueError"
            ):
                call()

    def test_output_callback_raising_stops_the_monitor(self):
        def on_output(name, ts, value):
            if ts == 2:
                raise RuntimeError("sink full")

        monitor = build_compiled_spec(
            _boom_spec(False), engine="codegen"
        ).new_monitor(on_output)
        with pytest.raises(RuntimeError, match="sink full"):
            monitor.feed_batch([(1, "i", 1), (2, "i", 1), (4, "i", 1)])
        with pytest.raises(MonitorError, match="raised RuntimeError"):
            monitor.finish()

    def test_calculation_error_wins_over_pending_protocol_error(self):
        # A push loop calculates t=1 (and raises) before it sees the
        # out-of-order event at t=0.
        monitor = build_compiled_spec(
            _boom_spec(False), engine="codegen"
        ).new_monitor()
        with pytest.raises(ValueError) as raised:
            monitor.feed_batch([(1, "i", 3), (2, "i", 1), (0, "i", 1)])
        assert isinstance(raised.value.__context__, MonitorError)

    def test_protocol_error_alone_keeps_the_monitor_usable(self):
        on_output, collected = collecting_callback()
        monitor = build_compiled_spec(
            _boom_spec(True), engine="codegen"
        ).new_monitor(on_output)
        with pytest.raises(MonitorError, match="unknown input stream"):
            monitor.feed_batch([(1, "i", 1), (2, "i", 1), (3, "nope", 1)])
        monitor.feed_batch([(8, "i", 1)])
        monitor.finish()
        assert collected["x"] == [(1, 2), (2, 2), (8, 2)]
        assert collected["at"] == [(4, 4), (10, 10)]


class TestBatchEventsHelper:
    def test_never_splits_by_default_boundaries(self):
        events = [(1, "i", 1), (1, "i", 2), (2, "i", 3), (3, "i", 4)]
        batches = list(batch_events(iter(events), 2))
        assert [len(b) for b in batches] == [2, 2]
        # a timestamp straddling the size boundary extends the batch
        events = [(1, "i", 1), (2, "i", 2), (2, "i", 3), (3, "i", 4)]
        batches = list(batch_events(iter(events), 2))
        assert batches[0] == [(1, "i", 1), (2, "i", 2), (2, "i", 3)]

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            list(batch_events(iter([]), 0))

    def test_empty(self):
        assert list(batch_events(iter([]), 4)) == []
