"""Differential matrix for the event-time window library.

Every window fixture is pinned against the reference interpreter, then
replayed through each compiled engine x ingestion mode x rewrite
setting — outputs must be byte-identical everywhere.  The suite also
pins the paper-level claim the library exists for: the window queues
are certified mutable, so sliding COUNT/SUM/AVG maintenance performs
zero structural copies, while the non-invertible aggregates are
visibly routed to the fold fallback (``WIN002`` + ``window.recomputes``).
"""

import json
import random

import pytest

from repro import api
from repro.analysis.diagnostics import Severity
from repro.cli import main
from repro.compiler.kernels import numpy_available
from repro.lang import WindowParams, eligibility_table
from repro.semantics import Stream, interpret
from repro.speclib import (
    running_aggregate,
    session_window,
    sliding_window,
    tumbling_window,
    window,
)

ENGINES = ["codegen"] + (["vector"] if numpy_available() else [])


def make_events(length=60, seed=3, gappy=True):
    """Deterministic single-input trace; ``gappy`` leaves timestamp
    holes so session windows actually close mid-trace."""
    rng = random.Random(seed)
    events = []
    t = 0
    for _ in range(length):
        t += rng.choice((1, 1, 1, 2, 4)) if gappy else 1
        events.append((t, "x", rng.randint(-9, 9)))
    return events


def reference(spec, events):
    """Ground-truth output trace from the reference interpreter."""
    m = api.compile(spec, api.CompileOptions(engine="codegen"))
    out = interpret(m.compiled.flat, {"x": Stream([(t, v) for t, _n, v in events])})
    return [("win", t, v) for t, v in out["win"].events]


def run_engine(spec, events, engine, mode, rewrite=False):
    m = api.compile(spec, api.CompileOptions(engine=engine, rewrite=rewrite))
    out = []
    mon = m.new_instance(on_output=lambda n, t, v: out.append((n, t, v)))
    if mode == "push":
        for ts, name, value in events:
            mon.push(name, ts, value)
    elif mode == "batch":
        for i in range(0, len(events), 17):
            mon.feed_batch(events[i : i + 17])
    else:  # columns
        ts = [e[0] for e in events]
        col = [e[2] for e in events]
        for i in range(0, len(ts), 17):
            mon.feed_columns(ts[i : i + 17], {"x": col[i : i + 17]})
    mon.finish()
    return out


FIXTURES = {
    "sliding-count": lambda: sliding_window("count", period=5),
    "sliding-sum": lambda: sliding_window("sum", period=5),
    "sliding-avg": lambda: sliding_window("avg", period=5),
    "sliding-min": lambda: sliding_window("min", period=5),
    "sliding-distinct": lambda: sliding_window("distinct", period=7),
    "sliding-gated": lambda: window(
        "sum", kind="sliding", period=5, min_separation=3
    ),
    "tumbling-sum": lambda: tumbling_window("sum", period=4),
    "tumbling-max": lambda: tumbling_window("max", period=6),
    "tumbling-watermark": lambda: window(
        "sum", kind="tumbling", period=4, watermark=2
    ),
    "session-sum": lambda: session_window("sum", gap=3),
    "session-distinct": lambda: session_window("distinct", gap=2),
    "running-sum": lambda: running_aggregate("sum"),
    "running-max": lambda: running_aggregate("max"),
}

# engine x ingestion-mode x rewrite samples covering every axis value.
MATRIX = [
    ("codegen", "push", False),
    ("codegen", "batch", True),
    ("codegen", "columns", False),
]
if numpy_available():
    MATRIX += [("vector", "batch", False), ("vector", "columns", True)]


class TestDifferentialMatrix:
    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    def test_engines_match_interpreter(self, fixture):
        spec = FIXTURES[fixture]()
        events = make_events()
        expected = reference(spec, events)
        assert expected, "fixture produced no output — vacuous test"
        for engine, mode, rewrite in MATRIX:
            got = run_engine(spec, events, engine, mode, rewrite)
            assert got == expected, (fixture, engine, mode, rewrite)

    def test_dense_trace_tumbling_alignment(self):
        # Dense timestamps: every bucket boundary is hit exactly.  The
        # first bucket [0, 3) only sees t=1,2 (payloads start at t >= 1).
        spec = tumbling_window("count", period=3)
        events = [(t, "x", 1) for t in range(1, 31)]
        expected = reference(spec, events)
        assert [v for _n, _t, v in expected] == [2] + [3] * 9
        for engine in ENGINES:
            assert run_engine(spec, events, engine, "batch") == expected


class TestLateData:
    def test_late_events_reordered_within_skew(self):
        spec = sliding_window("sum", period=5)
        shuffled = [
            (1, "x", 4), (3, "x", 1), (2, "x", 2),  # 2 arrives late
            (5, "x", 7), (4, "x", 3), (6, "x", 1),
        ]
        ordered = sorted(shuffled)
        expected = reference(spec, ordered)
        m = api.compile(spec)
        out = []
        report = api.run(
            m,
            shuffled,
            api.RunOptions(on_out_of_order="buffer", max_skew=3),
            on_output=lambda n, t, v: out.append((n, t, v)),
        )
        assert out == expected
        assert report.reordered_events > 0
        assert report.out_of_order_dropped == 0

    def test_late_beyond_skew_dropped_and_counted(self):
        spec = sliding_window("sum", period=5)
        events = [
            (1, "x", 4), (4, "x", 1), (5, "x", 2), (7, "x", 3),
            (2, "x", 9),  # behind the flushed frontier: dropped
            (8, "x", 1),
        ]
        survivors = sorted(e for e in events if e != (2, "x", 9))
        expected = reference(spec, survivors)
        m = api.compile(spec)
        out = []
        report = api.run(
            m,
            events,
            api.RunOptions(on_out_of_order="buffer", max_skew=2, metrics=True),
            on_output=lambda n, t, v: out.append((n, t, v)),
        )
        assert out == expected
        assert report.out_of_order_dropped == 1
        assert report.metrics["counters"]["window.late_drops"] == 1


class TestMutabilityCertification:
    """The headline property: invertible sliding aggregates run on
    certified-mutable queues with zero structural copies."""

    @pytest.mark.parametrize("aggregate", ["count", "sum", "avg"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_sliding_delta_never_copies(self, aggregate, engine):
        spec = sliding_window(aggregate, period=5)
        m = api.compile(spec, api.CompileOptions(engine=engine))
        assert "tq" in m.mutable_streams
        assert "tq1" in m.mutable_streams
        events = make_events(length=80, gappy=False)
        report = api.run(m, events, api.RunOptions(metrics=True))
        streams = report.metrics["streams"]
        for queue in ("tq", "tq1"):
            assert streams[queue]["copies_performed"] == 0, (queue, engine)
            assert streams[queue]["inplace_updates"] > 0
        counters = report.metrics["counters"]
        # avg maintains two delta scalars (running sum and count).
        per_event = 2 if aggregate == "avg" else 1
        assert counters["window.delta_updates"] == per_event * len(events)
        assert "window.recomputes" not in counters

    @pytest.mark.parametrize("aggregate", ["min", "max", "distinct"])
    def test_sliding_fold_fallback_is_visible(self, aggregate):
        spec = sliding_window(aggregate, period=5)
        m = api.compile(spec)
        events = make_events(length=40, gappy=False)
        report = api.run(m, events, api.RunOptions(metrics=True))
        counters = report.metrics["counters"]
        assert counters["window.recomputes"] == len(events)
        assert "window.delta_updates" not in counters


class TestDiagnostics:
    def test_delta_path_reported_as_win001(self):
        notes = api.compile(sliding_window("sum", period=5)).diagnostics()
        codes = {d.code for d in notes}
        assert "WIN001" in codes
        assert "WIN002" not in codes

    def test_fold_fallback_reported_as_win002(self):
        notes = api.compile(sliding_window("min", period=5)).diagnostics()
        assert any(
            d.code == "WIN002" and d.severity is Severity.NOTE for d in notes
        )

    def test_parameter_conflict_is_a_warning(self):
        spec = window("sum", kind="tumbling", period=4, min_separation=2)
        notes = api.compile(spec).diagnostics()
        conflict = [d for d in notes if d.code == "WIN003"]
        assert conflict and conflict[0].severity is Severity.WARNING


class TestWindowParams:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            WindowParams(kind="hopping", period=3)
        with pytest.raises(ValueError):
            WindowParams(kind="sliding")  # period required
        with pytest.raises(ValueError):
            WindowParams(kind="sliding", period=0)
        with pytest.raises(ValueError):
            WindowParams(kind="session")  # gap required
        with pytest.raises(ValueError):
            WindowParams(kind="tumbling", period=3, watermark=-1)

    def test_conflicts_recorded_not_raised(self):
        params = WindowParams(kind="session", gap=3, watermark=2)
        assert params.conflicts
        assert not WindowParams(kind="sliding", period=5).conflicts

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ValueError):
            window("median", kind="sliding", period=5)

    def test_eligibility_table_covers_all_aggregates(self):
        rows = eligibility_table()
        assert {row[0] for row in rows} == {
            "count", "sum", "avg", "min", "max", "distinct",
        }


class TestCli:
    def test_windows_table(self, capsys):
        assert main(["windows"]) == 0
        out = capsys.readouterr().out
        assert "delta (O(1))" in out
        assert "fold (O(window))" in out

    def test_windows_json(self, capsys):
        assert main(["windows", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["aggregate"] for row in rows} >= {"sum", "min"}
        assert all({"path", "state", "diagnostic"} <= row.keys() for row in rows)
