"""The multi-trace worker pool: ordering, merging, degradation, and
the task payload (columns for dense vector traces, rows otherwise)."""

import pytest

from repro import api
from repro.compiler import kernels
from repro.compiler.monitor import UNIT_VALUE
from repro.obs.metrics import (
    DEFAULT_REGISTRY,
    POOL_BYTES_PICKLED,
    POOL_BYTES_SHARED,
)
from repro.parallel import MonitorPool, PoolError
from repro.parallel import pool as pool_module
from repro.parallel.pool import _task_payload, run_many
from repro.speclib import seen_set

from .util import random_trace, to_events

needs_numpy = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy not installed"
)

SEEN_SET_TEXT = """\
in i: Int

def m  := merge(y, set_empty(unit))
def yl := last(m, i)
def y  := set_add(yl, i)
def s  := set_contains(yl, i)

out s
"""


def make_traces(count, length=60, domain=7):
    return [
        to_events(random_trace(["i"], length, domain, seed))
        for seed in range(count)
    ]


class TestEquivalence:
    def test_pooled_equals_sequential(self):
        monitor = api.compile(seen_set())
        traces = make_traces(6)
        seq = api.run_many(monitor, traces, api.RunOptions(jobs=1))
        par = api.run_many(monitor, traces, api.RunOptions(jobs=2))
        assert seq.workers == 1
        assert par.workers == 2
        assert seq.outputs() == par.outputs()
        assert seq.report.events_in == par.report.events_in
        assert seq.report.events_out == par.report.events_out

    def test_results_are_in_submission_order(self):
        monitor = api.compile(seen_set())
        traces = make_traces(8, length=20)
        result = api.run_many(monitor, traces, api.RunOptions(jobs=2))
        assert [r.index for r in result.results] == list(range(8))

    def test_on_result_streams_in_order(self):
        monitor = api.compile(seen_set())
        traces = make_traces(5, length=15)
        seen = []
        api.run_many(
            monitor,
            traces,
            api.RunOptions(jobs=2),
            on_result=lambda r: seen.append(r.index),
        )
        assert seen == list(range(5))

    def test_text_payload_with_plan_cache(self, tmp_path):
        options = api.CompileOptions(plan_cache=str(tmp_path))
        api.compile(SEEN_SET_TEXT, options)  # prime the cache
        traces = make_traces(4, length=30)
        result = run_many(
            SEEN_SET_TEXT,
            traces,
            compile_options=options,
            jobs=2,
        )
        assert result.failures == 0
        baseline = run_many(SEEN_SET_TEXT, traces, jobs=1)
        assert result.outputs() == baseline.outputs()

    def test_monitor_compiled_from_text_reuses_source(self, tmp_path):
        options = api.CompileOptions(plan_cache=str(tmp_path))
        monitor = api.compile(SEEN_SET_TEXT, options)
        assert monitor.source_text == SEEN_SET_TEXT
        traces = make_traces(3, length=25)
        result = api.run_many(monitor, traces, api.RunOptions(jobs=2))
        assert result.failures == 0

    def test_merged_report_sums_counters(self):
        monitor = api.compile(seen_set())
        traces = make_traces(4, length=30)
        result = api.run_many(monitor, traces, api.RunOptions(jobs=2))
        total = sum(len(t) for t in traces)
        assert result.report.events_in == total
        assert result.report.events_in == sum(
            r.report.events_in for r in result.results
        )

    def test_collect_outputs_false(self):
        monitor = api.compile(seen_set())
        traces = make_traces(3, length=20)
        result = api.run_many(
            monitor, traces, api.RunOptions(jobs=2), collect_outputs=False
        )
        assert result.failures == 0
        assert all(r.outputs is None for r in result.results)
        assert result.report.events_out > 0


class TestDegradation:
    # An out-of-order trace makes the worker raise MonitorError
    # regardless of the per-event error policy — a *worker-level*
    # failure, which is what the pool-level policy governs.
    BAD_TRACE = [(5, "i", 1), (2, "i", 2)]

    def test_fail_fast_raises_pool_error_sequential(self):
        monitor = api.compile(seen_set())
        with pytest.raises(PoolError):
            api.run_many(
                monitor,
                [make_traces(1)[0], self.BAD_TRACE],
                api.RunOptions(jobs=1),
            )

    def test_fail_fast_raises_pool_error_pooled(self):
        monitor = api.compile(seen_set())
        with pytest.raises(PoolError):
            api.run_many(
                monitor,
                [make_traces(1)[0], self.BAD_TRACE],
                api.RunOptions(jobs=2),
            )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_propagate_records_failure_and_continues(self, jobs):
        monitor = api.compile(
            seen_set(), api.CompileOptions(error_policy="propagate")
        )
        good = make_traces(3, length=20)
        traces = [good[0], self.BAD_TRACE, good[1], good[2]]
        result = api.run_many(monitor, traces, api.RunOptions(jobs=jobs))
        assert result.failures == 1
        assert [r.ok for r in result.results] == [True, False, True, True]
        assert "MonitorError" in result.results[1].error
        # The surviving traces are complete and ordered.
        baseline = api.run_many(
            monitor, [good[0], good[1], good[2]], api.RunOptions(jobs=1)
        )
        assert result.results[0].outputs == baseline.results[0].outputs
        assert result.results[2].outputs == baseline.results[1].outputs
        assert result.results[3].outputs == baseline.results[2].outputs


class TestBackpressure:
    def test_bounded_in_flight_still_completes(self):
        pool = MonitorPool(
            api.compile(seen_set()).compiled, jobs=2, max_in_flight=1
        )
        traces = make_traces(7, length=15)
        result = pool.run_many(traces)
        assert result.failures == 0
        assert [r.index for r in result.results] == list(range(7))

    def test_default_in_flight_is_twice_jobs(self):
        pool = MonitorPool(SEEN_SET_TEXT, jobs=3)
        assert pool.max_in_flight == 6


VECTOR_TEXT = """\
in i: Int
def dbl := add(i, i)
out dbl
"""

TWO_STREAM_TEXT = """\
in db2: Int
in db3: Int
def tick := merge(db2, db3)
def m_m := merge(m, map_empty(unit))
def m_l := last(m_m, tick)
def tins := map_get_or(m_l, db3, db3 - db3)
def ok := slift(leq, time(db3) - tins, 60)
def m := map_put_if(m_l, db2, time(tick))
out ok
"""


def two_stream_traces(count, length=60):
    return [
        to_events(random_trace(["db2", "db3"], length, 9, seed))
        for seed in range(count)
    ]


def dense_traces(count, length=50):
    return [
        [(t, "i", (t * seed) % 7) for t in range(length)]
        for seed in range(count)
    ]


def columns_of(payload):
    """A columnar payload as plain lists (exact Python values)."""
    timestamps, columns = payload
    return timestamps.tolist(), {
        name: column if isinstance(column, list) else column.tolist()
        for name, column in columns.items()
    }


# Same-timestamp events deliberately out of stream-name order.
MIXED_SPARSE = [(0, "b", 1), (0, "a", 2), (1, "a", 3), (3, "b", 4)]
MIXED_DENSE = [
    (0, "b", 1),
    (0, "a", 2),
    (1, "a", 3),
    (1, "b", 4),
    (2, "b", 5),
    (2, "a", 6),
]


class TestColumnEncoding:
    """``_task_payload``: columns only for dense, exactly typed traces."""

    @needs_numpy
    def test_columns_preserve_exact_types(self):
        events = [
            (0, "a", 1),
            (0, "b", True),
            (1, "a", 2),
            (1, "b", False),
            (2, "a", -(2**40)),
            (2, "b", True),
        ]
        timestamps, columns = columns_of(_task_payload(events, True))
        assert timestamps == [0, 1, 2]
        assert columns == {"a": [1, 2, -(2**40)], "b": [True, False, True]}
        assert [type(v) for v in columns["a"]] == [int, int, int]
        assert [type(v) for v in columns["b"]] == [bool, bool, bool]

    @needs_numpy
    def test_float_and_unit_columns(self):
        events = [(t, "f", t * 0.5) for t in range(5)] + [
            (t, "u", UNIT_VALUE) for t in range(5)
        ]
        events.sort(key=lambda e: e[0])
        timestamps, columns = columns_of(_task_payload(events, True))
        assert timestamps == list(range(5))
        assert columns == {
            "f": [t * 0.5 for t in range(5)],
            "u": [UNIT_VALUE] * 5,
        }

    @needs_numpy
    @pytest.mark.parametrize(
        "events",
        [
            # sparse: only dense traces feed feed_columns
            [(0, "a", 1), (2, "b", 5), (3, "a", 2), (3, "b", 6), (9, "a", 3)],
            # duplicate (ts, stream): last-write-wins needs both rows
            [(0, "a", 1), (0, "a", 2), (1, "a", 3)],
            # heterogeneous values
            [(0, "a", 1), (1, "a", "text"), (2, "a", {"k": [1]})],
            # 1 and 1.0 are equal but a float64 column would retype 1
            [(0, "a", 1), (1, "a", 1.0)],
            # unsorted timestamps
            [(5, "a", 1), (2, "a", 2)],
        ],
        ids=["sparse", "duplicate", "heterogeneous", "int_float", "unsorted"],
    )
    def test_irregular_traces_ride_as_rows(self, events):
        assert _task_payload(events, True) is events

    @pytest.mark.parametrize("events", [MIXED_SPARSE, MIXED_DENSE])
    def test_rows_keep_within_timestamp_order(self, events):
        assert _task_payload(events, False) is events

    def test_rows_without_numpy(self, monkeypatch):
        monkeypatch.setattr(kernels, "_np", None)
        events = [(t, "a", t) for t in range(10)]
        assert _task_payload(events, True) is events


@pytest.fixture
def payload_kinds(monkeypatch):
    """Record every task payload the parent builds: rows or columns."""
    kinds = []

    def spy(events, columnar):
        payload = _task_payload(events, columnar)
        kinds.append("columns" if isinstance(payload, tuple) else "rows")
        return payload

    monkeypatch.setattr(pool_module, "_task_payload", spy)
    return kinds


class TestPayloadChoice:
    """Columns only where the worker runs the vector engine unvalidated."""

    def test_scalar_pool_sends_sparse_two_stream_as_rows(self, payload_kinds):
        assert api.compile(TWO_STREAM_TEXT).engine_resolved == "codegen"
        traces = two_stream_traces(6)
        serial = MonitorPool(TWO_STREAM_TEXT, jobs=1).run_many(traces)
        result = MonitorPool(TWO_STREAM_TEXT, jobs=2).run_many(traces)
        assert result.failures == 0
        assert payload_kinds == ["rows"] * len(traces)
        assert result.outputs() == serial.outputs()
        assert any(serial.outputs())

    def test_dense_trace_under_scalar_engine_rides_as_rows(
        self, payload_kinds
    ):
        traces = dense_traces(3)
        options = api.CompileOptions(engine="codegen")
        serial = MonitorPool(
            VECTOR_TEXT, compile_options=options, jobs=1
        ).run_many(traces)
        result = MonitorPool(
            VECTOR_TEXT, compile_options=options, jobs=2
        ).run_many(traces)
        assert payload_kinds == ["rows"] * len(traces)
        assert result.outputs() == serial.outputs()

    @needs_numpy
    def test_validated_run_rides_as_rows(self, payload_kinds):
        # validate_inputs reports errors in original row order.
        traces = dense_traces(3)
        serial = MonitorPool(VECTOR_TEXT, jobs=1).run_many(
            traces, validate_inputs=True
        )
        result = MonitorPool(VECTOR_TEXT, jobs=2).run_many(
            traces, validate_inputs=True
        )
        assert payload_kinds == ["rows"] * len(traces)
        assert result.outputs() == serial.outputs()
        assert result.failures == 0

    @needs_numpy
    def test_vector_pool_feeds_dense_columns(self, payload_kinds, monkeypatch):
        assert api.compile(VECTOR_TEXT).engine_resolved == "vector"
        traces = dense_traces(3)
        serial = MonitorPool(VECTOR_TEXT, jobs=1).run_many(traces)

        # Forked workers inherit the patch: a worker that ran a
        # columnar payload through the row path would fail its trace.
        def no_rows(*args, **kwargs):
            raise AssertionError("columnar trace run as rows")

        monkeypatch.setattr(pool_module, "_run_one", no_rows)
        result = MonitorPool(VECTOR_TEXT, jobs=2).run_many(traces)
        assert result.failures == 0
        assert payload_kinds == ["columns"] * len(traces)
        assert result.outputs() == serial.outputs()
        assert result.report.events_in == serial.report.events_in

    @pytest.mark.parametrize(
        "spec, traces",
        [
            (SEEN_SET_TEXT, make_traces(6, length=40)),
            pytest.param(VECTOR_TEXT, dense_traces(6), marks=needs_numpy),
        ],
        ids=["rows", "columns"],
    )
    def test_pool_matches_serial(self, spec, traces):
        serial = MonitorPool(spec, jobs=1).run_many(traces)
        result = MonitorPool(spec, jobs=2).run_many(traces)
        assert serial.backend == "sequential"
        assert result.backend == "process"
        assert result.failures == 0
        assert result.outputs() == serial.outputs()
        assert result.report.events_in == serial.report.events_in

    def test_bytes_pickled_counts_task_messages(self, monkeypatch):
        monkeypatch.setattr(DEFAULT_REGISTRY, "enabled", True)

        def counter(name):
            return DEFAULT_REGISTRY.snapshot()["counters"].get(name, 0)

        shared = counter(POOL_BYTES_SHARED)
        pickled = counter(POOL_BYTES_PICKLED)
        traces = make_traces(4, length=30)
        result = MonitorPool(SEEN_SET_TEXT, jobs=2).run_many(traces)
        assert result.failures == 0
        assert counter(POOL_BYTES_SHARED) == shared
        assert counter(POOL_BYTES_PICKLED) - pickled >= sum(
            len(trace) for trace in traces
        )


class TestNoTransportKnob:
    def test_pool_rejects_transport(self):
        with pytest.raises(TypeError):
            MonitorPool(SEEN_SET_TEXT, transport="pipe")

    def test_run_options_rejects_pool_transport(self):
        with pytest.raises(TypeError):
            api.RunOptions(pool_transport="pipe")
