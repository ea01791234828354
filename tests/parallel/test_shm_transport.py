"""Shared-memory trace transport: encoding, equivalence, crash safety.

The acceptance contract for the shm data path is threefold:

* **Encoding fidelity** — ``TraceArena.pack`` / ``attach`` roundtrips
  every trace bit-for-bit: exact Python value types, exact row order,
  duplicates and heterogeneous payloads via the pickled-blob fallback.
* **Equivalence** — a pool run over shm produces byte-identical
  ordered results to the pipe transport and a sequential run, on every
  chaos scenario the pipe transport survives.
* **Zero leaks** — every segment the parent creates is unlinked
  exactly once, across success, kill, hang, poison-quarantine and
  fail-fast abort; SIGKILLed workers must not leave phantom
  resource-tracker registrations behind.

Plus the parse-once satellite: a trace iterable is consumed exactly
once per trace, no matter how many times supervision re-dispatches it.
"""

import os
import subprocess
import sys

import pytest

from repro import api
from repro.compiler import kernels
from repro.compiler.monitor import UNIT_VALUE
from repro.errors import PoolError
from repro.parallel import MonitorPool, TraceArena
from repro.obs.metrics import (
    DEFAULT_REGISTRY,
    POOL_BYTES_PICKLED,
    POOL_BYTES_SHARED,
)
from repro.parallel.shm import AttachedTrace, attach, shm_available
from repro.testing import (
    chaos_pool_run,
    hang_worker,
    kill_worker_after,
    poison_trace,
)

from .util import random_trace, to_events

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="shared_memory unavailable"
)

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

VECTOR_TEXT = """\
in i: Int
def dbl := add(i, i)
out dbl
"""


def make_traces(count, length=40, domain=7):
    return [
        to_events(random_trace(["i"], length, domain, seed))
        for seed in range(count)
    ]


def shm_entries():
    """Current /dev/shm segment names (Linux); None when unsupported."""
    if not os.path.isdir("/dev/shm"):
        return None
    return sorted(os.listdir("/dev/shm"))


def assert_no_new_segments(before):
    after = shm_entries()
    if before is None or after is None:
        return
    leaked = sorted(set(after) - set(before))
    assert not leaked, f"leaked shared-memory segments: {leaked}"


def roundtrip(events, **kwargs):
    """Pack and attach one trace; return ``(descriptor, payload)``.

    The payload is what a worker reads: ``rows()`` for a blob,
    ``dense_block()`` (copied out of the segment) for a columnar pack.
    """
    arena = TraceArena()
    try:
        descriptor = arena.pack(0, events, **kwargs)
        attached = attach(descriptor)
        try:
            block = attached.dense_block()
            if block is None:
                return descriptor, attached.rows()
            timestamps = block[0].tolist()
            columns = {
                name: column if isinstance(column, list) else column.tolist()
                for name, column in block[1].items()
            }
            del block  # drop the segment views before close()
            return descriptor, (timestamps, columns)
        finally:
            attached.close()
    finally:
        arena.close_all()


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


class TestEncoding:
    @needs_numpy
    def test_columnar_roundtrip_preserves_exact_types(self):
        events = [
            (0, "a", 1),
            (0, "b", True),
            (1, "a", 2),
            (1, "b", False),
            (2, "a", -(2**40)),
            (2, "b", True),
        ]
        descriptor, (timestamps, columns) = roundtrip(events, columnar=True)
        assert descriptor.kind == "columnar"
        assert descriptor.count == len(events)
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
        descriptor, (timestamps, columns) = roundtrip(events, columnar=True)
        assert descriptor.kind == "columnar"
        assert timestamps == list(range(5))
        assert columns == {
            "f": [t * 0.5 for t in range(5)],
            "u": [UNIT_VALUE] * 5,
        }

    @needs_numpy
    def test_sparse_trace_packs_as_blob(self):
        # Only dense traces feed feed_columns zero-copy; a sparse one
        # ships as a blob even when the columnar encoding is allowed.
        events = [
            (0, "a", 1),
            (2, "b", 5),
            (3, "a", 2),
            (3, "b", 6),
            (9, "a", 3),
        ]
        descriptor, rows = roundtrip(events, columnar=True)
        assert descriptor.kind == "pickle"
        assert rows == events

    @needs_numpy
    @pytest.mark.parametrize("events", [MIXED_SPARSE, MIXED_DENSE])
    def test_row_path_keeps_within_timestamp_order(self, events):
        # The row path hands workers the exact original event tuples,
        # including the order of events that share a timestamp.
        descriptor, rows = roundtrip(events)
        assert rows == events
        assert descriptor.kind == "pickle"

    @needs_numpy
    def test_duplicate_ts_stream_falls_back_to_pickle(self):
        # Last-write-wins duplicates cannot live in one column slot
        # without losing a row; the blob keeps them verbatim.
        events = [(0, "a", 1), (0, "a", 2), (1, "a", 3)]
        descriptor, rows = roundtrip(events, columnar=True)
        assert descriptor.kind == "pickle"
        assert rows == events

    @needs_numpy
    def test_heterogeneous_values_fall_back_to_pickle(self):
        events = [(0, "a", 1), (1, "a", "text"), (2, "a", {"k": [1]})]
        descriptor, rows = roundtrip(events, columnar=True)
        assert descriptor.kind == "pickle"
        assert rows == events

    @needs_numpy
    def test_mixed_int_float_column_falls_back(self):
        # 1 and 1.0 compare equal but are different Python objects; a
        # float64 column would silently retype the int.
        descriptor, rows = roundtrip(
            [(0, "a", 1), (1, "a", 1.0)], columnar=True
        )
        assert descriptor.kind == "pickle"
        assert [type(v) for _t, _n, v in rows] == [int, float]

    @needs_numpy
    def test_unsorted_timestamps_fall_back(self):
        events = [(5, "a", 1), (2, "a", 2)]
        descriptor, rows = roundtrip(events, columnar=True)
        assert descriptor.kind == "pickle"
        assert rows == events

    @needs_numpy
    def test_blob_is_the_default(self):
        events = [(t, "a", t) for t in range(10)]
        descriptor, rows = roundtrip(events)
        assert descriptor.kind == "pickle"
        assert rows == events

    def test_pickle_roundtrip_without_numpy(self, monkeypatch):
        monkeypatch.setattr(kernels, "_np", None)
        events = [(t, "a", t) for t in range(10)]
        descriptor, rows = roundtrip(events, columnar=True)
        assert descriptor.kind == "pickle"
        assert rows == events

    @needs_numpy
    def test_rows_rejects_columnar_payload(self):
        arena = TraceArena()
        try:
            descriptor = arena.pack(
                0, [(t, "a", t) for t in range(4)], columnar=True
            )
            attached = attach(descriptor)
            try:
                with pytest.raises(ValueError):
                    attached.rows()
            finally:
                attached.close()
        finally:
            arena.close_all()

    def test_release_is_idempotent_and_unlinks(self):
        before = shm_entries()
        arena = TraceArena()
        arena.pack(0, [(0, "a", 1), (1, "a", 2)])
        assert len(arena) == 1
        arena.release(0)
        arena.release(0)  # idempotent
        assert len(arena) == 0
        arena.close_all()
        assert_no_new_segments(before)


class TestEquivalence:
    @pytest.mark.parametrize("spec", [SEEN_SET_TEXT, VECTOR_TEXT])
    def test_shm_matches_pipe_and_serial(self, spec):
        traces = make_traces(6)
        serial = MonitorPool(spec, jobs=1).run_many(traces)
        before = shm_entries()
        results = {}
        for transport in ("pipe", "shm"):
            pool = MonitorPool(spec, jobs=2, transport=transport)
            result = pool.run_many(traces)
            assert result.transport == transport
            assert result.failures == 0
            results[transport] = result
        assert_no_new_segments(before)
        assert (
            results["shm"].outputs()
            == results["pipe"].outputs()
            == serial.outputs()
        )

    def test_validated_run_matches_pipe(self):
        # validate_inputs needs original row order for its error
        # reporting: the arena must take the blob path and the results
        # must still match.
        traces = make_traces(4)
        pipe = MonitorPool(
            SEEN_SET_TEXT, jobs=2, transport="pipe"
        ).run_many(traces, validate_inputs=True)
        shm = MonitorPool(
            SEEN_SET_TEXT, jobs=2, transport="shm"
        ).run_many(traces, validate_inputs=True)
        assert shm.outputs() == pipe.outputs()
        assert shm.failures == pipe.failures == 0

    def test_auto_resolves_to_shm_when_available(self):
        pool = MonitorPool(SEEN_SET_TEXT, jobs=2)
        result = pool.run_many(make_traces(2))
        assert result.transport == "shm"

    def test_invalid_transport_rejected(self):
        with pytest.raises(ValueError):
            MonitorPool(SEEN_SET_TEXT, transport="carrier-pigeon")


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


@pytest.fixture
def packed_kinds(monkeypatch):
    """Record every descriptor kind the parent packs; count pool bytes."""
    kinds = []
    original = TraceArena.pack

    def spy(self, index, events, **kwargs):
        descriptor = original(self, index, events, **kwargs)
        kinds.append(descriptor.kind)
        return descriptor

    monkeypatch.setattr(TraceArena, "pack", spy)
    monkeypatch.setattr(DEFAULT_REGISTRY, "enabled", True)
    return kinds


def pool_bytes(name):
    return DEFAULT_REGISTRY.snapshot()["counters"].get(name, 0)


class TestEncodingChoice:
    """Columnar only where the worker feeds ``feed_columns`` zero-copy."""

    def test_scalar_pool_packs_sparse_two_stream_as_blob(self, packed_kinds):
        assert api.compile(TWO_STREAM_TEXT).engine_resolved == "codegen"
        traces = two_stream_traces(4)
        shared = pool_bytes(POOL_BYTES_SHARED)
        pickled = pool_bytes(POOL_BYTES_PICKLED)
        result = MonitorPool(
            TWO_STREAM_TEXT, jobs=2, transport="shm"
        ).run_many(traces)
        assert result.failures == 0
        assert packed_kinds == ["pickle"] * len(traces)
        assert pool_bytes(POOL_BYTES_SHARED) == shared
        assert pool_bytes(POOL_BYTES_PICKLED) > pickled

    @pytest.mark.parametrize("engine", ["codegen"])
    def test_dense_trace_under_scalar_engine_packs_as_blob(
        self, packed_kinds, engine
    ):
        traces = dense_traces(3)
        options = api.CompileOptions(engine=engine)
        serial = MonitorPool(
            VECTOR_TEXT, compile_options=options, jobs=1
        ).run_many(traces)
        result = MonitorPool(
            VECTOR_TEXT,
            compile_options=options,
            jobs=2,
            transport="shm",
        ).run_many(traces)
        assert packed_kinds == ["pickle"] * len(traces)
        assert result.outputs() == serial.outputs()

    @needs_numpy
    def test_vector_pool_feeds_dense_columns(self, packed_kinds, monkeypatch):
        # Forked workers inherit the patch: a worker that took the row
        # path instead of dense_block() would fail its trace.
        def no_rows(self):
            raise AssertionError("columnar trace read through rows()")

        monkeypatch.setattr(AttachedTrace, "rows", no_rows)
        assert api.compile(VECTOR_TEXT).engine_resolved == "vector"
        traces = dense_traces(3)
        serial = MonitorPool(VECTOR_TEXT, jobs=1).run_many(traces)
        shared = pool_bytes(POOL_BYTES_SHARED)
        result = MonitorPool(
            VECTOR_TEXT, jobs=2, transport="shm"
        ).run_many(traces)
        assert result.failures == 0
        assert packed_kinds == ["columnar"] * len(traces)
        assert pool_bytes(POOL_BYTES_SHARED) > shared
        assert result.outputs() == serial.outputs()

    @needs_numpy
    def test_sparse_two_stream_shm_matches_pipe_and_serial(self):
        traces = two_stream_traces(6)
        serial = MonitorPool(TWO_STREAM_TEXT, jobs=1).run_many(traces)
        before = shm_entries()
        outputs = {}
        for transport in ("pipe", "shm"):
            result = MonitorPool(
                TWO_STREAM_TEXT, jobs=2, transport=transport
            ).run_many(traces)
            assert result.transport == transport
            assert result.failures == 0
            outputs[transport] = result.outputs()
        assert_no_new_segments(before)
        assert outputs["shm"] == outputs["pipe"] == serial.outputs()
        assert any(serial.outputs())


class TestChaosLeakMatrix:
    """Kill/hang/poison under shm: identical results, zero segments."""

    def test_killed_worker_redispatch_reuses_segment(self):
        traces = make_traces(6)
        baseline = MonitorPool(SEEN_SET_TEXT, jobs=1).run_many(traces)
        before = shm_entries()
        result = chaos_pool_run(
            SEEN_SET_TEXT,
            traces,
            kill_worker_after(2, seed=7),
            transport="shm",
        )
        assert_no_new_segments(before)
        assert result.outputs() == baseline.outputs()
        assert result.failures == 0
        assert result.report.retries >= 1

    def test_hung_worker_redispatch(self):
        traces = make_traces(5)
        baseline = MonitorPool(SEEN_SET_TEXT, jobs=1).run_many(traces)
        before = shm_entries()
        result = chaos_pool_run(
            SEEN_SET_TEXT, traces, hang_worker(1), transport="shm"
        )
        assert_no_new_segments(before)
        assert result.outputs() == baseline.outputs()
        assert result.failures == 0

    def test_poison_quarantine_unlinks(self):
        options = api.CompileOptions(error_policy="propagate")
        traces = make_traces(5)
        before = shm_entries()
        result = chaos_pool_run(
            SEEN_SET_TEXT,
            traces,
            poison_trace(2),
            compile_options=options,
            max_attempts=2,
            transport="shm",
        )
        assert_no_new_segments(before)
        assert result.failures == 1
        assert result.results[2].quarantined

    def test_fail_fast_abort_unlinks(self):
        traces = make_traces(5)
        before = shm_entries()
        with pytest.raises(PoolError):
            chaos_pool_run(
                SEEN_SET_TEXT,
                traces,
                poison_trace(1),
                max_attempts=2,
                transport="shm",
            )
        assert_no_new_segments(before)

    def test_no_resource_tracker_leak_warnings(self, tmp_path):
        # SIGKILLed workers never unwind; if their attach had registered
        # the segment, the resource tracker would warn about "leaked
        # shared_memory objects" at interpreter exit.  Run a kill-chaos
        # pool in a subprocess and fail on any such warning.
        script = tmp_path / "chaos.py"
        script.write_text(
            "from repro.testing import chaos_pool_run, kill_worker_after\n"
            "from tests.parallel.test_shm_transport import (\n"
            "    SEEN_SET_TEXT, make_traces)\n"
            "traces = make_traces(6)\n"
            "result = chaos_pool_run(\n"
            "    SEEN_SET_TEXT, traces, kill_worker_after(2, seed=7),\n"
            "    transport='shm')\n"
            "assert result.failures == 0\n"
            "assert result.report.retries >= 1\n"
            "print('done')\n"
        )
        repo_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(repo_root, "src"), repo_root]
        )
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
            cwd=repo_root,
        )
        assert proc.returncode == 0, proc.stderr
        assert "done" in proc.stdout
        assert "leaked shared_memory" not in proc.stderr, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr


class _OneShotTrace:
    """An iterable that counts (and permits) a single materialization."""

    def __init__(self, events):
        self.events = list(events)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return iter(list(self.events))


class TestParseOnce:
    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_retries_do_not_reiterate_traces(self, transport):
        # Supervision re-dispatches trace 2 after a worker kill; the
        # parent must resend the packed payload, never re-pull the
        # source iterable.
        raw = make_traces(5)
        traces = [_OneShotTrace(events) for events in raw]
        baseline = MonitorPool(SEEN_SET_TEXT, jobs=1).run_many(raw)
        result = chaos_pool_run(
            SEEN_SET_TEXT,
            traces,
            kill_worker_after(2, seed=7),
            transport=transport,
        )
        assert result.outputs() == baseline.outputs()
        assert result.report.retries >= 1
        assert [t.iterations for t in traces] == [1] * len(traces)
