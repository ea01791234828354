"""Behavioral tests for the columnar vector engine.

The vector monitor must be indistinguishable from the codegen engine on
every observable surface: outputs (byte-identical Python values), the
batch protocol's error messages and partial-progress contract, carry
state across batch boundaries, per-event ``push`` interleaving, and
snapshot/restore.  Where it *is* allowed to differ — per-kernel
metrics, the ``SOURCE`` sentinel — those are pinned here too.
"""

import pytest

from repro.compiler import build_compiled_spec, kernels
from repro.compiler.monitor import MonitorError, freeze
from repro.compiler.vector import VOP_KERNEL
from repro.frontend import parse_spec
from repro.lang import check_types, flatten

pytestmark = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy not installed"
)

SCALAR_CHAIN = """
in i: Int
def prev := last(i, i)
def d := sub(i, prev)
def neg := lt(d, 0)
out d
out neg
"""

TWO_INPUT = """
in a: Int
in b: Int
def s := add(a, b)
def m := merge(s, a)
def f := filter(m, gt(m, 4))
out m
out f
"""

HYBRID = """
in i: Int
def agg := count(i)
def dbl := add(i, i)
out agg
out dbl
"""

LAST_DIFF = """
in x: Int
def p := last(x, x)
def d := x - p
out d
"""

#: Constants and ``unit`` fire only at timestamp 0, which the scalar
#: half calculates; ``p`` carries the constant across via a last cell.
AT_ZERO = """
in i: Int
def c := 3
def u := unit
def t := time(i)
def s := add(i, c)
def p := last(c, i)
def q := add(i, p)
out c
out u
out t
out s
out q
"""

DELAYED = """
in a: Int
in r: Unit
def d := delay(a, r)
def t := time(d)
def dbl := add(a, a)
out t
out dbl
"""


def compile_pair(text, **kwargs):
    flat = flatten(parse_spec(text))
    check_types(flat)
    vec = build_compiled_spec(flat, engine="vector", **kwargs)
    codegen = build_compiled_spec(flat, engine="codegen", **kwargs)
    return vec, codegen


def run_batches(compiled, event_batches, end_time=None):
    collected = []
    monitor = compiled.new_monitor(lambda n, t, v: collected.append((n, t, v)))
    for batch in event_batches:
        monitor.feed_batch(batch)
    monitor.finish(end_time=end_time)
    return collected


def chain_events(n=60):
    return [(t, "i", (t * 7) % 13 - 6) for t in range(1, n + 1)]


class TestProgramShape:
    def test_eligible_spec_gets_vector_program(self):
        vec, _ = compile_pair(SCALAR_CHAIN)
        assert vec.engine == "vector"
        cls = vec.monitor_class
        assert cls.VPROG is not None
        assert "columnar numpy kernels" in cls.SOURCE

    def test_error_policy_resolves_codegen(self):
        vec, _ = compile_pair(SCALAR_CHAIN, error_policy="propagate")
        assert vec.engine == "codegen"

    def test_fully_ineligible_spec_resolves_codegen(self):
        from repro.speclib import seen_set

        compiled = build_compiled_spec(seen_set(), engine="vector")
        assert compiled.engine == "codegen"

    def test_spec_without_outputs_runs_columnar(self):
        from repro.lang import INT, Specification, Var
        from repro.lang.ast import Lift
        from repro.lang.builtins import builtin

        spec = Specification(
            inputs={"i": INT},
            definitions={"d": Lift(builtin("add"), (Var("i"), Var("i")))},
            outputs=[],
        )
        vec = build_compiled_spec(spec, engine="vector")
        assert vec.engine == "vector"
        assert run_batches(vec, [chain_events(100)]) == []

    def test_builder_refuses_ineligible_spec(self):
        from repro.compiler.vector import make_vector_class

        vec, _ = compile_pair(HYBRID)
        with pytest.raises(ValueError, match="not vector-eligible"):
            make_vector_class(vec.flat, vec.order, vec.backends)


class TestBatchBoundaries:
    @pytest.mark.parametrize("split", [1, 2, 7, 13, 59])
    def test_last_carries_across_batches(self, split):
        vec, codegen = compile_pair(SCALAR_CHAIN)
        events = chain_events()
        batches = [
            events[i : i + split] for i in range(0, len(events), split)
        ]
        assert run_batches(vec, batches) == run_batches(codegen, [events])

    def test_batch_boundary_inside_timestamp(self):
        vec, codegen = compile_pair(TWO_INPUT)
        events = [(1, "a", 1), (1, "b", 2), (2, "a", 3), (2, "b", 4)]
        split = [events[:1], events[1:3], events[3:]]
        assert run_batches(vec, split) == run_batches(codegen, [events])

    def test_push_and_batch_interleave(self):
        vec, codegen = compile_pair(SCALAR_CHAIN)
        events = chain_events(30)
        expected = run_batches(codegen, [events])
        collected = []
        monitor = vec.new_monitor(lambda n, t, v: collected.append((n, t, v)))
        for ts, name, value in events[:10]:
            monitor.push(name, ts, value)
        monitor.feed_batch(events[10:25])
        for ts, name, value in events[25:]:
            monitor.push(name, ts, value)
        monitor.finish()
        assert collected == expected

    def test_delay_spec_agrees(self):
        vec, codegen = compile_pair(DELAYED)
        events = []
        for t in range(1, 100, 3):
            events.append((t, "a", t % 5 + 1))
            events.append((t, "r", ()))
        got_vec = run_batches(vec, [events], end_time=120)
        got_codegen = run_batches(codegen, [events], end_time=120)
        assert got_vec == got_codegen

    def test_outputs_are_python_scalars(self):
        vec, _ = compile_pair(SCALAR_CHAIN)
        collected = run_batches(vec, [chain_events(20)])
        for _, _, value in collected:
            assert type(value) in (int, bool)


class TestBatchProtocol:
    def make(self, text=TWO_INPUT):
        vec, _ = compile_pair(text)
        collected = []
        return vec.new_monitor(lambda n, t, v: collected.append((n, t, v))), collected

    def test_unknown_stream(self):
        monitor, _ = self.make()
        with pytest.raises(MonitorError, match="unknown input stream"):
            monitor.feed_batch([(1, "nope", 1)])

    def test_none_payload(self):
        monitor, _ = self.make()
        with pytest.raises(MonitorError, match="no-event value"):
            monitor.feed_batch([(1, "a", None)])

    def test_out_of_order_keeps_partial_progress(self):
        # The scalar loop consumes events up to the offender; the
        # vectorized batch path must honor that exact contract.
        vec, codegen = compile_pair(TWO_INPUT)
        got = {}
        for compiled in (vec, codegen):
            collected = []
            monitor = compiled.new_monitor(lambda n, t, v: collected.append((n, t, v)))
            with pytest.raises(MonitorError, match="out-of-order"):
                monitor.feed_batch(
                    [(1, "a", 1), (2, "a", 2), (1, "b", 9)]
                )
            # valid prefix (t=1) was calculated; t=2 is still pending
            monitor.feed_batch([(3, "a", 3)])
            monitor.finish()
            got[compiled.engine] = collected
        assert got["vector"] == got["codegen"]

    def test_after_finish(self):
        monitor, _ = self.make()
        monitor.finish()
        with pytest.raises(MonitorError, match="after finish"):
            monitor.feed_batch([(1, "a", 1)])


class TestFeedColumns:
    def test_matches_row_feeding(self):
        vec, codegen = compile_pair(TWO_INPUT)
        ts = list(range(1, 50))
        cols = {"a": [t % 7 for t in ts], "b": [t % 5 for t in ts]}
        vec_out, codegen_out = [], []
        mv = vec.new_monitor(lambda n, t, v: vec_out.append((n, t, v)))
        mv.feed_columns(ts, cols)
        mv.finish()
        mp = codegen.new_monitor(lambda n, t, v: codegen_out.append((n, t, v)))
        mp.feed_columns(ts, cols)
        mp.finish()
        assert vec_out == codegen_out

    def test_numpy_columns_zero_copy_path(self):
        np = kernels.numpy_module()
        vec, codegen = compile_pair(TWO_INPUT)
        ts = np.arange(1, 50)
        cols = {
            "a": np.arange(1, 50) % 7,
            "b": np.arange(1, 50) % 5,
        }
        vec_out, codegen_out = [], []
        mv = vec.new_monitor(lambda n, t, v: vec_out.append((n, t, v)))
        mv.feed_columns(ts, cols)
        mv.finish()
        mp = codegen.new_monitor(lambda n, t, v: codegen_out.append((n, t, v)))
        mp.feed_columns(
            ts.tolist(), {k: v.tolist() for k, v in cols.items()}
        )
        mp.finish()
        assert vec_out == codegen_out
        assert all(type(v) in (int, bool) for _, _, v in vec_out)

    def test_partial_column_set(self):
        # Streams absent from the column mapping simply have no events.
        vec, codegen = compile_pair(TWO_INPUT)
        ts = list(range(1, 20))
        cols = {"a": [t + 1 for t in ts]}
        out = {}
        for compiled in (vec, codegen):
            collected = []
            m = compiled.new_monitor(lambda n, t, v: collected.append((n, t, v)))
            m.feed_columns(ts, cols)
            m.finish()
            out[compiled.engine] = collected
        assert out["vector"] == out["codegen"]

    def test_unknown_stream(self):
        vec, _ = compile_pair(TWO_INPUT)
        monitor = vec.new_monitor()
        with pytest.raises(MonitorError, match="unknown input stream"):
            monitor.feed_columns([1, 2], {"nope": [1, 2]})

    def test_length_mismatch(self):
        vec, _ = compile_pair(TWO_INPUT)
        monitor = vec.new_monitor()
        with pytest.raises(MonitorError, match="values"):
            monitor.feed_columns([1, 2, 3], {"a": [1, 2]})

    def test_non_increasing_timestamps(self):
        vec, _ = compile_pair(TWO_INPUT)
        monitor = vec.new_monitor()
        with pytest.raises(MonitorError, match="strictly increasing"):
            monitor.feed_columns([1, 1], {"a": [1, 2]})

    def test_none_hole_rejected_like_rows(self):
        vec, _ = compile_pair(TWO_INPUT)
        monitor = vec.new_monitor()
        with pytest.raises(MonitorError, match="no-event value"):
            monitor.feed_columns([1, 2], {"a": [1, None]})

    def test_row_shim_rejects_unsorted_timestamps(self):
        # Regression: the base row shim used to accept an unsorted (or
        # merely non-strict) timestamps array that the vector path
        # rejects — the row shim silently consumed it.
        _, codegen = compile_pair(TWO_INPUT)
        for bad_ts in ([1, 1], [2, 1]):
            monitor = codegen.new_monitor()
            with pytest.raises(MonitorError, match="strictly increasing"):
                monitor.feed_columns(bad_ts, {"a": [1, 2]})

    BAD_BATCHES = [
        ("equal-ts", [1, 1], {"a": [1, 2]}),
        ("descending-ts", [2, 1], {"a": [1, 2]}),
        ("negative-ts", [-1, 2], {"a": [1, 2]}),
        ("none-hole", [1, 2], {"a": [1, None]}),
        ("unknown-stream", [1, 2], {"nope": [1, 2]}),
        ("ragged-column", [1, 2, 3], {"a": [1, 2]}),
        ("empty-unknown", [], {"nope": []}),
    ]

    @pytest.mark.parametrize(
        "ts,cols",
        [(ts, cols) for _, ts, cols in BAD_BATCHES],
        ids=[label for label, _, _ in BAD_BATCHES],
    )
    def test_rejection_identical_across_engines(self, ts, cols):
        # Error message AND partial progress must be byte-identical:
        # a rejected columnar batch consumes nothing on either engine,
        # so a clean batch afterwards produces identical outputs.
        vec, codegen = compile_pair(TWO_INPUT)
        results = {}
        for compiled in (vec, codegen):
            collected = []
            m = compiled.new_monitor(
                lambda n, t, v: collected.append((n, t, v))
            )
            with pytest.raises(MonitorError) as exc:
                m.feed_columns(ts, cols)
            m.feed_columns([5, 6], {"a": [5, 6], "b": [1, 2]})
            m.finish()
            results[compiled.engine] = (str(exc.value), collected)
        assert results["vector"] == results["codegen"]

    def test_stale_timestamp_identical_across_engines(self):
        vec, codegen = compile_pair(TWO_INPUT)
        results = {}
        for compiled in (vec, codegen):
            m = compiled.new_monitor()
            m.feed_columns([1, 2, 3], {"a": [1, 2, 3]})
            with pytest.raises(MonitorError) as exc:
                m.feed_columns([1, 2], {"a": [9, 9]})
            results[compiled.engine] = str(exc.value)
        assert results["vector"] == results["codegen"]

    def test_empty_batch_validates_columns(self):
        # Zero timestamps is a no-op, but unknown or ragged columns
        # are still reported — on both engines.
        vec, codegen = compile_pair(TWO_INPUT)
        for compiled in (vec, codegen):
            monitor = compiled.new_monitor()
            assert monitor.feed_columns([], {"a": []}) == 0
            with pytest.raises(MonitorError, match="unknown input stream"):
                monitor.feed_columns([], {"nope": []})

    def test_empty_column_set_leaves_clock(self):
        # No stream has an event: the batch is validated but consumes
        # nothing, so a later push at one of its timestamps is accepted
        # (the row shim turns it into no events at all).
        vec, codegen = compile_pair(LAST_DIFF)
        out = {}
        for compiled in (vec, codegen):
            collected = []
            m = compiled.new_monitor(lambda n, t, v: collected.append((n, t, v)))
            assert m.feed_columns([1, 2, 3], {}) == 0
            m.push("x", 2, 5)
            m.push("x", 3, 7)
            m.finish()
            out[compiled.engine] = collected
        assert out["vector"] == out["codegen"] == [("d", 3, 2)]

    def test_runner_validating_path_matches(self):
        # The runner's validating row conversion must reject with the
        # same message and zero partial progress as the raw monitor.
        from repro.compiler.runtime import MonitorRunner

        vec, codegen = compile_pair(TWO_INPUT)
        results = {}
        for compiled in (vec, codegen):
            collected = []
            runner = MonitorRunner(
                compiled,
                lambda n, t, v: collected.append((n, t, v)),
                validate_inputs=True,
            )
            with pytest.raises(MonitorError) as exc:
                runner.feed_columns([3, 1], {"a": [1, 2]})
            runner.feed_columns([5, 6], {"a": [5, 6], "b": [1, 2]})
            runner.finish()
            results[compiled.engine] = (str(exc.value), collected)
        assert results["vector"] == results["codegen"]

    def test_after_pending_rows(self):
        # feed_columns after a partially-consumed row batch must merge
        # with the pending timestamp, exactly like another feed_batch.
        vec, codegen = compile_pair(TWO_INPUT)
        out = {}
        for compiled in (vec, codegen):
            collected = []
            m = compiled.new_monitor(lambda n, t, v: collected.append((n, t, v)))
            m.feed_batch([(1, "a", 1), (2, "a", 2)])  # t=2 pending
            m.feed_columns([3, 4], {"b": [7, 8]})
            m.finish()
            out[compiled.engine] = collected
        assert out["vector"] == out["codegen"]

    def test_later_chunks_stay_columnar(self, monkeypatch):
        # Every call leaves its last timestamp pending; the next chunk
        # must settle it and stay on the zero-copy path instead of
        # falling back to the inherited row shim.
        from repro.compiler.monitor import MonitorBase

        np = kernels.numpy_module()
        vec, codegen = compile_pair(SCALAR_CHAIN)
        chunks = [np.arange(start, start + 40) for start in (1, 41, 81)]

        def run(compiled):
            collected = []
            m = compiled.new_monitor(lambda n, t, v: collected.append((n, t, v)))
            for ts in chunks:
                m.feed_columns(ts, {"i": (ts * 7) % 13 - 6})
            m.finish()
            return collected

        expected = run(codegen)

        def row_shim(self, timestamps, columns):
            raise AssertionError("feed_columns fell back to the row shim")

        monkeypatch.setattr(MonitorBase, "feed_columns", row_shim)
        assert run(vec) == expected

    def test_chunk_at_pending_timestamp_merges(self):
        vec, codegen = compile_pair(TWO_INPUT)
        out = {}
        for compiled in (vec, codegen):
            collected = []
            m = compiled.new_monitor(lambda n, t, v: collected.append((n, t, v)))
            m.feed_columns([1, 2], {"a": [1, 2]})  # t=2 pending
            m.feed_columns([2, 3], {"b": [7, 8]})  # joins t=2
            m.finish()
            out[compiled.engine] = collected
        assert out["vector"] == out["codegen"]

    def test_chunk_before_pending_timestamp_rejected_like_codegen(self):
        vec, codegen = compile_pair(TWO_INPUT)
        results = {}
        for compiled in (vec, codegen):
            m = compiled.new_monitor()
            m.feed_columns([1, 5], {"a": [1, 5]})  # t=5 pending
            with pytest.raises(MonitorError) as exc:
                m.feed_columns([3, 4], {"a": [3, 4]})
            results[compiled.engine] = str(exc.value)
        assert results["vector"] == results["codegen"]
        assert "out-of-order" in results["vector"]


    #: ``t`` and ``u`` alias the caller's timestamp array, ``x`` and
    #: ``y`` its value arrays.  The kernel chain donates its temporaries
    #: (``a`` into ``b``, ``b`` into ``c``, ``c`` into ``d``); ``u`` is
    #: read last by ``c`` as its first argument, so only the protection
    #: of ``time()`` columns keeps ``c`` from writing into the caller's
    #: timestamps.
    TIME_CHAIN = """
in x: Int
in y: Int
def t := time(x)
def u := time(y)
def a := add(x, y)
def b := sub(t, a)
def c := add(u, b)
def d := add(c, t)
out t
out d
"""

    def test_caller_arrays_never_written(self):
        np = kernels.numpy_module()
        flat = flatten(parse_spec(self.TIME_CHAIN))
        check_types(flat)
        vec = build_compiled_spec(flat, engine="vector")
        codegen = build_compiled_spec(flat, engine="codegen")
        prog = vec.monitor_class.VPROG
        donated = {
            step[2][step[5]]
            for step in prog.steps
            if step[0] == VOP_KERNEL and step[5] >= 0
        }
        assert donated == {prog.vslot_of[name] for name in ("a", "b", "c")}

        ts = np.arange(3, 3 + 3 * 200, 3, dtype=np.int64)
        cols = {
            "x": (ts * 7) % 19 - 9,
            "y": (ts * 5) % 11 - 5,
        }
        before = [ts.copy()] + [cols[name].copy() for name in ("x", "y")]
        out = {}
        for compiled in (vec, codegen):
            collected = []
            m = compiled.new_monitor(
                lambda n, t, v: collected.append((n, t, v))
            )
            for lo in range(0, ts.shape[0], 64):
                m.feed_columns(
                    ts[lo:lo + 64],
                    {name: col[lo:lo + 64] for name, col in cols.items()},
                )
            m.finish()
            out[compiled.engine] = collected
        after = [ts] + [cols[name] for name in ("x", "y")]
        for old, new in zip(before, after):
            assert old.tobytes() == new.tobytes()
        assert out["vector"] == out["codegen"]
        assert len(out["vector"]) == 2 * ts.shape[0]
        assert all(type(v) is int for _, _, v in out["vector"])


class TestStatefulness:
    def test_snapshot_restore_roundtrip(self):
        vec, codegen = compile_pair(SCALAR_CHAIN)
        events = chain_events(40)
        expected = run_batches(codegen, [events])
        first = []
        m1 = vec.new_monitor(lambda n, t, v: first.append((n, t, v)))
        m1.feed_batch(events[:20])
        state = m1.snapshot()
        m2 = vec.new_monitor(lambda n, t, v: first.append((n, t, v)))
        m2.restore(state)
        m2.feed_batch(events[20:])
        m2.finish()
        assert first == expected


class TestScalarHalf:
    """Per-event ``push``, timestamp 0 and the pending timestamp run on
    the vector engine's scalar half."""

    @pytest.mark.parametrize("text", [SCALAR_CHAIN, TWO_INPUT, AT_ZERO])
    @pytest.mark.parametrize("start", [0, 1])
    def test_push_matches_codegen(self, text, start):
        vec, codegen = compile_pair(text)
        assert vec.engine == "vector"
        inputs = vec.monitor_class.INPUTS
        events = [
            (t, name, (t * 7) % 13 - 6)
            for t in range(start, 40)
            for name in inputs
            if (t + len(name)) % 3
        ]
        out = {}
        for compiled in (vec, codegen):
            collected = []
            m = compiled.new_monitor(lambda n, t, v: collected.append((n, t, v)))
            for ts, name, value in events:
                m.push(name, ts, value)
            m.finish()
            out[compiled.engine] = collected
        assert out["vector"] == out["codegen"]

    def test_lift_callables_resolved(self):
        from repro.compiler.vector import OP_LIFT_ALL, OP_MERGE

        vec, _ = compile_pair(TWO_INPUT)
        ops = vec.monitor_class.SCALAR.ops
        lifted = [op for op in ops if op[0] == OP_LIFT_ALL]
        assert lifted and all(callable(op[3]) for op in lifted)
        merges = [op for op in ops if op[0] == OP_MERGE]
        assert merges and all(op[3] is None for op in merges)

    def test_order_mismatch_rejected(self):
        from repro.compiler.codegen import CodegenError
        from repro.compiler.vector import build_scalar_program

        flat = flatten(parse_spec(SCALAR_CHAIN))
        check_types(flat)
        with pytest.raises(CodegenError):
            build_scalar_program(flat, ["only_one"], {})

    def test_both_halves_share_last_cells(self):
        from repro.compiler.vector import last_cells

        vec, _ = compile_pair(AT_ZERO)
        cls = vec.monitor_class
        streams = list(vec.flat.streams)
        scalar = {streams[slot]: cell for slot, cell in cls.SCALAR.last_stores}
        name_of = {vslot: name for name, vslot in cls.VPROG.vslot_of.items()}
        columnar = {name_of[vslot]: cell for vslot, cell, _ in cls.VPROG.last_vec}
        assert scalar == columnar == last_cells(vec.flat) == {"c": 0}

    def test_push_snapshot_restore_roundtrip(self):
        vec, codegen = compile_pair(SCALAR_CHAIN)
        events = chain_events(60)
        expected = run_batches(codegen, [events])
        collected = []
        m1 = vec.new_monitor(lambda n, t, v: collected.append((n, t, v)))
        for ts, name, value in events[:30]:
            m1.push(name, ts, value)
        state = m1.snapshot()
        # m1 is abandoned unflushed: its pending timestamp lives on in
        # the snapshot and is emitted by the restored m2.
        m2 = vec.new_monitor(lambda n, t, v: collected.append((n, t, v)))
        m2.restore(state)
        for ts, name, value in events[30:]:
            m2.push(name, ts, value)
        m2.finish()
        assert collected == expected

    def test_checkpoint_encoding_of_last_cells(self):
        from repro.compiler.checkpoint import decode_state, encode_state

        vec, _ = compile_pair(SCALAR_CHAIN)
        monitor = vec.new_monitor()
        monitor.feed_batch(chain_events(10))
        state = monitor.snapshot()
        assert isinstance(state["_last_cells"], list)
        fresh = vec.new_monitor()
        fresh.restore(decode_state(encode_state(state)))
        assert fresh.snapshot() == state

    def test_older_snapshot_layout_restores(self):
        # Snapshots written before the scalar half moved here also
        # carried a slot list and delay cells; restoring one ignores
        # them and resumes from the last cells and pending inputs.
        vec, codegen = compile_pair(SCALAR_CHAIN)
        events = chain_events(40)
        expected = run_batches(codegen, [events])
        collected = []
        m1 = vec.new_monitor(lambda n, t, v: collected.append((n, t, v)))
        m1.feed_batch(events[:20])
        slots = [None] * len(vec.flat.streams)
        state = dict(m1.snapshot(), _values=slots, _next_cells=[])
        m2 = vec.new_monitor(lambda n, t, v: collected.append((n, t, v)))
        m2.restore(state)
        m2.feed_batch(events[20:])
        m2.finish()
        assert collected == expected

    def test_crash_resume(self, tmp_path):
        from repro.testing import crash_and_resume

        vec, _ = compile_pair(SCALAR_CHAIN)
        expected, recovered = crash_and_resume(
            vec,
            chain_events(50),
            crash_after=20,
            checkpoint_dir=str(tmp_path),
        )
        assert recovered == expected


class TestMetrics:
    def test_kernel_counters_recorded(self):
        from repro.obs.metrics import MetricsRegistry

        flat = flatten(parse_spec(SCALAR_CHAIN))
        check_types(flat)
        registry = MetricsRegistry()
        registry.enabled = True
        compiled = build_compiled_spec(
            flat, engine="vector", metrics=registry
        )
        monitor = compiled.new_monitor()
        monitor.feed_batch(chain_events(30))
        monitor.finish()
        snap = registry.snapshot()
        counters = snap["counters"]
        assert counters["vector.batches"] >= 1
        assert counters["vector.rows"] >= 29
        assert any(k.startswith("vector.kernel.") for k in counters)

    def test_metrics_do_not_change_outputs(self):
        from repro.obs.metrics import MetricsRegistry

        flat = flatten(parse_spec(SCALAR_CHAIN))
        check_types(flat)
        plain = build_compiled_spec(flat, engine="vector")
        registry = MetricsRegistry()
        registry.enabled = True
        metered = build_compiled_spec(
            flat, engine="vector", metrics=registry
        )
        events = chain_events(50)
        assert run_batches(metered, [events]) == run_batches(
            plain, [events]
        )


SPARSE_BRIDGE = """
in a: Int
in b: Int
def agg := count(a)
def mix := add(a, b)
out agg
out mix
"""

HYBRID_LAST = """
in a: Int
in t: Unit
def dbl := add(a, a)
def agg := count(t)
def prev := last(a, t)
out dbl
out agg
out prev
"""

MIXED_FAMILIES = """
in i: Int
def m  := merge(y, set_empty(unit))
def yl := last(m, i)
def y  := set_add(yl, i)
def s  := set_contains(yl, i)
def dbl := add(i, i)
out s
out dbl
"""


def _value(name, t):
    return () if name in ("r", "t") else (t * 7) % 11 + 1  # delay amounts > 0


def _sparse_inputs(names, n=240):
    """Per-stream traces: the first input fires on every fifth
    timestamp, the others on every timestamp."""
    inputs = {name: [] for name in names}
    for t in range(1, n + 1):
        for position, name in enumerate(names):
            if position == 0 and t % 5 and len(names) > 1:
                continue
            inputs[name].append((t, _value(name, t)))
    return inputs


# Specs with an ineligible stream: under engine="vector" they compile
# with codegen, and must still agree with the reference interpreter.
INELIGIBLE = {
    "hybrid": (HYBRID, ["i"]),
    "sparse_bridge": (SPARSE_BRIDGE, ["a", "b"]),
    "hybrid_last": (HYBRID_LAST, ["a", "t"]),
    "delayed": (DELAYED, ["a", "r"]),
    "mixed_families": (MIXED_FAMILIES, ["i"]),
}
END_TIME = 300


def _reference(text, inputs):
    from repro.testing import reference_outputs

    return reference_outputs(parse_spec(text), inputs, end_time=END_TIME)


def _collecting_monitor(text, outputs):
    from repro import api

    monitor = api.compile(text, api.CompileOptions(engine="vector"))
    assert monitor.engine_resolved == "codegen"
    for name in monitor.outputs:
        outputs[name] = []
    return monitor.compiled.new_monitor(
        lambda n, t, v: outputs[n].append((t, freeze(v)))
    )


@pytest.mark.parametrize("name", sorted(INELIGIBLE))
class TestIneligibleSpecsResolveCodegen:
    """The specs the vector engine used to run as a columnar pass plus
    a plan-op loop now compile with codegen under ``engine="vector"``
    and stay exact under every batch split and ``feed_columns``."""

    def test_resolves_codegen(self, name):
        from repro import api

        text, _ = INELIGIBLE[name]
        monitor = api.compile(text, api.CompileOptions(engine="vector"))
        assert monitor.engine_requested == "vector"
        assert monitor.engine_resolved == "codegen"
        codes = {d.code for d in monitor.diagnostics()}
        assert "VEC001" in codes

    @pytest.mark.parametrize("split", [1, 3, 17, 240])
    def test_feed_batch_matches_reference(self, name, split):
        text, names = INELIGIBLE[name]
        inputs = _sparse_inputs(names)
        events = sorted(
            (ts, stream, value)
            for stream, trace in inputs.items()
            for ts, value in trace
        )
        got = {}
        monitor = _collecting_monitor(text, got)
        for i in range(0, len(events), split):
            monitor.feed_batch(events[i : i + split])
        monitor.finish(end_time=END_TIME)
        assert all(got.values())
        assert got == _reference(text, inputs)

    def test_feed_columns_matches_reference(self, name):
        text, names = INELIGIBLE[name]
        ts = list(range(1, 121))
        columns = {stream: [_value(stream, t) for t in ts] for stream in names}
        got = {}
        monitor = _collecting_monitor(text, got)
        for i in range(0, len(ts), 50):
            monitor.feed_columns(
                ts[i : i + 50],
                {stream: col[i : i + 50] for stream, col in columns.items()},
            )
        monitor.finish(end_time=END_TIME)
        inputs = {
            stream: list(zip(ts, col)) for stream, col in columns.items()
        }
        assert all(got.values())
        assert got == _reference(text, inputs)
