"""Vector-engine prefix scans for running-aggregate feedback triples.

``running_aggregate`` lowers to ``h = last(s, x); k = op(h, x);
s = merge(k, x)`` — an in-batch feedback cycle the columnar classifier
normally rejects.  These tests pin the scan recognizer that salvages
it: the triple executes as one seeded ``ufunc.accumulate``, matching
the scalar engines bit-for-bit across batch boundaries, and the dtype
gate keeps the one divergent case (float ``max``/``min``) on the codegen
engine.
"""

import random

import pytest

from repro import api
from repro.compiler.kernels import numpy_available, scan_ufunc_for
from repro.compiler.vector import classify_vector
from repro.lang import FLOAT, INT, Last, Lift, Merge, Specification, Var
from repro.lang.builtins import builtin
from repro.speclib import running_aggregate

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="vector engine requires numpy"
)


def scan_spec(value_type, op, extra_output=False):
    """The self-seeded accumulator triple, optionally with a second
    independent input so the scan's column has masked-off lanes."""
    x = Var("x")
    inputs = {"x": value_type}
    definitions = {
        "h": Last(Var("win"), x),
        "k": Lift(builtin(op), (Var("h"), x)),
        "win": Merge(Var("k"), x),
    }
    outputs = ["win"]
    if extra_output:
        inputs["y"] = INT
        definitions["ysq"] = Lift(builtin("mul"), (Var("y"), Var("y")))
        outputs.append("ysq")
    return Specification(
        inputs=inputs, definitions=definitions, outputs=outputs
    )


def run(spec, engine, events, mode="push", chunk=23):
    m = api.compile(spec, api.CompileOptions(engine=engine))
    out = []
    mon = m.new_instance(on_output=lambda n, t, v: out.append((n, t, v)))
    if mode == "push":
        for ts, name, value in events:
            mon.push(name, ts, value)
    elif mode == "batch":
        for i in range(0, len(events), chunk):
            mon.feed_batch(events[i : i + chunk])
    else:  # columns — single-input traces only
        ts = [e[0] for e in events]
        col = [e[2] for e in events]
        for i in range(0, len(ts), chunk):
            mon.feed_columns(ts[i : i + chunk], {"x": col[i : i + chunk]})
    mon.finish()
    return out


def int_events(length=200, seed=5):
    rng = random.Random(seed)
    return [(t, "x", rng.randint(-50, 50)) for t in range(1, length + 1)]


class TestClassification:
    @pytest.mark.parametrize("aggregate", ["sum", "max", "min"])
    def test_triple_recognized_and_family_eligible(self, aggregate):
        m = api.compile(
            running_aggregate(aggregate), api.CompileOptions(engine="auto")
        )
        cls = classify_vector(m.compiled.flat)
        assert len(cls.scans) == 1
        h, k, s, x, _op, _ufunc, dtype = cls.scans[0]
        assert (h, k, s, x) == ("h", "k", "win", "x")
        assert dtype == "int64"
        assert m.engine_resolved == "vector"

    def test_float_add_mul_scan(self):
        for op in ("fadd", "fmul"):
            cls = classify_vector(
                api.compile(scan_spec(FLOAT, op)).compiled.flat
            )
            assert cls.scans and cls.scans[0][6] == "float64"

    def test_float_minmax_stays_scalar(self):
        # np.maximum.accumulate and the scalar np.where kernel disagree
        # on NaN, so float max/min never scans — the family keeps its
        # feedback cycle and auto resolves to the codegen engine.
        m = api.compile(scan_spec(FLOAT, "max"), api.CompileOptions())
        cls = classify_vector(m.compiled.flat)
        assert cls.scans == ()
        assert m.engine_resolved == "codegen"
        assert scan_ufunc_for("max", "float64") is None
        assert scan_ufunc_for("max", "int64") == "maximum"

    def test_shadowing_merge_order_not_recognized(self):
        # merge(x, k) prefers the raw input — not an accumulator.
        x = Var("x")
        spec = Specification(
            inputs={"x": INT},
            definitions={
                "h": Last(Var("win"), x),
                "k": Lift(builtin("add"), (Var("h"), x)),
                "win": Merge(x, Var("k")),
            },
            outputs=["win"],
        )
        assert classify_vector(api.compile(spec).compiled.flat).scans == ()


class TestDifferential:
    @pytest.mark.parametrize("aggregate", ["sum", "max", "min"])
    @pytest.mark.parametrize("mode", ["push", "batch", "columns"])
    def test_matches_codegen_across_batches(self, aggregate, mode):
        spec = running_aggregate(aggregate)
        events = int_events()
        expected = run(spec, "codegen", events)
        assert len(expected) == len(events)
        assert run(spec, "vector", events, mode) == expected

    def test_commuted_lift_args(self):
        # op(x, h) instead of op(h, x): still a scan (table ops are
        # commutative), still exact.
        x = Var("x")
        spec = Specification(
            inputs={"x": INT},
            definitions={
                "h": Last(Var("win"), x),
                "k": Lift(builtin("add"), (x, Var("h"))),
                "win": Merge(Var("k"), x),
            },
            outputs=["win"],
        )
        assert classify_vector(api.compile(spec).compiled.flat).scans
        events = int_events(length=120)
        assert run(spec, "vector", events, "batch") == run(
            spec, "codegen", events
        )

    def test_float_accumulate_is_order_exact(self):
        spec = scan_spec(FLOAT, "fadd")
        rng = random.Random(9)
        events = [
            (t, "x", rng.uniform(-1e6, 1e6)) for t in range(1, 301)
        ]
        # Exact equality on purpose: accumulate folds left-to-right in
        # the same order as the scalar loop, so no tolerance is needed.
        assert run(spec, "vector", events, "batch") == run(
            spec, "codegen", events
        )

    def test_sparse_mask_and_empty_chunks(self):
        # A second input creates slice rows with no x event, including
        # whole chunks where the scan's index set is empty.
        spec = scan_spec(INT, "add", extra_output=True)
        rng = random.Random(13)
        events = []
        for t in range(1, 241):
            if t % 80 < 25:  # long x-free stretches
                events.append((t, "y", rng.randint(-9, 9)))
            elif rng.random() < 0.5:
                events.append((t, "x", rng.randint(-9, 9)))
            else:
                events.append((t, "x", rng.randint(-9, 9)))
                events.append((t, "y", rng.randint(-9, 9)))
        expected = run(spec, "codegen", events)
        assert run(spec, "vector", events, "batch") == expected

    def test_scan_metric_counter(self):
        spec = running_aggregate("sum")
        m = api.compile(spec, api.CompileOptions(engine="vector"))
        events = int_events(length=150)
        report = api.run(
            m, events, api.RunOptions(metrics=True, batch_size=50)
        )
        assert report.metrics["counters"]["vector.kernel.scan_add"] > 0
