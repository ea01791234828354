"""Differential matrix for the vector engine.

For every paper-figure spec, every Table 1 evaluation monitor and every
de-normalized fixture, the vector engine must reproduce the reference
interpreter's outputs event-for-event — under per-event feeding, the
``feed_batch`` hot path at several batch sizes, and (for dense scalar
workloads) ``feed_columns`` — with the rewrite optimizer both off and
on.  Ineligible specs compile with codegen under ``engine="vector"``
and must still match byte-for-byte; the wholly eligible workloads
(``ELIGIBLE``) are pinned to run the vector engine itself, its scalar
half under per-event feeding and its columnar pass under ``feed_batch``.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.bench.table1 import scenarios
from repro.compiler import freeze, kernels
from repro.compiler.monitor import UNIT_VALUE
from repro.speclib import (
    DENORMALIZED,
    fig1_spec,
    fig4_lower_spec,
    fig4_upper_spec,
    map_window,
    queue_window,
    running_aggregate,
    seen_set,
)
from repro.frontend import parse_spec
from repro.testing import reference_outputs

from .specgen import dense_columns, vector_specifications

pytestmark = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy not installed"
)


def random_trace(names, length, domain, seed, start=1):
    rng = random.Random(seed)
    traces = {name: [] for name in names}
    t = start
    for _ in range(length):
        name = rng.choice(names)
        traces[name].append((t, rng.randrange(domain)))
        t += rng.randint(1, 3)
    return traces


SCALAR_DIFF = """
in a: Int
in b: Int
def prev := last(a, a)
def d := sub(a, prev)
def s := add(d, b)
def neg := lt(s, 0)
out d
out s
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


WORKLOADS = {
    "fig1": (fig1_spec, random_trace(["i"], 60, 8, 0)),
    "fig4_upper": (fig4_upper_spec, random_trace(["i1", "i2"], 60, 8, 1)),
    "fig4_lower": (fig4_lower_spec, random_trace(["i1", "i2"], 60, 8, 2)),
    "seen_set": (seen_set, random_trace(["i"], 80, 6, 3)),
    "map_window": (lambda: map_window(4), random_trace(["i"], 60, 50, 4)),
    "queue_window": (
        lambda: queue_window(4),
        random_trace(["i"], 60, 50, 5),
    ),
    "denorm_dup_writer": (
        DENORMALIZED["dup_writer"],
        random_trace(["i"], 60, 8, 6),
    ),
    "denorm_dead_writer": (
        DENORMALIZED["dead_writer"],
        random_trace(["i", "j"], 60, 8, 7),
    ),
    "denorm_nil_merge": (
        DENORMALIZED["nil_merge"],
        random_trace(["i"], 60, 8, 8),
    ),
    "denorm_scalar_chain": (
        DENORMALIZED["scalar_chain"],
        random_trace(["x"], 60, 20, 9),
    ),
    "running_sum": (
        lambda: running_aggregate("sum"),
        random_trace(["x"], 60, 20, 10),
    ),
    "running_min": (
        lambda: running_aggregate("min"),
        random_trace(["x"], 60, 20, 11),
    ),
    "scalar_diff": (
        lambda: parse_spec(SCALAR_DIFF),
        random_trace(["a", "b"], 80, 20, 12),
    ),
    "time_and_last": (
        lambda: parse_spec(TIME_AND_LAST),
        random_trace(["x", "y"], 80, 20, 13),
    ),
}

# The workloads above that are wholly vector-eligible without the
# rewrite optimizer; every other one resolves to codegen under
# engine="vector".
ELIGIBLE = [
    "denorm_scalar_chain",
    "running_min",
    "running_sum",
    "scalar_diff",
    "time_and_last",
]


def as_events(inputs):
    events = [
        (ts, name, value)
        for name, trace in inputs.items()
        for ts, value in trace
    ]
    events.sort(key=lambda e: e[0])
    return events


def vector_outputs(spec, inputs, *, rewrite=False, batch_size=None):
    monitor = api.compile(
        spec, api.CompileOptions(engine="vector", rewrite=rewrite)
    )
    collected = {}
    api.run(
        monitor,
        as_events(inputs),
        api.RunOptions(batch_size=batch_size),
        on_output=lambda n, t, v: collected.setdefault(n, []).append(
            (t, freeze(v))
        ),
    )
    for name in monitor.outputs:
        collected.setdefault(name, [])
    return collected


@pytest.mark.parametrize("rewrite", [False, True], ids=["plain", "rewrite"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
class TestWorkloads:
    def test_per_event(self, name, rewrite):
        factory, inputs = WORKLOADS[name]
        reference = reference_outputs(factory(), inputs)
        assert vector_outputs(factory(), inputs, rewrite=rewrite) == reference

    @pytest.mark.parametrize("batch_size", [1, 16, 4096])
    def test_feed_batch(self, name, rewrite, batch_size):
        factory, inputs = WORKLOADS[name]
        reference = reference_outputs(factory(), inputs)
        got = vector_outputs(
            factory(), inputs, rewrite=rewrite, batch_size=batch_size
        )
        assert got == reference


@pytest.mark.parametrize("name", ELIGIBLE)
def test_eligible_workload_runs_the_vector_engine(name):
    factory, _inputs = WORKLOADS[name]
    monitor = api.compile(factory(), api.CompileOptions(engine="vector"))
    assert monitor.engine_resolved == "vector"


@pytest.mark.parametrize("engine", ["vector", "auto"])
def test_rewrite_fused_scalar_chain_stays_on_vector(engine):
    """OPT003 fuses ``mul`` into ``add``; the fused lift composes the two
    kernels, so the wholly eligible spec keeps the vector engine."""
    factory, inputs = WORKLOADS["denorm_scalar_chain"]
    monitor = api.compile(
        factory(), api.CompileOptions(engine=engine, rewrite=True)
    )
    assert monitor.engine_resolved == "vector"
    assert any(
        "fused[" in str(expr)
        for expr in monitor.compiled.flat.definitions.values()
    )
    assert not [d for d in monitor.diagnostics() if d.code == "VEC001"]
    reference = reference_outputs(factory(), inputs)
    for batch_size in (None, 1, 16, 4096):
        got = vector_outputs(
            factory(), inputs, rewrite=True, batch_size=batch_size
        )
        assert got == reference, batch_size
    ts = list(range(1, 61))
    values = [(t * 7) % 20 for t in ts]
    collected = {}
    monitor.feed_columns(
        ts,
        {"x": values},
        on_output=lambda n, t, v: collected.setdefault(n, []).append(
            (t, freeze(v))
        ),
    )
    for name in monitor.outputs:
        collected.setdefault(name, [])
    assert collected == reference_outputs(
        factory(), {"x": list(zip(ts, values))}
    )


@pytest.mark.parametrize("rewrite", [False, True], ids=["plain", "rewrite"])
@pytest.mark.parametrize("name", sorted(scenarios(200)))
class TestTable1:
    def test_feed_batch(self, name, rewrite):
        spec, inputs = scenarios(200)[name]
        reference = reference_outputs(spec, inputs)
        got = vector_outputs(spec, inputs, rewrite=rewrite, batch_size=64)
        assert got == reference


DENSE_SCALAR = """
in a: Int
in b: Int
def prev := last(a, a)
def diff := sub(a, prev)
def s := add(diff, b)
def hot := gt(s, 0)
out s
out hot
"""


class TestFeedColumnsMatrix:
    """Dense columnar ingestion vs the row paths, all engines."""

    def dense_columns(self, n=300, seed=11):
        rng = random.Random(seed)
        ts = list(range(1, n + 1))
        return ts, {
            "a": [rng.randrange(-20, 20) for _ in ts],
            "b": [rng.randrange(-20, 20) for _ in ts],
        }

    @pytest.mark.parametrize("rewrite", [False, True])
    def test_columns_match_rows_across_engines(self, rewrite):
        ts, cols = self.dense_columns()
        results = {}
        for engine in ("codegen", "vector"):
            monitor = api.compile(
                DENSE_SCALAR,
                api.CompileOptions(engine=engine, rewrite=rewrite),
            )
            collected = []
            monitor.feed_columns(
                ts,
                cols,
                on_output=lambda n, t, v: collected.append((n, t, v)),
            )
            results[engine] = collected
        assert results["vector"] == results["codegen"]

    def test_columns_match_reference(self):
        ts, cols = self.dense_columns()
        inputs = {
            name: list(zip(ts, values)) for name, values in cols.items()
        }
        monitor = api.compile(
            DENSE_SCALAR, api.CompileOptions(engine="vector")
        )
        collected = {}
        monitor.feed_columns(
            ts,
            cols,
            on_output=lambda n, t, v: collected.setdefault(n, []).append(
                (t, freeze(v))
            ),
        )
        for name in monitor.outputs:
            collected.setdefault(name, [])
        from repro.lang import check_types, flatten
        from repro.frontend import parse_spec

        flat = flatten(parse_spec(DENSE_SCALAR))
        check_types(flat)
        assert collected == reference_outputs(flat, inputs)


class TestFallbackIdentity:
    """Ineligible specs under engine='vector' compile with codegen and
    stay byte-identical, with the fallback visible as VEC001."""

    def test_seen_set_fallback_diagnostic_and_identity(self):
        inputs = random_trace(["i"], 80, 6, 3)
        reference = reference_outputs(seen_set(), inputs)
        monitor = api.compile(
            seen_set(), api.CompileOptions(engine="vector")
        )
        assert monitor.engine_resolved == "codegen"
        codes = [d.code for d in monitor.diagnostics()]
        assert "VEC001" in codes
        got = vector_outputs(seen_set(), inputs, batch_size=16)
        assert got == reference


def _plain(value):
    """A plain Python scalar or the unit value, never a numpy scalar."""
    return type(value) in (int, float, bool) or (
        type(value) is tuple and value == UNIT_VALUE
    )


class TestRandomVectorSpecs:
    """Random wholly eligible specs: ``auto`` picks the vector engine,
    and its columnar and batched paths equal the reference interpreter
    with plain Python values."""

    @staticmethod
    def collect(monitor, feed):
        collected = {name: [] for name in monitor.outputs}
        instance = monitor.new_instance(
            lambda n, t, v: collected[n].append((t, v))
        )
        feed(instance)
        instance.finish()
        for trace in collected.values():
            assert all(_plain(value) for _, value in trace), trace
        return {
            name: [(t, freeze(v)) for t, v in trace]
            for name, trace in collected.items()
        }

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data(), spec=vector_specifications())
    def test_columns_and_batches_match_reference(self, data, spec):
        np = kernels.numpy_module()
        monitor = api.compile(spec)
        assert monitor.engine_resolved == "vector"
        ts, values, chunks = data.draw(dense_columns(sorted(spec.inputs)))
        inputs = {name: [] for name in spec.inputs}
        for lo, hi, names in chunks:
            for name in names:
                inputs[name].extend(
                    zip(ts[lo:hi], values[name][lo:hi])
                )
        reference = reference_outputs(spec, inputs)
        ts_arr = np.asarray(ts, dtype=np.int64)
        as_lists = data.draw(st.booleans())

        def feed_columns(instance):
            for lo, hi, names in chunks:
                if as_lists:
                    columns = {n: values[n][lo:hi] for n in names}
                    instance.feed_columns(ts[lo:hi], columns)
                else:
                    columns = {
                        n: np.asarray(values[n][lo:hi], dtype=np.int64)
                        for n in names
                    }
                    instance.feed_columns(ts_arr[lo:hi], columns)

        assert self.collect(monitor, feed_columns) == reference

        events = as_events(inputs)
        cuts = sorted(
            set(data.draw(st.lists(st.integers(0, len(events)), max_size=4)))
        )

        def feed_batch(instance):
            for lo, hi in zip([0] + cuts, cuts + [len(events)]):
                instance.feed_batch(events[lo:hi])

        assert self.collect(monitor, feed_batch) == reference
