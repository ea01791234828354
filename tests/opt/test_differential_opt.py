"""Differential suite: optimized vs unoptimized, byte-identical.

Satellite of the rewrite-optimizer PR: for every paper-figure spec,
every Table 1 scenario and every de-normalized fixture, the monitor
compiled with ``rewrite=True`` must produce *exactly* the events of
the monitor compiled without it — across all three execution engines
and under batched feeding (``feed_batch``).
"""

import random

import pytest

from repro import api
from repro.bench.table1 import scenarios
from repro.compiler import freeze
from repro.lang import flatten
from repro.speclib import (
    DENORMALIZED,
    fig1_spec,
    fig4_lower_spec,
    fig4_upper_spec,
    map_window,
    queue_window,
    seen_set,
)
from repro.testing import compiled_outputs, reference_outputs

from repro.compiler.kernels import numpy_available

# The vector engine rides along wherever numpy is present; without it
# the suite must still pass (engine="vector" then refuses to compile).
ENGINES = ("codegen",) + (
    ("vector",) if numpy_available() else ()
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


FIGURES = {
    "fig1": (fig1_spec, random_trace(["i"], 60, 8, 0)),
    "fig4_upper": (fig4_upper_spec, random_trace(["i1", "i2"], 60, 8, 1)),
    "fig4_lower": (fig4_lower_spec, random_trace(["i1", "i2"], 60, 8, 2)),
    "seen_set": (seen_set, random_trace(["i"], 80, 6, 3)),
    "map_window": (lambda: map_window(4), random_trace(["i"], 60, 50, 4)),
    "queue_window": (lambda: queue_window(4), random_trace(["i"], 60, 50, 5)),
}

DENORM_TRACES = {
    "dup_writer": random_trace(["i"], 60, 8, 6),
    "dead_writer": random_trace(["i", "j"], 60, 8, 7),
    "nil_merge": random_trace(["i"], 60, 8, 8),
    "scalar_chain": random_trace(["x"], 60, 20, 9),
}


def assert_rewrite_identical(spec_factory, inputs):
    reference = reference_outputs(spec_factory(), inputs)
    for engine in ENGINES:
        for rewrite in (False, True):
            result = compiled_outputs(
                spec_factory(), inputs, engine=engine, rewrite=rewrite
            )
            assert result == reference, (
                f"engine={engine} rewrite={rewrite} diverges"
            )


class TestPaperFigures:
    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_engines_agree_with_and_without_rewrite(self, name):
        factory, inputs = FIGURES[name]
        assert_rewrite_identical(factory, inputs)


class TestDenormalizedFixtures:
    @pytest.mark.parametrize("name", sorted(DENORMALIZED))
    def test_engines_agree_with_and_without_rewrite(self, name):
        assert_rewrite_identical(DENORMALIZED[name], DENORM_TRACES[name])


class TestTable1Scenarios:
    """The five evaluation monitors of §V, at a test-sized scale."""

    @pytest.mark.parametrize("name", sorted(scenarios(200)))
    def test_engines_agree_with_and_without_rewrite(self, name):
        spec, inputs = scenarios(200)[name]
        reference = reference_outputs(spec, inputs)
        flat = flatten(spec)
        for engine in ENGINES:
            for rewrite in (False, True):
                result = compiled_outputs(
                    flat, inputs, engine=engine, rewrite=rewrite
                )
                assert result == reference, (
                    f"{name}: engine={engine} rewrite={rewrite} diverges"
                )


class TestBatchedFeeding:
    """rewrite=True must be invisible to ``feed_batch`` as well."""

    @pytest.mark.parametrize("name", sorted(DENORMALIZED))
    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_feed_batch_identical(self, name, batch_size):
        inputs = DENORM_TRACES[name]
        collected = {}
        for rewrite in (False, True):
            monitor = api.compile(
                DENORMALIZED[name](),
                api.CompileOptions(rewrite=rewrite),
            )
            events = []
            api.run(
                monitor,
                inputs,
                api.RunOptions(batch_size=batch_size),
                on_output=lambda n, t, v: events.append((n, t, freeze(v))),
            )
            collected[rewrite] = events
        assert collected[True] == collected[False]

    def test_feed_batch_matches_unbatched(self):
        inputs = DENORM_TRACES["dup_writer"]
        monitor = api.compile(
            DENORMALIZED["dup_writer"](), api.CompileOptions(rewrite=True)
        )
        batched, unbatched = [], []
        api.run(
            monitor,
            inputs,
            api.RunOptions(batch_size=8),
            on_output=lambda n, t, v: batched.append((n, t, freeze(v))),
        )
        api.run(
            monitor,
            inputs,
            api.RunOptions(),
            on_output=lambda n, t, v: unbatched.append((n, t, freeze(v))),
        )
        assert batched == unbatched
