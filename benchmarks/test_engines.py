"""Execution-engine comparison on the generated (``codegen``) monitor:
optimized vs persistent, and the per-event ``push`` protocol vs the
amortized ``feed_batch`` hot path.

The Seen Set is set-typed, so every engine request runs it on codegen;
the columnar engine has its own gated bench (``bench_vector.py``).
"""

import pytest

from repro.speclib import seen_set
from repro.workloads import seen_set_trace

from conftest import make_runner


@pytest.mark.parametrize("optimize", [True, False], ids=["opt", "nonopt"])
def test_engines(benchmark, optimize):
    inputs = seen_set_trace(3_000, 200)
    run = make_runner(seen_set(), inputs, optimize=optimize, engine="codegen")
    benchmark.group = f"engines seen_set/{'opt' if optimize else 'nonopt'}"
    benchmark(run)


@pytest.mark.parametrize(
    "batch_size", [None, 256, 4096], ids=["push", "batch256", "batch4k"]
)
def test_engines_batched(benchmark, batch_size):
    inputs = seen_set_trace(3_000, 200)
    run = make_runner(
        seen_set(), inputs, batch_size=batch_size, engine="codegen"
    )
    benchmark.group = "engines seen_set/batching"
    benchmark(run)
