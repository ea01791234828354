"""Execution-engine comparison: generated code vs the flat dispatch
plan, per-event vs batched.

Both engines use the identical analysis results; the differences are
local-variable straight-line code vs opcode dispatch over slot arrays,
and the per-event ``push`` protocol vs the amortized ``feed_batch`` hot
path.
"""

import pytest

from repro.speclib import seen_set
from repro.workloads import seen_set_trace

from conftest import make_runner

VARIANTS = {
    "codegen": {"engine": "codegen"},
    "plan": {"engine": "plan"},
}


@pytest.mark.parametrize("engine", list(VARIANTS))
@pytest.mark.parametrize("optimize", [True, False], ids=["opt", "nonopt"])
def test_engines(benchmark, engine, optimize):
    inputs = seen_set_trace(3_000, 200)
    run = make_runner(
        seen_set(), inputs, optimize=optimize, **VARIANTS[engine]
    )
    benchmark.group = f"engines seen_set/{'opt' if optimize else 'nonopt'}"
    benchmark(run)


@pytest.mark.parametrize("engine", list(VARIANTS))
@pytest.mark.parametrize(
    "batch_size", [None, 256, 4096], ids=["push", "batch256", "batch4k"]
)
def test_engines_batched(benchmark, engine, batch_size):
    inputs = seen_set_trace(3_000, 200)
    run = make_runner(
        seen_set(), inputs, batch_size=batch_size, **VARIANTS[engine]
    )
    benchmark.group = "engines seen_set/batching"
    benchmark(run)
