"""Differential: ``run_many`` ≡ one sequential ``run`` per trace.

The pool's contract is *byte identity*: for any spec and any batch of
traces, each trace's outputs (names, timestamps, values, and their
order) match a plain :func:`repro.api.run` of that trace exactly — on
every paper-figure spec and on composed multi-family specifications,
through both the in-process fallback (``jobs=1``) and the forked
worker pool (``jobs=2``).
"""

import random

import pytest

from repro import api
from repro.compiler.monitor import freeze
from repro.lang.compose import compose, rename, substitute_inputs
from repro.speclib import (
    db_access_constraint,
    db_time_constraint,
    map_window,
    peak_detection,
    queue_window,
    seen_set,
    spectrum_calculation,
    watchdog,
)

from .util import random_trace, to_events

SEEDS = (3, 4, 5)

PAPER_FIGURES = {
    "seen_set": (seen_set, lambda seed: random_trace(["i"], 80, 6, seed)),
    "map_window": (
        lambda: map_window(3),
        lambda seed: random_trace(["i"], 60, 100, seed),
    ),
    "queue_window": (
        lambda: queue_window(3),
        lambda seed: random_trace(["i"], 60, 100, seed),
    ),
    "db_time_constraint": (
        db_time_constraint,
        lambda seed: random_trace(["db2", "db3"], 70, 12, seed),
    ),
    "db_access_constraint": (
        db_access_constraint,
        lambda seed: random_trace(["ins", "del_", "acc"], 80, 10, seed),
    ),
    "peak_detection": (
        lambda: peak_detection(window=5),
        lambda seed: {
            "x": [
                (t, round(random.Random(seed).uniform(0, 100), 3))
                for t in range(1, 70)
            ]
        },
    ),
    "spectrum_calculation": (
        spectrum_calculation,
        lambda seed: {
            "x": [
                (t, round(random.Random(seed + 1).uniform(0, 9000), 2))
                for t in range(1, 60)
            ]
        },
    ),
}


def family(prefix, factory, input_map=None):
    """A namespaced copy of a speclib property, optionally rewired."""
    spec = rename(factory(), prefix)
    if input_map:
        spec = substitute_inputs(spec, input_map)
    return spec


def collect(monitor, events, options=None):
    """One sequential run; outputs as [(name, ts, frozen)]."""
    out = []
    api.run(
        monitor,
        events,
        options or api.RunOptions(),
        on_output=lambda name, ts, value: out.append(
            (name, ts, freeze(value))
        ),
    )
    return out


def pooled(monitor, traces, options):
    """``run_many`` outputs per trace, frozen like :func:`collect`."""
    result = api.run_many(monitor, traces, options)
    assert result.failures == 0
    return [
        [(name, ts, freeze(value)) for name, ts, value in outputs]
        for outputs in result.outputs()
    ]


def assert_pool_matches_sequential(monitor, traces, **options):
    base = [
        collect(monitor, events, api.RunOptions(**options))
        for events in traces
    ]
    for jobs in (1, 2):
        got = pooled(monitor, traces, api.RunOptions(jobs=jobs, **options))
        assert got == base, f"jobs={jobs}"
    return base


@pytest.mark.parametrize("name", sorted(PAPER_FIGURES))
@pytest.mark.parametrize("jobs", [1, 2])
def test_paper_figures_byte_identical(name, jobs):
    factory, tracegen = PAPER_FIGURES[name]
    traces = [to_events(tracegen(seed=seed)) for seed in SEEDS]
    monitor = api.compile(factory())
    base = [collect(monitor, events) for events in traces]
    assert pooled(monitor, traces, api.RunOptions(jobs=jobs)) == base


def three_families():
    return compose(
        family("s_", seen_set, {"i": "i1"}),
        family("q_", lambda: queue_window(3), {"i": "i2"}),
        family("m_", lambda: map_window(4), {"i": "i3"}),
    )


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("batch_size", [1, 7, 4096])
def test_composed_families_byte_identical(jobs, batch_size):
    traces = [
        to_events(random_trace(["i1", "i2", "i3"], 150, 9, seed=seed))
        for seed in SEEDS
    ]
    monitor = api.compile(three_families())
    options = api.RunOptions(batch_size=batch_size)
    base = [collect(monitor, events, options) for events in traces]
    assert all(base)  # the workload must actually produce output
    got = pooled(
        monitor, traces, api.RunOptions(jobs=jobs, batch_size=batch_size)
    )
    assert got == base


@pytest.mark.parametrize("jobs", [1, 2])
def test_composed_with_delays_byte_identical(jobs):
    # The watchdog family fires delay timestamps between input events
    # and after the last one, up to end_time.
    spec = compose(
        family("w_", lambda: watchdog(timeout=4)),  # input: hb
        family("s_", seen_set, {"i": "hb"}),
    )
    traces = [
        to_events(random_trace(["hb"], 60, 5, seed=seed)) for seed in SEEDS
    ]
    monitor = api.compile(spec)
    options = api.RunOptions(end_time=300)
    base = [collect(monitor, events, options) for events in traces]
    got = pooled(monitor, traces, api.RunOptions(jobs=jobs, end_time=300))
    assert got == base


def test_shared_input_families_byte_identical():
    spec = compose(family("a_", seen_set), family("b_", seen_set))
    traces = [
        to_events(random_trace(["i"], 100, 6, seed=seed)) for seed in SEEDS
    ]
    assert_pool_matches_sequential(api.compile(spec), traces)


@pytest.mark.parametrize("jobs", [1, 2])
def test_empty_traces_byte_identical(jobs):
    spec = compose(
        family("a_", seen_set, {"i": "ia"}),
        family("b_", seen_set, {"i": "ib"}),
    )
    monitor = api.compile(spec)
    traces = [[], to_events(random_trace(["ia", "ib"], 30, 5, seed=0)), []]
    base = [collect(monitor, events) for events in traces]
    assert base[0] == base[2] == []
    assert pooled(monitor, traces, api.RunOptions(jobs=jobs)) == base


def test_validation_counters_survive_the_pool():
    spec = compose(
        family("a_", seen_set, {"i": "ia"}),
        family("b_", seen_set, {"i": "ib"}),
    )
    monitor = api.compile(spec)
    traces = [
        to_events(random_trace(["ia", "ib"], 40, 5, seed=seed))
        for seed in SEEDS
    ]
    base = assert_pool_matches_sequential(
        monitor, traces, validate_inputs=True
    )
    result = api.run_many(
        monitor, traces, api.RunOptions(jobs=2, validate_inputs=True)
    )
    assert result.report.events_in == sum(len(t) for t in traces)
    assert result.report.events_out == sum(len(out) for out in base)
