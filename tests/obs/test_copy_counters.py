"""Copy-counter correctness: the paper's central claim, measured.

The mutability analysis exists to avoid aggregate copies (paper §IV);
these tests pin the instrumented numbers to the claim.  On the Fig. 9
Seen Set workload a mutable-classified stream must perform *zero*
structural copies — one in-place update per event — while the same
spec compiled with the analysis disabled copies on every event.  A
differential suite then checks that turning metrics on never changes
a single output event, for every engine and every paper-figure spec
(plus two wholly vector-eligible specs, which the vector engine runs
itself rather than resolving to codegen).
"""

import random

import pytest

from repro import api
from repro.compiler import freeze
from repro.speclib import (
    denorm_scalar_chain,
    fig1_spec,
    fig4_lower_spec,
    fig4_upper_spec,
    running_aggregate,
    seen_set,
)

from repro.compiler.kernels import numpy_available

# The vector engine rides along wherever numpy is present; without it
# the suite must still pass (engine="vector" then refuses to compile).
ENGINES = ["codegen"] + (
    ["vector"] if numpy_available() else []
)


def seen_set_events(length=100, domain=10):
    return [(t, "i", t % domain) for t in range(1, length + 1)]


def collect(monitor, events, options=None):
    out = []
    api.run(
        monitor,
        events,
        options,
        on_output=lambda n, t, v: out.append((n, t, freeze(v))),
    )
    return out


class TestSeenSetClaim:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_mutable_stream_never_copies(self, engine):
        events = seen_set_events()
        monitor = api.compile(seen_set(), api.CompileOptions(engine=engine))
        assert "seen" in monitor.mutable_streams
        report = api.run(monitor, events, api.RunOptions(metrics=True))
        stats = report.metrics["streams"]["seen"]
        assert stats["copies_performed"] == 0
        assert stats["inplace_updates"] == len(events)

    def test_forced_persistent_copies_every_event(self):
        events = seen_set_events()
        monitor = api.compile(seen_set(), api.CompileOptions(optimize=False))
        assert not monitor.mutable_streams
        report = api.run(monitor, events, api.RunOptions(metrics=True))
        stats = report.metrics["streams"]["seen"]
        assert stats["copies_performed"] == len(events)
        assert stats["inplace_updates"] == 0

    def test_guarded_counts_as_in_place(self):
        # Alias-guarded backends mutate shared storage behind fresh
        # generation handles; they must not be misread as copies.
        events = seen_set_events()
        monitor = api.compile(seen_set(), api.CompileOptions(alias_guard=True))
        report = api.run(monitor, events, api.RunOptions(metrics=True))
        stats = report.metrics["streams"]["seen"]
        assert stats["copies_performed"] == 0
        assert stats["inplace_updates"] == len(events)

    def test_metrics_accumulate_across_runs(self):
        monitor = api.compile(seen_set())
        api.run(monitor, seen_set_events(30), api.RunOptions(metrics=True))
        api.run(monitor, seen_set_events(20), api.RunOptions(metrics=True))
        total = monitor.metrics()["streams"]["seen"]
        assert total["inplace_updates"] == 50

    def test_report_metrics_are_per_run_deltas(self):
        monitor = api.compile(seen_set())
        api.run(monitor, seen_set_events(30), api.RunOptions(metrics=True))
        second = api.run(
            monitor, seen_set_events(20), api.RunOptions(metrics=True)
        )
        assert second.metrics["streams"]["seen"]["inplace_updates"] == 20

    def test_metrics_off_leaves_report_bare(self):
        monitor = api.compile(seen_set())
        report = api.run(monitor, seen_set_events(10))
        assert report.metrics is None
        assert monitor.metrics() is None


def random_events(names, length, domain, seed):
    rng = random.Random(seed)
    events, seen, t = [], set(), 1
    for _ in range(length):
        name = rng.choice(names)
        if (t, name) not in seen:
            seen.add((t, name))
            events.append((t, name, rng.randrange(domain)))
        t += rng.randint(0, 2)
    return events


FIGURES = [
    ("fig1", fig1_spec, ["i"]),
    ("fig4_upper", fig4_upper_spec, ["i1", "i2"]),
    ("fig4_lower", fig4_lower_spec, ["i1", "i2"]),
    ("seen_set", seen_set, ["i"]),
    ("scalar_chain", denorm_scalar_chain, ["x"]),
    ("running_max", lambda: running_aggregate("max"), ["x"]),
]


class TestMetricsNeverChangeOutputs:
    """Observation must be free: instrumented and plain runs agree."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "name,factory,inputs", FIGURES, ids=[f[0] for f in FIGURES]
    )
    def test_differential(self, name, factory, inputs, engine):
        events = random_events(inputs, 120, 8, seed=37)
        opts = api.CompileOptions(engine=engine)
        plain = collect(api.compile(factory(), opts), events)
        instrumented = collect(
            api.compile(factory(), opts),
            events,
            api.RunOptions(metrics=True),
        )
        assert instrumented == plain

    def test_differential_same_monitor_interleaved(self):
        # One Monitor object, alternating bare and instrumented runs:
        # the memoized instrumented twin must not leak state into the
        # uninstrumented class.
        events = random_events(["i"], 80, 6, seed=41)
        monitor = api.compile(seen_set())
        baseline = collect(monitor, events)
        assert collect(monitor, events, api.RunOptions(metrics=True)) == baseline
        assert collect(monitor, events) == baseline
