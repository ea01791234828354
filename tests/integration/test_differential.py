"""Differential testing: interpreter ≡ compiled monitors, all backends.

This is the library's central correctness argument: for any
specification and any input trace, the optimized monitor (mutable
structures, analysis-chosen order), the non-optimized monitor
(persistent structures), the naive-copy monitor, and the reference
interpreter must produce identical output traces.
"""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings

from repro.compiler import build_compiled_spec, freeze
from repro.compiler.runtime import MonitorRunner
from repro.lang import check_types, flatten
from repro.obs.metrics import MetricsRegistry
from repro.semantics import Stream, interpret
from repro.speclib import (
    db_access_constraint,
    db_time_constraint,
    fig1_spec,
    fig4_lower_spec,
    fig4_upper_spec,
    map_window,
    peak_detection,
    queue_window,
    seen_set,
    spectrum_calculation,
)
from repro.structures import Backend

from .specgen import specifications, traces


def reference_outputs(spec, inputs, end_time=None):
    flat = flatten(spec)
    streams = {name: Stream(events) for name, events in inputs.items()}
    results = interpret(flat, streams, end_time=end_time)
    return {
        out: [(t, freeze(v)) for t, v in results[out]] for out in flat.outputs
    }


def compiled_outputs(spec, inputs, end_time=None, **kwargs):
    compiled = build_compiled_spec(spec, **kwargs)
    results = compiled.run_traces(inputs, end_time=end_time)
    return {name: stream.events for name, stream in results.items()}


def sorted_events(inputs):
    return sorted(
        ((ts, name, value) for name, trace in inputs.items()
         for ts, value in trace),
        key=lambda event: event[0],
    )


def runner_outputs(compiled, events, mode):
    """Frozen outputs of a :class:`MonitorRunner` fed by ``push`` or
    ``feed_batch``; its ``events_out`` must count every callback."""
    collected = {name: [] for name in compiled.monitor_class.OUTPUTS}
    runner = MonitorRunner(
        compiled, lambda n, t, v: collected[n].append((t, freeze(v)))
    )
    if mode == "push":
        for ts, name, value in events:
            runner.push(name, ts, value)
    else:
        runner.feed_batch(events)
    report = runner.finish()
    assert report.events_out == sum(map(len, collected.values()))
    return collected


#: The default compile (templates inlined over bare collections), its
#: metrics twin and its alias-guarded twin (both keep the lift calls).
DEFAULT_COMPILES = (
    ("default", lambda: {}),
    ("metrics", lambda: {"metrics": MetricsRegistry()}),
    ("alias_guard", lambda: {"alias_guard": True}),
)


def assert_all_agree(spec_factory, inputs, end_time=None):
    reference = reference_outputs(spec_factory(), inputs, end_time)
    for kwargs in (
        {"optimize": True},
        {"optimize": False},
        {"backend_override": Backend.COPYING},
    ):
        result = compiled_outputs(spec_factory(), inputs, end_time, **kwargs)
        assert result == reference, f"mismatch for {kwargs}"


def random_trace(names, length, domain, seed, start=1):
    rng = random.Random(seed)
    traces_ = {name: [] for name in names}
    t = start
    for _ in range(length):
        name = rng.choice(names)
        traces_[name].append((t, rng.randrange(domain)))
        t += rng.randint(1, 3)
    return traces_


class TestLibrarySpecs:
    @pytest.mark.parametrize("seed", range(4))
    def test_fig1(self, seed):
        assert_all_agree(fig1_spec, random_trace(["i"], 60, 8, seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_fig4_upper(self, seed):
        assert_all_agree(
            fig4_upper_spec, random_trace(["i1", "i2"], 60, 8, seed)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_fig4_lower(self, seed):
        assert_all_agree(
            fig4_lower_spec, random_trace(["i1", "i2"], 60, 8, seed)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_seen_set(self, seed):
        assert_all_agree(seen_set, random_trace(["i"], 80, 6, seed))

    @pytest.mark.parametrize("size", [1, 3, 7])
    def test_map_window(self, size):
        assert_all_agree(
            lambda: map_window(size), random_trace(["i"], 50, 100, size)
        )

    @pytest.mark.parametrize("size", [1, 3, 7])
    def test_queue_window(self, size):
        assert_all_agree(
            lambda: queue_window(size), random_trace(["i"], 50, 100, size)
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_db_time_constraint(self, seed):
        assert_all_agree(
            db_time_constraint, random_trace(["db2", "db3"], 70, 12, seed)
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_db_access_constraint(self, seed):
        assert_all_agree(
            db_access_constraint,
            random_trace(["ins", "del_", "acc"], 80, 10, seed),
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_peak_detection(self, seed):
        rng = random.Random(seed)
        trace = {
            "x": [(t, round(rng.uniform(0, 100), 3)) for t in range(1, 70)]
        }
        assert_all_agree(lambda: peak_detection(window=5), trace)

    @pytest.mark.parametrize("seed", range(3))
    def test_spectrum_calculation(self, seed):
        rng = random.Random(seed)
        trace = {
            "x": [(t, round(rng.uniform(0, 9000), 2)) for t in range(1, 60)]
        }
        assert_all_agree(spectrum_calculation, trace)

    def test_events_at_timestamp_zero(self):
        assert_all_agree(seen_set, {"i": [(0, 1), (1, 1), (2, 2)]})

    def test_empty_trace(self):
        assert_all_agree(seen_set, {"i": []})

    def test_simultaneous_events_on_all_inputs(self):
        trace = {
            "ins": [(1, 5), (3, 6)],
            "del_": [(3, 5)],
            "acc": [(1, 5), (3, 5), (4, 5)],
        }
        assert_all_agree(db_access_constraint, trace)


class TestRandomSpecs:
    """Hypothesis-generated specifications and traces."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(data=__import__("hypothesis").strategies.data())
    def test_all_backends_agree(self, data):
        spec = data.draw(specifications())
        inputs = data.draw(traces(list(spec.inputs)))
        reference = reference_outputs(spec, inputs)
        optimized = compiled_outputs(spec, inputs, optimize=True)
        persistent = compiled_outputs(spec, inputs, optimize=False)
        copying = compiled_outputs(
            spec, inputs, backend_override=Backend.COPYING
        )
        assert optimized == reference
        assert persistent == reference
        assert copying == reference
        events = sorted_events(inputs)
        for label, options in DEFAULT_COMPILES:
            compiled = build_compiled_spec(spec, **options())
            for mode in ("push", "feed_batch"):
                got = runner_outputs(compiled, events, mode)
                assert got == reference, (label, mode)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(data=__import__("hypothesis").strategies.data())
    def test_mutability_respects_def7_on_random_specs(self, data):
        from repro.analysis import analyze_mutability
        from repro.graph import EdgeClass, is_valid_translation_order

        spec = data.draw(specifications())
        result = analyze_mutability(flatten(spec))
        graph = result.graph
        assert is_valid_translation_order(graph, result.order)
        position = {n: i for i, n in enumerate(result.order)}
        for edge in graph.edges_of_class(
            EdgeClass.PASS, EdgeClass.WRITE, EdgeClass.LAST
        ):
            assert (edge.src in result.mutable) == (edge.dst in result.mutable)
        for constraint in result.active_constraints:
            assert position[constraint.reader] < position[constraint.writer]

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.data_too_large,
            HealthCheck.filter_too_much,
        ],
    )
    @given(data=__import__("hypothesis").strategies.data())
    def test_write_read_fusion_on_random_specs(self, data):
        """With OPT008 firing, the default compile never demotes a
        stream the unfused analysis certified (the OPT007 invariant),
        and agrees with the interpreter through ``push``,
        ``feed_batch`` and the alias guard."""
        from repro.analysis import analyze_mutability

        spec = data.draw(specifications())
        compiled = build_compiled_spec(spec)
        assume(compiled.fusions)
        flat = flatten(spec)
        check_types(flat)
        removed = {record.detail["write"] for record in compiled.fusions}
        unfused = analyze_mutability(flat).mutable
        assert unfused - removed <= compiled.mutable_streams

        inputs = data.draw(traces(list(spec.inputs)))
        reference = reference_outputs(spec, inputs)
        events = sorted_events(inputs)
        for label, options in DEFAULT_COMPILES:
            variant = (
                compiled
                if label == "default"
                else build_compiled_spec(spec, **options())
            )
            for mode in ("push", "feed_batch"):
                got = runner_outputs(variant, events, mode)
                assert got == reference, (label, mode)


class TestExtensionSpecs:
    @pytest.mark.parametrize("size", [1, 3, 5])
    def test_vector_window(self, size):
        from repro.speclib import vector_window

        assert_all_agree(
            lambda: vector_window(size), random_trace(["i"], 60, 100, size)
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_watchdog(self, seed):
        from repro.speclib import watchdog

        assert_all_agree(
            lambda: watchdog(5), random_trace(["hb"], 40, 3, seed)
        )
