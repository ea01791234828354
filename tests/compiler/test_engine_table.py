"""The engine table: one engine-to-builder map for every monitor class.

``monitor_class_factory`` is the only place that turns a resolved
engine name into a monitor-class builder; ``build_compiled_spec`` and
``instrumented_twin`` both go through it.  Every engine it names must
honour the same monitor contract as ``codegen``: today the numpy
``vector`` engine.
"""

from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import build_compiled_spec
from repro.compiler.codegen import generate_monitor_class
from repro.compiler.kernels import numpy_available
from repro.compiler.pipeline import instrumented_twin, monitor_class_factory
from repro.frontend import parse_spec
from repro.lang import Delay, INT, Specification, TimeExpr, Var
from repro.obs.metrics import MetricsRegistry
from repro.speclib import (
    denorm_scalar_chain,
    fig1_spec,
    queue_window,
    running_aggregate,
    seen_set,
)

from ..integration.specgen import specifications, traces, vector_specifications

# The vector engine rides along wherever numpy is present; without it
# the suite must still pass (engine="vector" then refuses to compile).
ALTERNATES = ["vector"] if numpy_available() else []
ENGINES = ["codegen"] + ALTERNATES


def events_of(outputs):
    return {name: stream.events for name, stream in outputs.items()}


class TestMonitorClassFactory:
    def test_codegen_builder(self):
        assert monitor_class_factory("codegen") is generate_monitor_class

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_vector_builder_carries_classification(self):
        from repro.compiler.vector import make_vector_class

        info = object()
        builder = monitor_class_factory("vector", info)
        assert isinstance(builder, partial)
        assert builder.func is make_vector_class
        assert builder.keywords == {"classification": info}

    @pytest.mark.parametrize("engine", ["jit", "interpreted", "auto", "plan"])
    def test_unknown_engine_rejected(self, engine):
        with pytest.raises(ValueError, match="unknown engine"):
            monitor_class_factory(engine)

    @pytest.mark.parametrize("engine", ["jit", "interpreted", "plan"])
    def test_build_compiled_spec_rejects_unknown_engine(self, engine):
        with pytest.raises(ValueError, match="unknown engine"):
            build_compiled_spec(fig1_spec(), engine=engine)


# A wholly vector-eligible spec: engine="vector" on the Seen Set would
# resolve to codegen.
SCALAR_DIFF = """
in i: Int
def prev := last(i, i)
def d := sub(i, prev)
out d
"""


class TestInstrumentedTwin:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_twin_keeps_engine_and_outputs(self, engine):
        spec = parse_spec(SCALAR_DIFF) if engine == "vector" else seen_set()
        compiled = build_compiled_spec(spec, engine=engine)
        registry = MetricsRegistry()
        twin = instrumented_twin(compiled, registry)
        assert twin.engine == engine
        assert twin.metrics is registry
        assert twin.monitor_class is not compiled.monitor_class
        assert twin.monitor_class.__name__ == compiled.monitor_class.__name__
        assert twin.order == compiled.order
        assert twin.backends == compiled.backends
        trace = {"i": [(t, t % 5) for t in range(1, 40)]}
        assert events_of(twin.run_traces(trace)) == events_of(
            compiled.run_traces(trace)
        )


class TestEngineBasics:
    """The monitor contract every non-codegen engine shares with codegen."""

    @pytest.mark.parametrize("engine", ALTERNATES)
    def test_fig1(self, engine):
        compiled = build_compiled_spec(fig1_spec(), engine=engine)
        out = compiled.run_traces({"i": [(1, 4), (2, 7), (3, 4)]})
        assert out["s"] == [(1, False), (2, False), (3, True)]

    @pytest.mark.parametrize("engine", ALTERNATES)
    def test_delays(self, engine):
        spec = Specification(
            inputs={"r": INT},
            definitions={
                "z": Delay(Var("r"), Var("r")),
                "t": TimeExpr(Var("z")),
            },
            outputs=["t"],
        )
        out = build_compiled_spec(spec, engine=engine).run_traces(
            {"r": [(1, 5)]}
        )
        assert out["t"] == [(6, 6)]

    @pytest.mark.parametrize("engine", ALTERNATES)
    def test_instances_independent(self, engine):
        compiled = build_compiled_spec(seen_set(), engine=engine)
        out1 = compiled.run_traces({"i": [(1, 3), (2, 3)]})
        out2 = compiled.run_traces({"i": [(1, 3)]})
        assert out1["was"] == [(1, False), (2, True)]
        assert out2["was"] == [(1, False)]

    # The specs above all resolve to codegen under engine="vector"; these
    # two put the vector engine's own monitor through the same contract.
    @pytest.mark.parametrize("engine", ALTERNATES)
    def test_scalar_last(self, engine):
        compiled = build_compiled_spec(parse_spec(SCALAR_DIFF), engine=engine)
        assert compiled.engine == engine
        out = compiled.run_traces({"i": [(1, 4), (2, 7), (3, 4)]})
        assert out["d"] == [(2, 3), (3, -3)]

    @pytest.mark.parametrize("engine", ALTERNATES)
    def test_scalar_instances_independent(self, engine):
        compiled = build_compiled_spec(parse_spec(SCALAR_DIFF), engine=engine)
        out1 = compiled.run_traces({"i": [(1, 3), (2, 5)]})
        out2 = compiled.run_traces({"i": [(3, 9), (4, 10)]})
        assert out1["d"] == [(2, 2)]
        assert out2["d"] == [(4, 1)]


class TestEngineAgreement:
    @pytest.mark.parametrize("engine", ALTERNATES)
    @pytest.mark.parametrize(
        "factory,trace",
        [
            (fig1_spec, {"i": [(t, t * 7 % 5) for t in range(1, 40)]}),
            (seen_set, {"i": [(t, t % 4) for t in range(1, 50)]}),
            (lambda: queue_window(3), {"i": [(t, t) for t in range(1, 30)]}),
            (
                lambda: parse_spec(SCALAR_DIFF),
                {"i": [(t, t * 7 % 11) for t in range(1, 40)]},
            ),
            (
                lambda: running_aggregate("sum"),
                {"x": [(t, t * 5 % 9 - 4) for t in range(1, 40)]},
            ),
            (
                denorm_scalar_chain,
                {"x": [(t, t % 6 - 2) for t in range(0, 30, 2)]},
            ),
        ],
        ids=[
            "fig1",
            "seen_set",
            "queue_window",
            "scalar_diff",
            "running_sum",
            "scalar_chain",
        ],
    )
    def test_matches_codegen(self, factory, trace, engine):
        for optimize in (True, False):
            generated = build_compiled_spec(
                factory(), optimize=optimize
            ).run_traces(trace)
            other = build_compiled_spec(
                factory(), optimize=optimize, engine=engine
            ).run_traces(trace)
            assert events_of(generated) == events_of(other)

    @pytest.mark.parametrize("engine", ALTERNATES)
    def test_matches_codegen_on_random_specs(self, engine):
        @settings(
            max_examples=40,
            deadline=None,
            suppress_health_check=[
                HealthCheck.too_slow,
                HealthCheck.data_too_large,
            ],
        )
        @given(data=st.data())
        def check(data):
            spec = data.draw(specifications(allow_delays=True))
            inputs = data.draw(traces(list(spec.inputs)))
            generated = build_compiled_spec(spec).run_traces(
                inputs, end_time=100
            )
            other = build_compiled_spec(spec, engine=engine).run_traces(
                inputs, end_time=100
            )
            assert events_of(generated) == events_of(other)

        check()

    @pytest.mark.parametrize("engine", ALTERNATES)
    def test_matches_codegen_on_random_vector_specs(self, engine):
        @settings(
            max_examples=40,
            deadline=None,
            suppress_health_check=[
                HealthCheck.too_slow,
                HealthCheck.data_too_large,
            ],
        )
        @given(data=st.data())
        def check(data):
            spec = data.draw(vector_specifications())
            inputs = data.draw(traces(list(spec.inputs)))
            generated = build_compiled_spec(spec).run_traces(inputs)
            compiled = build_compiled_spec(spec, engine=engine)
            assert compiled.engine == engine
            assert events_of(compiled.run_traces(inputs)) == events_of(
                generated
            )

        check()
