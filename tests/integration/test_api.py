"""The ``repro.api`` facade: parity with the engine-room entry points.

Every paper-figure spec driven through the engine room
(``build_compiled_spec`` + ``CompiledSpec.run_traces`` /
``MonitorRunner``) and through ``api.compile`` + ``api.run`` must yield
identical outputs and consistent RunReport counters, for every option
combination the facade can express.
"""

import random
import warnings

import pytest

from repro import api
from repro.compiler import build_compiled_spec, freeze
from repro.compiler.kernels import numpy_available
from repro.compiler.runtime import MonitorRunner
from repro.errors import ErrorPolicy
from repro.speclib import (
    db_access_constraint,
    fig1_spec,
    fig4_lower_spec,
    fig4_upper_spec,
    map_window,
    queue_window,
    seen_set,
    watchdog,
)
from repro.structures import Backend


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


def as_traces(events):
    traces = {}
    for ts, name, value in events:
        traces.setdefault(name, []).append((ts, value))
    return traces


def api_outputs(monitor, events, options=None):
    collected = []
    report = api.run(
        monitor,
        events,
        options,
        on_output=lambda n, t, v: collected.append((n, t, freeze(v))),
    )
    return collected, report


FIGURES = [
    ("fig1", fig1_spec, ["i"]),
    ("fig4_upper", fig4_upper_spec, ["i1", "i2"]),
    ("fig4_lower", fig4_lower_spec, ["i1", "i2"]),
    ("seen_set", seen_set, ["i"]),
    ("map_window", lambda: map_window(3), ["i"]),
    ("queue_window", lambda: queue_window(3), ["i"]),
    ("db_access", db_access_constraint, ["ins", "del_", "acc"]),
]


class TestLegacyParity:
    @pytest.mark.parametrize(
        "name,factory,inputs", FIGURES, ids=[f[0] for f in FIGURES]
    )
    def test_outputs_identical_to_legacy(self, name, factory, inputs):
        events = random_events(inputs, 100, 8, seed=11)

        legacy = build_compiled_spec(factory())
        legacy_streams = legacy.run_traces(as_traces(events))
        legacy_out = {n: s.events for n, s in legacy_streams.items() if s.events}

        monitor = api.compile(factory())
        collected, report = api_outputs(monitor, events)
        api_out = {}
        for n, t, v in collected:
            api_out.setdefault(n, []).append((t, v))

        assert api_out == legacy_out
        assert report.events_in == len(events)

    @pytest.mark.parametrize(
        "name,factory,inputs", FIGURES, ids=[f[0] for f in FIGURES]
    )
    def test_batched_run_identical_and_counted(self, name, factory, inputs):
        events = random_events(inputs, 100, 8, seed=13)
        plain, report_a = api_outputs(api.compile(factory()), events)
        batched, report_b = api_outputs(
            api.compile(factory()),
            events,
            api.RunOptions(batch_size=16),
        )
        assert batched == plain
        assert report_b.batches > 0 and report_a.batches == 0
        assert report_b.events_in == report_a.events_in
        assert report_b.events_out == report_a.events_out

    def test_runner_parity_with_monitor_runner(self):
        events = random_events(["i"], 80, 6, seed=17)
        legacy_out = []
        runner = MonitorRunner(
            build_compiled_spec(seen_set(), error_policy=ErrorPolicy.PROPAGATE),
            lambda n, t, v: legacy_out.append((n, t, freeze(v))),
        )
        runner.feed(events)
        legacy_report = runner.finish()

        monitor = api.compile(
            seen_set(), api.CompileOptions(error_policy="propagate")
        )
        collected, report = api_outputs(monitor, events)
        assert collected == legacy_out
        assert report.events_in == legacy_report.events_in
        assert report.events_out == legacy_report.events_out


class TestWarningFree:
    def test_new_surface_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            monitor = api.compile(seen_set())
            api.run(monitor, [(1, "i", 1)], api.RunOptions(batch_size=4))
            monitor.run_traces({"i": [(2, 2)]})
            MonitorRunner(build_compiled_spec(seen_set()))


class TestRemovedSurface:
    """The legacy entry points are gone, not merely hidden."""

    @pytest.mark.parametrize(
        "module,name",
        [
            ("repro", "compile_spec"),
            ("repro", "HardenedRunner"),
            ("repro.compiler", "compile_spec"),
            ("repro.compiler", "HardenedRunner"),
            ("repro.compiler", "make_interpreted_class"),
            ("repro.compiler", "make_plan_class"),
            ("repro.compiler", "build_plan"),
            ("repro.compiler", "ExecutionPlan"),
            ("repro.compiler", "generate_scala_source"),
            ("repro.compiler.runtime", "HardenedRunner"),
            ("repro.lang.prune", "prune"),
            ("repro.parallel", "PartitionedRunner"),
            ("repro.parallel", "partition_flatspec"),
            ("repro.parallel", "partition_spec"),
        ],
    )
    def test_name_removed(self, module, name):
        import importlib

        assert not hasattr(importlib.import_module(module), name)

    def test_live_streams_kept(self):
        from repro.lang import live_streams

        assert callable(live_streams)

    def test_no_run_method(self):
        from repro.compiler.monitor import MonitorBase

        compiled = build_compiled_spec(seen_set())
        assert not hasattr(compiled, "run")
        assert not hasattr(MonitorBase, "run")

    def test_prune_dead_knob_removed(self):
        from dataclasses import fields

        from repro.compiler.plancache import text_fingerprint

        assert "prune_dead" not in {f.name for f in fields(api.CompileOptions)}
        with pytest.raises(TypeError):
            api.CompileOptions(prune_dead=True)
        with pytest.raises(TypeError):
            build_compiled_spec(seen_set(), prune_dead=True)
        with pytest.raises(TypeError):
            text_fingerprint("in i: Int\nout i\n", prune_dead=True)

    @pytest.mark.parametrize(
        "value", ["none", "mutability", "rewrite", "full", 1, None]
    )
    def test_optimize_accepts_only_bool(self, value):
        with pytest.raises(TypeError, match="optimize must be a bool"):
            api.CompileOptions(optimize=value)
        assert api.CompileOptions(optimize=False).optimize is False

    @pytest.mark.parametrize(
        "kwargs",
        [{"partition": "auto"}, {"pool_backend": "thread"}],
        ids=["partition", "pool_backend"],
    )
    def test_parallel_run_options_removed(self, kwargs):
        with pytest.raises(TypeError):
            api.RunOptions(**kwargs)

    def test_plan_engine_removed(self, tmp_path, capsys):
        import importlib.util

        from repro.cli import main

        assert importlib.util.find_spec("repro.compiler.plan") is None
        with pytest.raises(ValueError, match="unknown engine"):
            api.CompileOptions(engine="plan")
        with pytest.raises(ValueError, match="unknown engine"):
            build_compiled_spec(seen_set(), engine="plan")
        spec = tmp_path / "s.tessla"
        spec.write_text("in i: Int\ndef d := add(i, i)\nout d\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", str(spec), "--trace", "t.csv", "--engine", "plan"])
        assert exc.value.code == 2
        assert "invalid choice: 'plan'" in capsys.readouterr().err

    def test_scala_emitter_removed(self, tmp_path, capsys):
        import importlib.util

        from repro.cli import main
        from repro.lang.builtins import LiftedFunction

        assert importlib.util.find_spec("repro.compiler.scala_backend") is None
        assert "scala_template" not in LiftedFunction.__slots__
        assert "scala_option_template" not in LiftedFunction.__slots__
        spec = tmp_path / "s.tessla"
        spec.write_text("in i: Int\ndef d := add(i, i)\nout d\n")
        with pytest.raises(SystemExit) as exc:
            main(["emit-scala", str(spec)])
        assert exc.value.code == 2
        assert "invalid choice: 'emit-scala'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name",
        [
            "feed_batch",
            "_feed_batch_rows",
            "_pack_batch",
            "_feed_batch_fast",
            "_scatter_columns",
            "_validate_batch",
            "_vector_slice",
        ],
    )
    def test_engine_batch_loops_removed(self, name):
        # One row loop, MonitorBase.feed_batch, serves both engines.
        from repro.compiler.codegen import CodegenMonitorBase
        from repro.compiler.vector import VectorMonitorBase

        assert name not in vars(VectorMonitorBase)
        assert name not in vars(CodegenMonitorBase)

    def test_pool_backend_parameter_removed(self):
        from repro.parallel.pool import MonitorPool, run_many

        text = "in i: Int\ndef d := add(i, i)\nout d\n"
        with pytest.raises(TypeError):
            MonitorPool(text, jobs=2, backend="thread")
        with pytest.raises(TypeError):
            run_many(text, [[(1, "i", 1)]], jobs=1, backend="thread")

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--trace", "t.csv", "--partition", "auto"],
            ["run-many", "--traces", "t.csv", "--pool-backend", "thread"],
        ],
        ids=["partition", "pool-backend"],
    )
    def test_parallel_cli_flags_removed(self, tmp_path, argv, capsys):
        from repro.cli import main

        spec = tmp_path / "s.tessla"
        spec.write_text("in i: Int\ndef d := add(i, i)\nout d\n")
        with pytest.raises(SystemExit) as exc:
            main([argv[0], str(spec), *argv[1:]])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestOptionRoundtrips:
    @pytest.mark.parametrize("optimize", [True, False])
    @pytest.mark.parametrize(
        "engine", ["codegen"] + (["vector"] if numpy_available() else [])
    )
    @pytest.mark.parametrize("alias_guard", [False, True])
    @pytest.mark.parametrize(
        "spec,eligible",
        [
            (seen_set, False),
            (lambda: "in i: Int\ndef p := last(i, i)\nout p\n", True),
        ],
        ids=["seen_set", "scalar_last"],
    )
    def test_compile_option_grid(
        self, optimize, engine, alias_guard, spec, eligible
    ):
        events = random_events(["i"], 60, 6, seed=23)
        baseline, _ = api_outputs(api.compile(spec()), events)
        monitor = api.compile(
            spec(),
            api.CompileOptions(
                optimize=optimize, engine=engine, alias_guard=alias_guard
            ),
        )
        # The Seen Set is not vector-eligible: "vector" resolves to codegen.
        expected = "codegen" if engine == "vector" and not eligible else engine
        assert monitor.compiled.engine == expected
        collected, _ = api_outputs(monitor, events)
        assert collected == baseline

    @pytest.mark.parametrize(
        "policy", [None, "fail-fast", "propagate", "substitute-default"]
    )
    def test_error_policy_strings(self, policy):
        monitor = api.compile(
            seen_set(), api.CompileOptions(error_policy=policy)
        )
        expected = None if policy is None else ErrorPolicy(policy)
        assert monitor.compiled.error_policy == expected

    def test_backend_strings(self):
        monitor = api.compile(
            seen_set(), api.CompileOptions(backend="copying")
        )
        assert set(monitor.compiled.backends.values()) == {Backend.COPYING}
        with pytest.raises(ValueError, match="unknown backend"):
            api.CompileOptions(backend="nope")

    def test_engine_validated(self):
        for engine in ("jit", "interpreted"):
            with pytest.raises(ValueError, match="unknown engine"):
                api.CompileOptions(engine=engine)

    def test_run_options_validated(self):
        with pytest.raises(ValueError, match="batch_size"):
            api.RunOptions(batch_size=0)
        with pytest.raises(ValueError, match="checkpoint_dir"):
            api.RunOptions(resume=True)

    def test_source_text_compiles(self):
        monitor = api.compile(
            "in i: Int\ndef y := add(i, i)\nout y"
        )
        assert monitor.inputs == ("i",)
        collected, _ = api_outputs(monitor, [(1, "i", 3)])
        assert collected == [("y", 1, 6)]

    def test_monitor_introspection(self):
        monitor = api.compile(
            seen_set(), api.CompileOptions(engine="codegen")
        )
        assert monitor.fingerprint
        assert "def _calc_rows(self, rows," in monitor.source
        assert monitor.plan_cache_hit is None
        assert monitor.mutable_streams
        assert "Monitor(" in repr(monitor)
        assert monitor.diagnostics() is not None


class TestReportObservability:
    def test_plan_cache_hit_mirrored_into_report(self, tmp_path):
        events = [(1, "i", 1), (2, "i", 2)]
        cold = api.compile(
            seen_set(), api.CompileOptions(plan_cache=str(tmp_path))
        )
        _, cold_report = api_outputs(cold, events)
        assert cold.plan_cache_hit is False
        assert cold_report.plan_cache_hit is False
        warm = api.compile(
            seen_set(), api.CompileOptions(plan_cache=str(tmp_path))
        )
        _, warm_report = api_outputs(warm, events)
        assert warm.plan_cache_hit is True
        assert warm_report.plan_cache_hit is True
        assert warm_report.as_dict()["plan_cache_hit"] is True

    def test_batches_counted_in_dict(self):
        _, report = api_outputs(
            api.compile(seen_set()),
            [(t, "i", t % 3) for t in range(1, 40)],
            api.RunOptions(batch_size=10),
        )
        assert report.as_dict()["batches"] == report.batches > 0

    def test_tolerant_ingestion_absorbed(self):
        events = [(5, "i", 1), (3, "i", 2), (6, "nope", 1), (7, "i", 3)]
        collected, report = api_outputs(
            api.compile(seen_set()),
            events,
            api.RunOptions(
                on_unknown_stream="skip", on_out_of_order="skip"
            ),
        )
        assert report.out_of_order_dropped == 1
        assert report.unknown_stream_events == 1
        assert report.events_in == 2

    def test_validate_inputs_counts(self):
        _, report = api_outputs(
            api.compile(
                seen_set(),
                api.CompileOptions(error_policy="substitute-default"),
            ),
            [(1, "i", 1), (2, "i", "oops"), (3, "i", 3)],
            api.RunOptions(validate_inputs=True, batch_size=2),
        )
        assert report.invalid_inputs == 1
        assert report.events_in == 3


class TestResumeViaApi:
    def test_crash_and_resume_matches_uninterrupted(self, tmp_path):
        events = random_events(["i"], 60, 6, seed=29)
        monitor = api.compile(seen_set())

        uninterrupted, _ = api_outputs(monitor, events)

        pre_crash = []
        crashed = MonitorRunner(
            monitor.compiled,
            lambda n, t, v: pre_crash.append((n, t, freeze(v))),
            checkpoint_dir=str(tmp_path),
            checkpoint_every=5,
        )
        crashed.feed(events[:30])
        # the process dies here: no finish, no flush

        post_crash = []
        seen_meta = {}
        report = api.run(
            api.compile(seen_set()),
            events,
            api.RunOptions(
                checkpoint_dir=str(tmp_path),
                checkpoint_every=5,
                resume=True,
            ),
            on_output=lambda n, t, v: post_crash.append((n, t, freeze(v))),
            on_resume=lambda meta: seen_meta.update(meta or {}),
        )
        kept = seen_meta.get("outputs_emitted", 0)
        assert pre_crash[:kept] + post_crash == uninterrupted
        assert report.resumed_from is not None
        assert report.events_skipped_on_resume > 0
