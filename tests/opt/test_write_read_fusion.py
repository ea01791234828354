"""Write-then-read fusion (OPT008).

``r(w(a, xs…), ys…)`` where the write's result is only read becomes one
registered Read builtin ``r_after_w(a, xs…, ys…)``.  Pinned here: the
fusion table's semantics on every backend, where the rule fires and
where it must not, the default optimizing compile (and the baselines
that must stay unfused), and the text-keyed warm path.
"""

import importlib.util
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.analysis.diagnostics import CATALOG
from repro.compiler import build_compiled_spec
from repro.frontend import parse_spec
from repro.lang import (
    INT,
    Delay,
    Last,
    Lift,
    Merge,
    Specification,
    UnitExpr,
    Var,
    check_types,
    flatten,
)
from repro.lang.builtins import (
    FUSIONS,
    REGISTRY,
    Access,
    EventPattern,
    builtin,
    pointwise,
)
from repro.lang.types import SetType
from repro.opt import ALL_RULES, fuse_write_reads, optimize_flat
from repro.structures import Backend, empty_map, empty_queue, empty_set
from repro.testing import reference_outputs

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

#: perfbench's ``uncertified`` workload: the paper's Fig. 4 (lower) with
#: only the fork's size emitted.
UNCERTIFIED_TEXT = """\
in i1: Int
in i2: Int
def m := merge(y, set_empty(unit))
def yl := last(m, i1)
def y := set_add(yl, i1)
def yp := last(y, i2)
def s := set_add(yp, i2)
def n := set_size(s)
out n
"""

UNCERTIFIED_TRACE = {
    "i1": [(t, t % 7) for t in range(0, 60, 2)],
    "i2": [(t, t % 5) for t in range(0, 60, 3)],
}


def flat_of(spec):
    flat = spec if not isinstance(spec, str) else parse_spec(spec)
    flat = flatten(flat)
    check_types(flat)
    return flat


def benchmark_specs():
    """The spec texts of perfbench's workloads (read, never changed)."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    module_spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", path
    )
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


def fig1_with(extra, outputs=("s",), inputs=None):
    """The Fig. 1 accumulator plus *extra* definitions."""
    i = Var("i")
    definitions = {
        "m": Merge(Var("y"), Lift(builtin("set_empty"), (UnitExpr(),))),
        "yl": Last(Var("m"), i),
        "y": Lift(builtin("set_add"), (Var("yl"), i)),
    }
    definitions.update(extra)
    return Specification(
        inputs or {"i": INT, "j": INT}, definitions, list(outputs)
    )


def peek_write():
    return Lift(builtin("set_add"), (Var("yl"), Var("j")))


# ---------------------------------------------------------------------------
# The fusion table
# ---------------------------------------------------------------------------


class TestFusionTable:
    def test_catalogue_code(self):
        assert CATALOG["OPT008"][0] == "write-then-read fused"

    @pytest.mark.parametrize("pair", sorted(FUSIONS))
    def test_entry_shape(self, pair):
        write, read = builtin(pair[0]), builtin(pair[1])
        fused = FUSIONS[pair]
        assert REGISTRY[fused.name] is fused
        assert write.pattern is read.pattern is fused.pattern
        assert fused.pattern is EventPattern.ALL
        assert fused.arity == write.arity + read.arity - 1
        assert fused.access == (Access.READ,) + (Access.NONE,) * (
            fused.arity - 1
        )
        assert fused.result_type == read.result_type

    BACKENDS = (
        Backend.MUTABLE,
        Backend.PERSISTENT,
        Backend.GUARDED,
        Backend.COPYING,
    )

    @staticmethod
    def _build(kind, items, backend):
        if kind == "set":
            value = empty_set(backend)
            for item in items:
                value = value.add(item)
        elif kind == "map":
            value = empty_map(backend)
            for item in items:
                value = value.put(item, item * 10)
        else:
            value = empty_queue(backend)
            for item in items:
                value = value.enqueue(item)
        return value

    @settings(max_examples=60, deadline=None)
    @given(
        items=st.lists(st.integers(-4, 4), max_size=8),
        args=st.lists(st.integers(-4, 4), min_size=4, max_size=4),
    )
    def test_fused_equals_the_pair_on_every_backend(self, items, args):
        kinds = {"set_add": "set", "map_put": "map", "queue_enq": "queue"}
        for (write_name, read_name), fused in sorted(FUSIONS.items()):
            write, read = builtin(write_name), builtin(read_name)
            xs = args[: write.arity - 1]
            ys = args[write.arity - 1 : write.arity + read.arity - 2]
            for backend in self.BACKENDS:
                kind = kinds[write_name]
                # Separate aggregates: a mutable write changes its input.
                unfused = read.bind(backend)(
                    write.bind(backend)(
                        self._build(kind, items, backend), *xs
                    ),
                    *ys,
                )
                fused_value = fused.bind(backend)(
                    self._build(kind, items, backend), *xs, *ys
                )
                assert fused_value == unfused, (fused.name, backend)


# ---------------------------------------------------------------------------
# Where the rule fires, and where it must not
# ---------------------------------------------------------------------------


class TestApplicability:
    def test_uncertified_pair_fuses(self):
        flat = flat_of(UNCERTIFIED_TEXT)
        fused, records = fuse_write_reads(flat)
        assert "s" not in fused.definitions
        assert str(fused.definitions["n"]) == (
            "lift(set_size_after_add)(yp, i2)"
        )
        assert [r.detail for r in records] == [
            {"write": "s", "read": "n", "fused": "set_size_after_add"}
        ]
        assert "s" not in fused.types

    def test_every_reader_is_fused(self):
        spec = fig1_with(
            {
                "w": peek_write(),
                "s": Lift(builtin("set_contains"), (Var("w"), Var("i"))),
                "n": Lift(builtin("set_size"), (Var("w"),)),
            },
            outputs=("s", "n"),
        )
        fused, records = fuse_write_reads(flat_of(spec))
        assert "w" not in fused.definitions
        assert sorted(r.stream for r in records) == ["n", "s"]
        assert str(fused.definitions["s"]) == (
            "lift(set_contains_after_add)(yl, j, i)"
        )

    def test_only_the_last_write_of_a_chain_fuses(self):
        spec = fig1_with(
            {
                "w1": peek_write(),
                "w2": Lift(builtin("set_add"), (Var("w1"), Var("i"))),
                "n": Lift(builtin("set_size"), (Var("w2"),)),
            },
            outputs=("n",),
        )
        fused, records = fuse_write_reads(flat_of(spec))
        assert [r.detail["write"] for r in records] == ["w2"]
        assert str(fused.definitions["n"]) == (
            "lift(set_size_after_add)(w1, i)"
        )

    @pytest.mark.parametrize(
        "use",
        [
            Last(Var("w"), Var("i")),
            Merge(Var("w"), Var("y")),
            Delay(Var("k"), Var("w")),
            Lift(builtin("set_add"), (Var("w"), Var("i"))),
            Lift(builtin("set_remove"), (Var("w"), Var("i"))),
            Lift(builtin("eq"), (Var("w"), Var("y"))),
        ],
        ids=["last", "merge", "delay-reset", "write", "other-write",
             "read-outside-the-table"],
    )
    def test_no_fusion_when_the_write_has_another_use(self, use):
        extra = {
            "w": peek_write(),
            "n": Lift(builtin("set_size"), (Var("w"),)),
            "k": Lift(builtin("abs"), (Var("j"),)),
            "u": use,
        }
        flat = flat_of(fig1_with(extra, outputs=("n", "u")))
        fused, records = fuse_write_reads(flat)
        assert records == []
        assert fused is flat

    def test_no_fusion_of_an_output_write(self):
        spec = fig1_with(
            {"w": peek_write(), "n": Lift(builtin("set_size"), (Var("w"),))},
            outputs=("n", "w"),
        )
        flat = flat_of(spec)
        assert fuse_write_reads(flat) == (flat, [])

    def test_no_fusion_at_another_argument_index(self):
        # ``w`` as the *element* of a table reader: a set of sets, which
        # the type checker rejects, so the scan runs on the untyped spec.
        spec = fig1_with(
            {
                "w": peek_write(),
                "n": Lift(builtin("set_size"), (Var("w"),)),
                "ss": Lift(builtin("set_empty"), (UnitExpr(),)),
                "c": Lift(builtin("set_contains"), (Var("ss"), Var("w"))),
            },
            outputs=("n", "c"),
        )
        flat = flatten(spec)
        assert fuse_write_reads(flat) == (flat, [])

    def test_no_fusion_with_an_unregistered_reader(self):
        size = pointwise(
            "set_size", lambda s: len(s), (SetType(INT),), INT
        )
        spec = fig1_with(
            {"w": peek_write(), "n": Lift(size, (Var("w"),))},
            outputs=("n",),
        )
        flat = flat_of(spec)
        assert fuse_write_reads(flat)[1] == []

    def test_no_fusion_of_an_unregistered_writer(self):
        add = pointwise(
            "set_add",
            lambda s, x: s.add(x),
            (SetType(INT), INT),
            SetType(INT),
            access=(Access.WRITE, Access.NONE),
        )
        spec = fig1_with(
            {
                "w": Lift(add, (Var("yl"), Var("j"))),
                "n": Lift(builtin("set_size"), (Var("w"),)),
            },
            outputs=("n",),
        )
        assert fuse_write_reads(flat_of(spec))[1] == []

    def test_a_pair_outside_the_table_is_left_alone(self):
        spec = fig1_with(
            {
                "w": Lift(builtin("set_remove"), (Var("yl"), Var("j"))),
                "n": Lift(builtin("set_size"), (Var("w"),)),
            },
            outputs=("n",),
        )
        assert fuse_write_reads(flat_of(spec))[1] == []

    def test_benchmark_specs_other_than_uncertified_are_unchanged(self):
        module = benchmark_specs()
        for text in (
            module.SEEN_SET_SPEC,
            module.ALERT_COLUMNS_SPEC,
            module.FLEET_SPEC,
        ):
            flat = flat_of(text)
            assert fuse_write_reads(flat) == (flat, [])
        assert module.UNCERTIFIED_SPEC == UNCERTIFIED_TEXT

    def test_the_rewrite_optimizer_does_not_fuse(self):
        """OPT008 is no fixpoint rule: ``optimize_flat`` leaves the pair."""
        flat = flat_of(UNCERTIFIED_TEXT)
        result = optimize_flat(flat, rules=ALL_RULES)
        assert "OPT008" not in result.fired
        assert "s" in result.flat.definitions

    def test_rewrite_true_fuses_after_the_rewrite(self):
        compiled = build_compiled_spec(
            flat_of(UNCERTIFIED_TEXT), rewrite=True
        )
        assert "OPT008" not in compiled.rewrite_result.fired
        assert [r.detail["write"] for r in compiled.fusions] == ["s"]
        assert sorted(compiled.mutable_streams) == [
            "_s0", "m", "y", "yl", "yp"
        ]
        codes = [d.code for d in compiled.diagnostics()]
        assert codes.count("OPT008") == 1


# ---------------------------------------------------------------------------
# The default compile, and the baselines that stay as written
# ---------------------------------------------------------------------------


class TestDefaultCompile:
    def test_uncertified_is_certified_after_fusion(self):
        monitor = api.compile(UNCERTIFIED_TEXT)
        assert sorted(monitor.compiled.mutable_streams) == [
            "_s0", "m", "y", "yl", "yp"
        ]
        notes = [d for d in monitor.diagnostics() if d.code == "OPT008"]
        assert len(notes) == 1
        (note,) = notes
        assert note.stream == "n"
        assert note.witness["detail"] == {
            "write": "s",
            "read": "n",
            "fused": "set_size_after_add",
        }
        assert "'s'" in note.message and "set_size_after_add" in note.message

    def test_outputs_match_the_reference(self):
        compiled = build_compiled_spec(parse_spec(UNCERTIFIED_TEXT))
        expected = reference_outputs(
            parse_spec(UNCERTIFIED_TEXT), UNCERTIFIED_TRACE
        )
        results = compiled.run_traces(UNCERTIFIED_TRACE)
        assert {n: s.events for n, s in results.items()} == expected

    @pytest.mark.parametrize(
        "options",
        [
            {"optimize": False},
            {"optimize": False, "rewrite": True},
            {"backend": "copying"},
            {"backend": "copying", "rewrite": True},
            {"backend": "persistent"},
            {"backend": "mutable"},
        ],
        ids=["persistent-baseline", "persistent-baseline-rewrite", "copying",
             "copying-rewrite", "forced-persistent", "forced-mutable"],
    )
    def test_baselines_compile_the_spec_as_written(self, options):
        monitor = api.compile(UNCERTIFIED_TEXT, api.CompileOptions(**options))
        compiled = monitor.compiled
        assert compiled.fusions == ()
        assert str(compiled.flat.definitions["s"]) == (
            "lift(set_add)(yp, i2)"
        )
        assert not any(d.code == "OPT008" for d in monitor.diagnostics())

    def test_persistent_baseline_still_copies(self):
        monitor = api.compile(
            UNCERTIFIED_TEXT, api.CompileOptions(optimize=False)
        )
        events = sorted(
            (t, n, v) for n, tr in UNCERTIFIED_TRACE.items() for t, v in tr
        )
        report = api.run(monitor, events, api.RunOptions(metrics=True))
        streams = report.metrics["streams"]
        assert streams["s"]["copies_performed"] > 0

    def test_fused_default_performs_no_copy(self):
        monitor = api.compile(UNCERTIFIED_TEXT)
        events = sorted(
            (t, n, v) for n, tr in UNCERTIFIED_TRACE.items() for t, v in tr
        )
        report = api.run(monitor, events, api.RunOptions(metrics=True))
        streams = report.metrics["streams"]
        assert sum(s["copies_performed"] for s in streams.values()) == 0
        assert streams["y"]["inplace_updates"] > 0


# ---------------------------------------------------------------------------
# Plan cache: text-keyed warm path
# ---------------------------------------------------------------------------

DEAD_STREAM_TEXT = """\
in i: Int
def m := merge(y, set_empty(unit))
def yl := last(m, i)
def y := set_add(yl, i)
def s := set_contains(yl, i)
def dead := i + i
out s
"""


class TestWarmTextPath:
    def test_warm_uncertified_takes_the_recipe_path(self, tmp_path):
        options = api.CompileOptions(plan_cache=str(tmp_path))
        cold = api.compile(UNCERTIFIED_TEXT, options)
        assert cold.compiled.plan_cache_hit is False
        warm = api.compile(UNCERTIFIED_TEXT, options)
        compiled = warm.compiled
        assert compiled.plan_cache_hit is True
        assert compiled.engine == "codegen"
        assert compiled.analysis is None  # the frontend was skipped
        assert sorted(compiled.mutable_streams) == [
            "_s0", "m", "y", "yl", "yp"
        ]
        # the records live on the lazy flat spec; ``fusions`` forwards
        assert [r.detail["write"] for r in compiled.fusions] == ["s"]
        notes = [d for d in warm.diagnostics() if d.code == "OPT008"]
        assert [d.stream for d in notes] == ["n"]

    @pytest.mark.parametrize(
        "text, rewrite, inputs",
        [
            (DEAD_STREAM_TEXT, True, {"i": [(t, t % 4) for t in range(1, 30)]}),
            (UNCERTIFIED_TEXT, False, UNCERTIFIED_TRACE),
        ],
        ids=["rewrite-dead-stream", "default-fusion"],
    )
    def test_warm_metrics_run(self, tmp_path, text, rewrite, inputs):
        """The warm monitor's lazy flat spec gets the cold compile's
        passes, so the metrics twin rebuilds with the cached order."""
        options = api.CompileOptions(plan_cache=str(tmp_path), rewrite=rewrite)
        cold = api.compile(text, options)
        warm = api.compile(text, options)
        assert warm.compiled.plan_cache_hit is True
        events = sorted(
            ((t, n, v) for n, tr in inputs.items() for t, v in tr),
            key=lambda e: e[0],
        )
        runs = []
        for monitor in (cold, warm):
            outputs = []
            report = api.run(
                monitor,
                events,
                api.RunOptions(metrics=True),
                on_output=lambda n, t, v: outputs.append((n, t, v)),
            )
            runs.append((outputs, report.metrics["streams"]))
        assert runs[0] == runs[1]
        assert set(warm.compiled.flat.definitions) == set(
            cold.compiled.flat.definitions
        )

    def test_text_key_differs_from_before_fusion(self):
        import hashlib

        from repro.compiler.plancache import text_fingerprint

        # The key an entry written before fusion was filed under.
        old_options = ("text-opts-v3", True, None, False, None, "codegen",
                       False, 0, None)
        digest = hashlib.sha256()
        digest.update(b"text-v1\n")
        digest.update(UNCERTIFIED_TEXT.encode())
        digest.update(repr(old_options).encode())
        assert text_fingerprint(UNCERTIFIED_TEXT) != digest.hexdigest()

