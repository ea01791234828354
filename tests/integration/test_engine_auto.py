"""Engine negotiation: ``CompileOptions(engine="auto")`` and ``"vector"``.

``auto`` resolves per spec — ``vector`` when every stream is
vector-eligible, numpy is importable and no error policy is set, else
``codegen`` — and the resolution is observable
(``Monitor.engine_resolved``), explained (``VEC001``/``VEC002``
diagnostics) and fingerprinted (the resolved engine, never the literal
request, keys plan cache and checkpoints).  ``vector`` resolves the
same way, except that it raises without numpy.  ``codegen`` and
``plan`` are kept as requested, and a numpy-less process must degrade
gracefully.
"""

import pytest

from repro import api
from repro.compiler import kernels
from repro.speclib import seen_set

ELIGIBLE = """
in i: Int
def prev := last(i, i)
def d := sub(i, prev)
out d
"""

# One scalar output on the columnar path, one set-typed output that is not.
PARTLY_ELIGIBLE = """
in i: Int
def m  := merge(y, set_empty(unit))
def yl := last(m, i)
def y  := set_add(yl, i)
def s  := set_contains(yl, i)
def dbl := add(i, i)
out s
out dbl
"""

# The ineligible set chain feeds no output.
DEAD_INELIGIBLE_FAMILY = """
in i: Int
def m  := merge(y, set_empty(unit))
def yl := last(m, i)
def y  := set_add(yl, i)
def dbl := add(i, i)
out dbl
"""

has_numpy = kernels.numpy_available()
needs_numpy = pytest.mark.skipif(not has_numpy, reason="numpy not installed")


class TestResolution:
    @needs_numpy
    def test_auto_resolves_vector_when_eligible(self):
        monitor = api.compile(ELIGIBLE, api.CompileOptions(engine="auto"))
        assert monitor.engine_requested == "auto"
        assert monitor.engine_resolved == "vector"

    @needs_numpy
    def test_auto_is_the_default(self):
        monitor = api.compile(ELIGIBLE)
        assert monitor.options.engine == "auto"
        assert monitor.engine_resolved == "vector"

    def test_auto_resolves_codegen_when_ineligible(self):
        monitor = api.compile(
            seen_set(), api.CompileOptions(engine="auto")
        )
        assert monitor.engine_resolved == "codegen"
        codes = [d.code for d in monitor.diagnostics()]
        if has_numpy:
            assert "VEC001" in codes
        else:
            assert "VEC002" in codes

    def test_auto_resolves_codegen_under_error_policy(self):
        monitor = api.compile(
            ELIGIBLE,
            api.CompileOptions(engine="auto", error_policy="propagate"),
        )
        assert monitor.engine_resolved == "codegen"

    @pytest.mark.parametrize(
        "engine", ["codegen"] + (["vector"] if has_numpy else [])
    )
    def test_explicit_strings_unchanged(self, engine):
        monitor = api.compile(
            ELIGIBLE, api.CompileOptions(engine=engine)
        )
        assert monitor.engine_requested == engine
        assert monitor.engine_resolved == engine

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            api.CompileOptions(engine="jit")

    @needs_numpy
    def test_fallback_diagnostic_names_the_stream(self):
        monitor = api.compile(
            seen_set(), api.CompileOptions(engine="auto")
        )
        vec = [d for d in monitor.diagnostics() if d.code == "VEC001"]
        assert vec
        flat = monitor.compiled.flat
        for diagnostic in vec:
            assert diagnostic.stream in flat.streams
            assert diagnostic.severity.label == "note"
            assert diagnostic.source == "vector"
            assert diagnostic.witness["rule"] == "vector-fallback"
            assert diagnostic.witness["reason"] in diagnostic.message
            assert "compiles with codegen" in diagnostic.message


# Resolution table: spec x error policy -> resolved engine with numpy.
# Without numpy, "auto" always resolves to codegen and "vector" raises.
RESOLUTION_CASES = {
    "wholly_eligible": (ELIGIBLE, None, "vector"),
    "partly_eligible": (PARTLY_ELIGIBLE, None, "codegen"),
    "seen_set": (seen_set(), None, "codegen"),
    "error_policy": (ELIGIBLE, "propagate", "codegen"),
    "dead_ineligible_family": (DEAD_INELIGIBLE_FAMILY, None, "codegen"),
}


@pytest.mark.parametrize("case", sorted(RESOLUTION_CASES))
@pytest.mark.parametrize("engine", ["auto", "vector"])
class TestResolutionTable:
    def compile(self, case, engine):
        spec, policy, _ = RESOLUTION_CASES[case]
        return api.compile(
            spec, api.CompileOptions(engine=engine, error_policy=policy)
        )

    @needs_numpy
    def test_with_numpy(self, case, engine):
        monitor = self.compile(case, engine)
        assert monitor.engine_requested == engine
        assert monitor.engine_resolved == RESOLUTION_CASES[case][2]

    def test_without_numpy(self, case, engine, monkeypatch):
        monkeypatch.setattr(kernels, "_np", None)
        if engine == "vector":
            with pytest.raises(ValueError, match=r"repro\[vector\]"):
                self.compile(case, engine)
        else:
            assert self.compile(case, engine).engine_resolved == "codegen"


class TestNumpyLess:
    def test_auto_falls_back_to_codegen(self, monkeypatch):
        monkeypatch.setattr(kernels, "_np", None)
        monitor = api.compile(ELIGIBLE, api.CompileOptions(engine="auto"))
        assert monitor.engine_resolved == "codegen"
        assert [d.code for d in monitor.diagnostics()] == ["VEC002"]
        collected = []
        api.run(
            monitor,
            [(1, "i", 3), (4, "i", 9)],
            on_output=lambda n, t, v: collected.append((n, t, v)),
        )
        assert collected == [("d", 4, 6)]

    def test_explicit_vector_raises_with_guidance(self, monkeypatch):
        monkeypatch.setattr(kernels, "_np", None)
        with pytest.raises(ValueError, match=r"repro\[vector\]"):
            api.compile(ELIGIBLE, api.CompileOptions(engine="vector"))


class TestFingerprints:
    @needs_numpy
    def test_auto_shares_fingerprint_with_resolved_engine(self):
        # The resolved engine — not "auto" — keys caches/checkpoints,
        # so an auto compile and its explicit twin are interchangeable.
        auto = api.compile(ELIGIBLE, api.CompileOptions(engine="auto"))
        explicit = api.compile(
            ELIGIBLE, api.CompileOptions(engine="vector")
        )
        assert auto.fingerprint == explicit.fingerprint

    def test_auto_codegen_fallback_shares_codegen_fingerprint(self):
        auto = api.compile(
            seen_set(), api.CompileOptions(engine="auto")
        )
        explicit = api.compile(
            seen_set(), api.CompileOptions(engine="codegen")
        )
        assert auto.fingerprint == explicit.fingerprint

    @needs_numpy
    @pytest.mark.parametrize(
        "spec", [seen_set(), PARTLY_ELIGIBLE], ids=["seen_set", "partly"]
    )
    def test_vector_codegen_fallback_shares_codegen_plan_cache(
        self, spec, tmp_path
    ):
        cache = str(tmp_path)
        vector = api.compile(
            spec, api.CompileOptions(engine="vector", plan_cache=cache)
        )
        codegen = api.compile(
            spec, api.CompileOptions(engine="codegen", plan_cache=cache)
        )
        assert vector.engine_resolved == "codegen"
        assert vector.fingerprint == codegen.fingerprint
        assert (vector.plan_cache_hit, codegen.plan_cache_hit) == (
            False,
            True,
        )

    @needs_numpy
    def test_numpy_presence_forks_auto_fingerprint(self, monkeypatch):
        with_numpy = api.compile(
            ELIGIBLE, api.CompileOptions(engine="auto")
        ).fingerprint
        monkeypatch.setattr(kernels, "_np", None)
        without = api.compile(
            ELIGIBLE, api.CompileOptions(engine="auto")
        ).fingerprint
        assert with_numpy != without

    @needs_numpy
    def test_plan_cache_roundtrip_under_auto(self, tmp_path):
        opts = api.CompileOptions(engine="auto", plan_cache=str(tmp_path))
        cold = api.compile(ELIGIBLE, opts)
        warm = api.compile(ELIGIBLE, opts)
        assert (cold.plan_cache_hit, warm.plan_cache_hit) == (False, True)
        assert warm.engine_resolved == "vector"
        events = [(t, "i", t % 5) for t in range(1, 30)]
        out = {}
        for tag, monitor in (("cold", cold), ("warm", warm)):
            collected = []
            api.run(
                monitor,
                events,
                on_output=lambda n, t, v: collected.append((n, t, v)),
            )
            out[tag] = collected
        assert out["cold"] == out["warm"]


class TestCliPlumbing:
    def test_engine_flag_silent_on_run(self, tmp_path, capsys):
        import warnings

        from repro.cli import main

        spec = tmp_path / "s.tessla"
        spec.write_text(ELIGIBLE)
        trace = tmp_path / "t.csv"
        trace.write_text("1,i,3\n4,i,9\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                ["run", str(spec), "--trace", str(trace), "--engine", "auto"]
            )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["4,d,6"]
        assert not [w for w in caught if "--engine" in str(w.message)]
