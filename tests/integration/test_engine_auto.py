"""Engine negotiation: ``CompileOptions(engine="auto")``.

``auto`` resolves per spec — ``vector`` when every output-reachable
family is vector-eligible and numpy is importable, else ``codegen`` —
and the resolution is observable (``Monitor.engine_resolved``),
explained (``VEC001``/``VEC002`` diagnostics) and fingerprinted (the
resolved engine, never the literal ``"auto"``, keys plan cache and
checkpoints).  Explicit engine strings keep working unchanged, and a
numpy-less process must degrade gracefully.
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
        "engine", ["codegen", "plan"] + (["vector"] if has_numpy else [])
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
    def test_fallback_diagnostic_names_the_family(self):
        monitor = api.compile(
            seen_set(), api.CompileOptions(engine="auto")
        )
        vec = [d for d in monitor.diagnostics() if d.code == "VEC001"]
        assert vec
        diagnostic = vec[0]
        assert diagnostic.severity.label == "note"
        assert diagnostic.source == "vector"
        assert diagnostic.witness["rule"] == "vector-fallback"
        assert diagnostic.witness["family"]  # the member streams
        assert diagnostic.witness["reasons"]  # per-stream explanations


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
        plan = api.compile(seen_set(), api.CompileOptions(engine="plan"))
        assert auto.fingerprint != plan.fingerprint

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
