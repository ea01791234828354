"""Unit tests for the vector-eligibility classification.

``classify_vector`` decides, per stream, whether it can execute as
columnar numpy kernels: scalar types only, registered kernels for every
lift, no ``delay`` (data-dependent clock feedback inside a batch
slice), and no dependency on an ineligible stream.  A spec runs on the
vector engine only when every stream is eligible; the verdicts drive
``engine="auto"``/``"vector"`` resolution and the ``VEC001``/``VEC002``
diagnostics.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import build_compiled_spec, kernels
from repro.compiler.vector import classify_vector
from repro.errors import ErrorPolicy
from repro.frontend import parse_spec
from repro.lang import check_types, flatten
from repro.speclib import seen_set

from ..integration.specgen import specifications

pytestmark = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy not installed"
)


def classify(text):
    flat = flatten(parse_spec(text))
    check_types(flat)
    return flat, classify_vector(flat)


SCALAR_CHAIN = """
in i: Int
def prev := last(i, i)
def d := sub(i, prev)
def up := gt(d, 0)
out d
out up
"""


class TestEligible:
    def test_scalar_chain_fully_eligible(self):
        flat, cls = classify(SCALAR_CHAIN)
        assert cls.numpy_ok
        assert not cls.reasons
        assert cls.auto_engine == "vector"
        assert cls.diagnostics() == []

    def test_float_bool_unit_ops_eligible(self):
        _, cls = classify(
            """
            in x: Float
            in u: Unit
            def h := fdiv(x, 2.0)
            def big := fabs(h)
            def t := time(u)
            out big
            out t
            """
        )
        assert cls.auto_engine == "vector"

    def test_filter_and_merge_eligible(self):
        _, cls = classify(
            """
            in a: Int
            in b: Int
            def m := merge(a, b)
            def f := filter(m, gt(m, 3))
            out f
            """
        )
        assert cls.auto_engine == "vector"

    def test_order_is_dependency_closed(self):
        flat, cls = classify(SCALAR_CHAIN)
        position = {name: i for i, name in enumerate(cls.order)}
        assert position["prev"] < position["d"] < position["up"]


class TestIneligible:
    def test_aggregate_family_falls_back(self):
        flat = flatten(seen_set())
        check_types(flat)
        cls = classify_vector(flat)
        assert cls.auto_engine == "codegen"
        assert "seen" in cls.reasons
        diags = cls.diagnostics()
        assert diags and all(d.code == "VEC001" for d in diags)
        assert all(d.severity.label == "note" for d in diags)

    def test_delay_demotes_the_whole_spec(self):
        _, cls = classify(
            """
            in a: Int
            in r: Unit
            def d := delay(a, r)
            def t := time(d)
            def dbl := add(a, a)
            out t
            out dbl
            """
        )
        assert "t" in cls.reasons  # depends on the delay
        assert "dbl" not in cls.reasons
        reasons = dict(cls.reasons)
        assert "clock feedback" in reasons["d"]
        assert cls.auto_engine == "codegen"

    def test_string_type_ineligible(self):
        _, cls = classify(
            """
            in s: Str
            def t := time(s)
            out t
            """
        )
        assert "t" in cls.reasons
        assert cls.auto_engine == "codegen"

    def test_dependency_on_ineligible_stream_propagates(self):
        # `count` expands to an ad-hoc (unregistered) lift, so `agg` is
        # locally ineligible and `plus` — scalar-typed, kernel-backed —
        # is demoted purely by its dependency on it.
        _, cls = classify(
            """
            in i: Int
            def agg := count(i)
            def plus := add(agg, i)
            out plus
            """
        )
        reasons = dict(cls.reasons)
        assert "plus" in cls.reasons
        assert "depends on ineligible stream" in reasons["plus"]

    def test_error_policy_disables_vectorization(self):
        flat = flatten(parse_spec(SCALAR_CHAIN))
        check_types(flat)
        cls = classify_vector(flat, error_policy=ErrorPolicy.PROPAGATE)
        assert cls.error_mode
        assert cls.auto_engine == "codegen"


MIXED_FAMILIES = """
in i: Int
def m  := merge(y, set_empty(unit))
def yl := last(m, i)
def y  := set_add(yl, i)
def s  := set_contains(yl, i)
def dbl := add(i, i)
out s
out dbl
"""


class TestPerStreamVerdicts:
    """One ineligible stream sends the whole spec to codegen, and each
    ineligible stream gets its own ``VEC001`` note."""

    def test_partly_eligible_spec_resolves_codegen(self):
        _, cls = classify(MIXED_FAMILIES)
        assert cls.reasons and "dbl" not in cls.reasons
        assert cls.auto_engine == "codegen"

    def test_one_note_per_ineligible_stream(self):
        _, cls = classify(MIXED_FAMILIES)
        diags = cls.diagnostics()
        assert [d.stream for d in diags] == list(cls.reasons)
        for diag in diags:
            assert diag.code == "VEC001"
            assert cls.reasons[diag.stream] in diag.message
            assert "compiles with codegen" in diag.message
            assert diag.witness == {
                "rule": "vector-fallback",
                "reason": cls.reasons[diag.stream],
            }

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        spec=specifications(allow_delays=True),
        policy=st.sampled_from([None, ErrorPolicy.PROPAGATE]),
    )
    def test_vector_resolves_like_auto_on_generated_specs(self, spec, policy):
        flat = flatten(spec)
        check_types(flat)
        cls = classify_vector(flat, error_policy=policy)
        expected = (
            "vector" if policy is None and not cls.reasons else "codegen"
        )
        assert cls.auto_engine == expected
        for engine in ("auto", "vector"):
            compiled = build_compiled_spec(
                flat, engine=engine, error_policy=policy
            )
            assert compiled.engine == expected


class TestNumpyAbsent:
    def test_missing_numpy_resolves_codegen_with_vec002(self, monkeypatch):
        monkeypatch.setattr(kernels, "_np", None)
        flat = flatten(parse_spec(SCALAR_CHAIN))
        check_types(flat)
        cls = classify_vector(flat)
        assert not cls.numpy_ok
        assert cls.auto_engine == "codegen"
        assert [d.code for d in cls.diagnostics()] == ["VEC002"]


class TestKernelSemantics:
    """Kernels must match Python scalar semantics exactly."""

    def test_div_by_zero_raises(self):
        np = kernels.numpy_module()
        k = kernels.kernel_for("div")
        with pytest.raises(ZeroDivisionError):
            k.fn(np, None, np.array([4]), np.array([0]))

    def test_fdiv_by_zero_raises(self):
        np = kernels.numpy_module()
        k = kernels.kernel_for("fdiv")
        with pytest.raises(ZeroDivisionError):
            k.fn(np, None, np.array([4.0]), np.array([0.0]))

    def test_floor_division_matches_python(self):
        np = kernels.numpy_module()
        k = kernels.kernel_for("div")
        out = k.fn(np, None, np.array([-7, 7]), np.array([2, -2]))
        assert out.tolist() == [-7 // 2, 7 // -2]

    def test_round_uses_bankers_rounding(self):
        np = kernels.numpy_module()
        k = kernels.kernel_for("round")
        out = k.fn(np, None, np.array([0.5, 1.5, 2.5]))
        assert out.tolist() == [round(0.5), round(1.5), round(2.5)]

    def test_min_max_match_python_on_nan(self):
        np = kernels.numpy_module()
        fmin = kernels.kernel_for("min")
        nan = float("nan")
        # Python's `a if a <= b else b` returns b when a is NaN.
        out = fmin.fn(np, None, np.array([nan]), np.array([1.0]))
        assert out.tolist() == [1.0]

    def test_dtype_names(self):
        from repro.lang import types as ty

        assert kernels.dtype_name_for(ty.INT) == "int64"
        assert kernels.dtype_name_for(ty.TIME) == "int64"
        assert kernels.dtype_name_for(ty.FLOAT) == "float64"
        assert kernels.dtype_name_for(ty.BOOL) == "bool"
        assert kernels.dtype_name_for(ty.UNIT) == "unit"
        assert kernels.dtype_name_for(ty.STR) is None
