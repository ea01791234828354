"""Unit tests for the vector-eligibility classification.

``classify_vector`` decides, per alias-closed stream family, whether
the family can execute as columnar numpy kernels: scalar types only,
registered kernels for every lift, no ``delay`` (data-dependent clock
feedback inside a batch slice), and no dependency on an ineligible
stream.  The verdicts drive ``engine="auto"`` resolution and the
``VEC001``/``VEC002`` diagnostics.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.compiler import kernels
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
        assert set(flat.streams) <= cls.eligible
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
        assert "seen" not in cls.eligible
        diags = cls.diagnostics()
        assert diags and all(d.code == "VEC001" for d in diags)
        assert all(d.severity.label == "note" for d in diags)

    def test_delay_is_ineligible_but_rest_vectorizes(self):
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
        assert "d" not in cls.eligible
        assert "t" not in cls.eligible  # depends on the delay
        assert "dbl" in cls.eligible
        reasons = dict(cls.reasons)
        assert "clock feedback" in reasons["d"]

    def test_string_type_ineligible(self):
        _, cls = classify(
            """
            in s: Str
            def t := time(s)
            out t
            """
        )
        assert "t" not in cls.eligible
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
        assert "plus" not in cls.eligible
        assert "depends on ineligible stream" in reasons["plus"]

    def test_error_policy_disables_vectorization(self):
        flat = flatten(parse_spec(SCALAR_CHAIN))
        check_types(flat)
        cls = classify_vector(flat, error_policy=ErrorPolicy.PROPAGATE)
        assert cls.error_mode
        assert cls.auto_engine == "codegen"


def eager_auto_engine(cls):
    """The ``auto`` rule with the families built first, shortcut-free."""
    verdicts = cls.verdicts
    if not cls.numpy_ok or cls.error_mode or not cls.eligible:
        return "codegen"
    for verdict in verdicts:
        if verdict.outputs and not verdict.eligible:
            return "codegen"
    return "vector"


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


class TestLazyFamilies:
    """Family verdicts are built on first use, never for ``auto`` alone
    when an output is already ineligible."""

    def test_scalar_output_resolves_codegen_without_partitioning(
        self, monkeypatch
    ):
        import repro.compiler.families as families

        def refuse(*args, **kwargs):
            raise AssertionError("partition_spec called")

        monkeypatch.setattr(families, "partition_spec", refuse)
        assert api.compile(seen_set()).engine_resolved == "codegen"

    @pytest.mark.parametrize("spec", [seen_set(), MIXED_FAMILIES])
    def test_diagnostics_match_eager_classification(self, spec):
        monitor = api.compile(spec)
        lazy = [
            d.to_dict() for d in monitor.diagnostics() if d.code == "VEC001"
        ]
        eager_cls = classify_vector(monitor.compiled.flat)
        eager_cls.verdicts  # build the families before anything else
        eager = [d.to_dict() for d in eager_cls.diagnostics()]
        assert lazy and lazy == eager

    @pytest.mark.parametrize(
        "text", [SCALAR_CHAIN, MIXED_FAMILIES], ids=["scalar", "mixed"]
    )
    def test_auto_engine_matches_eager_on_vector_specs(self, text):
        flat, cls = classify(text)
        assert cls.auto_engine == eager_auto_engine(classify_vector(flat))

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        spec=specifications(allow_delays=True),
        policy=st.sampled_from([None, ErrorPolicy.PROPAGATE]),
    )
    def test_auto_engine_matches_eager_on_generated_specs(self, spec, policy):
        flat = flatten(spec)
        check_types(flat)
        lazy = classify_vector(flat, error_policy=policy).auto_engine
        eager_cls = classify_vector(flat, error_policy=policy)
        assert lazy == eager_auto_engine(eager_cls)


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
