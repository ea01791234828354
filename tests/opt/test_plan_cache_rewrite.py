"""Regression: the rewrite flag and rule-set version key the plan cache.

Before this fix, toggling ``rewrite`` did not change the text-keyed
cache fingerprint — a warm ``build_compiled_spec_from_text`` call could
replay the *unoptimized* plan for a ``rewrite=True`` compilation (the
raw text is identical either way, so only the options tuple can tell
them apart).  The flat-keyed path is also covered: the rewrite runs
before fingerprinting there, but the flag still must be in the key so
a no-op rewrite (normalized spec) and a non-rewrite compile of the
same spec do not collide across rule-set versions.
"""

import pytest

from repro.compiler import build_compiled_spec
from repro.compiler.pipeline import build_compiled_spec_from_text
from repro.compiler.plancache import (
    PlanCache,
    plan_fingerprint,
    text_fingerprint,
)
from repro.lang import check_types, flatten
from repro.speclib import denorm_dup_writer
from repro.testing import reference_outputs

SPEC_TEXT = """
in i: Int
def m := merge(y, set_empty(unit))
def yl := last(m, i)
def y := set_add(yl, i)
def y2 := set_add(yl, i)
def s := set_contains(y2, i)
out s
"""

TRACE = {"i": [(1, 4), (2, 7), (3, 4), (5, 9)]}


def flat_of():
    flat = flatten(denorm_dup_writer())
    check_types(flat)
    return flat


def assert_plain_fused(flat):
    """The default compile fused ``y2`` into ``s`` (OPT008)."""
    assert "y2" not in flat.definitions
    assert str(flat.definitions["s"]) == (
        "lift(set_contains_after_add)(yl, i, i)"
    )


def assert_rewritten(flat):
    """The rewrite merged ``y2`` into ``y`` (OPT001)."""
    assert "y2" not in flat.definitions
    assert str(flat.definitions["s"]) == "lift(set_contains)(y, i)"


class TestFingerprints:
    def test_plan_fingerprint_differs_on_rewrite(self):
        flat = flat_of()
        assert plan_fingerprint(flat, rewrite=False) != plan_fingerprint(
            flat, rewrite=True
        )

    def test_text_fingerprint_differs_on_rewrite(self):
        assert text_fingerprint(SPEC_TEXT, rewrite=False) != text_fingerprint(
            SPEC_TEXT, rewrite=True
        )

    def test_ruleset_version_is_in_the_key(self, monkeypatch):
        import repro.opt as opt

        flat = flat_of()
        current = plan_fingerprint(flat, rewrite=True)
        monkeypatch.setattr(opt, "RULESET_VERSION", opt.RULESET_VERSION + 1)
        assert plan_fingerprint(flat, rewrite=True) != current
        # ...but only when the rewrite actually runs
        without = text_fingerprint(SPEC_TEXT, rewrite=False)
        monkeypatch.setattr(opt, "RULESET_VERSION", opt.RULESET_VERSION + 1)
        assert text_fingerprint(SPEC_TEXT, rewrite=False) == without


class TestSharedCacheNeverStale:
    def test_flat_keyed_toggle(self, tmp_path):
        cache = PlanCache(str(tmp_path))
        expected = reference_outputs(flat_of(), TRACE)

        plain = build_compiled_spec(flat_of(), plan_cache=cache)
        assert plain.plan_cache_hit is False
        rewritten = build_compiled_spec(
            flat_of(), plan_cache=cache, rewrite=True
        )
        assert rewritten.plan_cache_hit is False  # distinct key, no reuse
        assert rewritten.fingerprint != plain.fingerprint

        for compiled in (plain, rewritten):
            results = compiled.run_traces(TRACE)
            assert {
                n: s.events for n, s in results.items()
            } == expected

    def test_flat_keyed_warm_hits_stay_separate(self, tmp_path):
        cache = PlanCache(str(tmp_path))
        build_compiled_spec(flat_of(), plan_cache=cache)
        build_compiled_spec(flat_of(), plan_cache=cache, rewrite=True)

        warm_plain = build_compiled_spec(flat_of(), plan_cache=cache)
        warm_rewritten = build_compiled_spec(
            flat_of(), plan_cache=cache, rewrite=True
        )
        assert warm_plain.plan_cache_hit is True
        assert warm_rewritten.plan_cache_hit is True
        # each plan is its own: both drop ``y2``, the default compile by
        # fusing it into its reader ``s`` (OPT008), the rewrite by
        # merging it into ``y`` (OPT001)
        assert_plain_fused(warm_plain.flat)
        assert_rewritten(warm_rewritten.flat)

    def test_text_keyed_toggle(self, tmp_path):
        """The actual regression: identical text, different options."""
        cache = PlanCache(str(tmp_path))
        expected = reference_outputs(flat_of(), TRACE)

        plain = build_compiled_spec_from_text(SPEC_TEXT, plan_cache=cache)
        rewritten = build_compiled_spec_from_text(
            SPEC_TEXT, plan_cache=cache, rewrite=True
        )
        assert rewritten.plan_cache_hit is False
        assert_plain_fused(plain.flat)
        assert_rewritten(rewritten.flat)

        # warm round: each toggle hits its own entry, keeps its plan.
        # (a warm text hit rebuilds the monitor from the cached code
        # object; its lazy ``.flat`` re-parses the raw text and applies
        # the same passes, so both the source and the flat spec tell
        # the plans apart)
        warm_plain = build_compiled_spec_from_text(
            SPEC_TEXT, plan_cache=cache
        )
        warm_rewritten = build_compiled_spec_from_text(
            SPEC_TEXT, plan_cache=cache, rewrite=True
        )
        assert warm_plain.plan_cache_hit is True
        assert warm_rewritten.plan_cache_hit is True
        assert "v_s = (v_i == v_i or v_i in v_yl)" in warm_plain.source
        assert "v_s = (v_i in v_y)" in warm_rewritten.source
        assert_plain_fused(warm_plain.flat)
        assert_rewritten(warm_rewritten.flat)
        for compiled in (warm_plain, warm_rewritten):
            results = compiled.run_traces(TRACE)
            assert {
                n: s.events for n, s in results.items()
            } == expected
