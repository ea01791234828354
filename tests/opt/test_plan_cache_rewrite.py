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
        # the rewritten plan really is the optimized one: fewer streams
        assert len(warm_rewritten.flat.definitions) < len(
            warm_plain.flat.definitions
        )

    def test_text_keyed_toggle(self, tmp_path):
        """The actual regression: identical text, different options."""
        cache = PlanCache(str(tmp_path))
        expected = reference_outputs(flat_of(), TRACE)

        plain = build_compiled_spec_from_text(SPEC_TEXT, plan_cache=cache)
        rewritten = build_compiled_spec_from_text(
            SPEC_TEXT, plan_cache=cache, rewrite=True
        )
        assert rewritten.plan_cache_hit is False
        assert len(rewritten.flat.definitions) < len(plain.flat.definitions)

        # warm round: each toggle hits its own entry, keeps its plan.
        # (a warm text hit rebuilds the monitor from the cached code
        # object; its lazy ``.flat`` re-parses the raw text, so the
        # generated source is the discriminator, not the flat spec)
        warm_plain = build_compiled_spec_from_text(
            SPEC_TEXT, plan_cache=cache
        )
        warm_rewritten = build_compiled_spec_from_text(
            SPEC_TEXT, plan_cache=cache, rewrite=True
        )
        assert warm_plain.plan_cache_hit is True
        assert warm_rewritten.plan_cache_hit is True
        assert "y2" in warm_plain.source
        assert "y2" not in warm_rewritten.source
        for compiled in (warm_plain, warm_rewritten):
            results = compiled.run_traces(TRACE)
            assert {
                n: s.events for n, s in results.items()
            } == expected
