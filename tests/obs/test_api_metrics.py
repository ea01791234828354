"""Metrics plumbing through the api facade and the worker pool."""

import pytest

from repro import api
from repro.compiler.plancache import PlanCache
from repro.lang.compose import compose, rename, substitute_inputs
from repro.obs.export import to_prometheus
from repro.obs.metrics import DEFAULT_REGISTRY
from repro.speclib import seen_set


def seen_set_events(length=60, domain=8, stream="i"):
    return [(t, stream, t % domain) for t in range(1, length + 1)]


def composed_two_families():
    """Two disjoint seen-set families composed into one spec."""
    left = substitute_inputs(rename(seen_set(), "a_"), {"i": "a_i"})
    right = substitute_inputs(rename(seen_set(), "b_"), {"i": "b_i"})
    return compose(left, right)


class TestMonitorMetrics:
    def test_snapshot_exports_to_prometheus(self):
        monitor = api.compile(seen_set())
        api.run(monitor, seen_set_events(), api.RunOptions(metrics=True))
        text = to_prometheus(monitor.metrics())
        assert 'repro_inplace_updates_total{stream="seen"} 60' in text

    def test_metrics_in_report_dict(self):
        monitor = api.compile(seen_set())
        report = api.run(
            monitor, seen_set_events(), api.RunOptions(metrics=True)
        )
        assert report.as_dict()["metrics"]["streams"]["seen"][
            "inplace_updates"
        ] == 60


class TestPlanCacheCounters:
    def test_hits_and_misses_counted(self, tmp_path):
        DEFAULT_REGISTRY.enabled = True
        try:
            before = DEFAULT_REGISTRY.snapshot()["counters"]
            cache = PlanCache(str(tmp_path))
            api.compile(
                seen_set(), api.CompileOptions(plan_cache=cache)
            )
            api.compile(
                seen_set(), api.CompileOptions(plan_cache=cache)
            )
            after = DEFAULT_REGISTRY.snapshot()["counters"]
            assert (
                after.get("plan_cache.misses", 0)
                - before.get("plan_cache.misses", 0)
                >= 1
            )
            assert (
                after.get("plan_cache.hits", 0)
                - before.get("plan_cache.hits", 0)
                == 1
            )
            assert cache.hits == 1
        finally:
            DEFAULT_REGISTRY.enabled = False

    def test_disabled_default_registry_costs_nothing(self, tmp_path):
        before = DEFAULT_REGISTRY.snapshot()["counters"]
        cache = PlanCache(str(tmp_path))
        api.compile(seen_set(), api.CompileOptions(plan_cache=cache))
        assert DEFAULT_REGISTRY.snapshot()["counters"] == before


class TestComposedMetrics:
    def test_two_family_run_counts_each_stream(self):
        spec = composed_two_families()
        events = seen_set_events(40, stream="a_i") + [
            (t, "b_i", t % 5) for t in range(1, 41)
        ]
        events.sort(key=lambda e: e[0])
        monitor = api.compile(spec)
        report = api.run(monitor, events, api.RunOptions(metrics=True))
        streams = report.metrics["streams"]
        assert streams["a_seen"]["inplace_updates"] == 40
        assert streams["b_seen"]["inplace_updates"] == 40
        assert streams["a_seen"]["copies_performed"] == 0


class TestPoolMetrics:
    def test_run_many_merges_worker_snapshots(self):
        traces = [seen_set_events(25, domain=d + 3) for d in range(4)]
        result = api.run_many(
            api.compile(seen_set()),
            traces,
            api.RunOptions(jobs=2, metrics=True),
        )
        assert result.report.metrics["streams"]["seen"][
            "inplace_updates"
        ] == sum(len(t) for t in traces)
        assert result.report.metrics["streams"]["seen"][
            "copies_performed"
        ] == 0

    def test_run_many_sequential_fallback_also_counts(self):
        traces = [seen_set_events(10), seen_set_events(15)]
        result = api.run_many(
            api.compile(seen_set()),
            traces,
            api.RunOptions(jobs=1, metrics=True),
        )
        assert result.report.metrics["streams"]["seen"][
            "inplace_updates"
        ] == 25
