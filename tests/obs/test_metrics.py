"""Unit tests for the metrics registry and snapshot algebra."""

import pytest

from repro.lang.builtins import builtin
from repro.obs.metrics import (
    DEFAULT_REGISTRY,
    MetricsRegistry,
    StreamStats,
    diff_snapshots,
    instrument_lift,
    merge_snapshots,
)


class TestRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        reg.inc("b")
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 5, "b": 1}

    def test_gauge_keeps_latest(self):
        reg = MetricsRegistry()
        reg.gauge("g", 1.0)
        reg.gauge("g", 7.5)
        assert reg.snapshot()["gauges"] == {"g": 7.5}

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for v in (3.0, 1.0, 2.0):
            reg.observe("h", v)
        h = reg.snapshot()["histograms"]["h"]
        assert h == {"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0}

    def test_disabled_registry_is_noop_for_scalars(self):
        reg = MetricsRegistry(enabled=False)
        reg.inc("a")
        reg.gauge("g", 1.0)
        reg.observe("h", 1.0)
        snap = reg.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_stream_cell_created_on_first_use(self):
        reg = MetricsRegistry()
        stats = reg.stream("y")
        assert isinstance(stats, StreamStats)
        assert reg.stream("y") is stats
        stats.copies_performed += 2
        stats.inplace_updates += 1
        assert reg.snapshot()["streams"]["y"] == {
            "copies_performed": 2,
            "inplace_updates": 1,
        }

    def test_default_registry_starts_disabled(self):
        assert DEFAULT_REGISTRY.enabled is False

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        reg.inc("a")
        snap = reg.snapshot()
        reg.inc("a")
        assert snap["counters"]["a"] == 1


class TestSnapshotAlgebra:
    def _snap(self, **counters):
        reg = MetricsRegistry()
        for name, value in counters.items():
            reg.inc(name, value)
        return reg.snapshot()

    def test_diff_subtracts_counters_and_streams(self):
        reg = MetricsRegistry()
        reg.inc("c", 3)
        reg.stream("y").copies_performed += 1
        before = reg.snapshot()
        reg.inc("c", 2)
        reg.stream("y").copies_performed += 4
        reg.stream("y").inplace_updates += 5
        delta = diff_snapshots(before, reg.snapshot())
        assert delta["counters"]["c"] == 2
        assert delta["streams"]["y"] == {
            "copies_performed": 4,
            "inplace_updates": 5,
        }

    def test_merge_sums_counters(self):
        merged = merge_snapshots(self._snap(a=1, b=2), self._snap(a=5))
        assert merged["counters"] == {"a": 6, "b": 2}

    def test_merge_none_tolerant(self):
        snap = self._snap(a=1)
        assert merge_snapshots(None, snap)["counters"] == {"a": 1}
        assert merge_snapshots(snap, None)["counters"] == {"a": 1}

    def test_merge_commutative(self):
        a, b = self._snap(x=1, y=2), self._snap(x=3, z=4)
        assert merge_snapshots(a, b) == merge_snapshots(b, a)

    def test_merge_associative(self):
        a, b, c = self._snap(x=1), self._snap(x=2, y=1), self._snap(y=5)
        assert merge_snapshots(merge_snapshots(a, b), c) == merge_snapshots(
            a, merge_snapshots(b, c)
        )

    def test_merge_histograms_combine_extremes(self):
        ra, rb = MetricsRegistry(), MetricsRegistry()
        ra.observe("h", 1.0)
        ra.observe("h", 9.0)
        rb.observe("h", 4.0)
        merged = merge_snapshots(ra.snapshot(), rb.snapshot())
        assert merged["histograms"]["h"] == {
            "count": 3,
            "sum": 14.0,
            "min": 1.0,
            "max": 9.0,
        }

    def test_merge_does_not_mutate_inputs(self):
        a, b = self._snap(x=1), self._snap(x=2)
        merge_snapshots(a, b)
        assert a["counters"]["x"] == 1
        assert b["counters"]["x"] == 2


class TestInstrumentLift:
    """Classification rules, isolated from any compiled monitor."""

    def _wrap(self, impl, registry, name="set_add", stream="y", in_place=False):
        return instrument_lift(impl, builtin(name), stream, registry, in_place)

    def test_in_place_counted_by_backend_not_identity(self):
        # Guarded backends mutate shared storage but return a NEW
        # handle object: identity comparison would misclassify them.
        reg = MetricsRegistry()
        wrapped = self._wrap(lambda s, v: object(), reg, in_place=True)
        wrapped(object(), 1)
        stats = reg.snapshot()["streams"]["y"]
        assert stats == {"copies_performed": 0, "inplace_updates": 1}

    def test_copy_counted_when_result_is_new_object(self):
        reg = MetricsRegistry()
        wrapped = self._wrap(lambda s, v: object(), reg)
        wrapped(object(), 1)
        stats = reg.snapshot()["streams"]["y"]
        assert stats == {"copies_performed": 1, "inplace_updates": 0}

    def test_persistent_noop_counts_as_neither(self):
        reg = MetricsRegistry()
        wrapped = self._wrap(lambda s, v: s, reg)
        wrapped(object(), 1)
        stats = reg.snapshot()["streams"]["y"]
        assert stats == {"copies_performed": 0, "inplace_updates": 0}

    def test_lift_without_write_access_returned_unwrapped(self):
        reg = MetricsRegistry()
        impl = lambda s, v: True  # noqa: E731
        wrapped = instrument_lift(impl, builtin("set_contains"), "y", reg, False)
        assert wrapped is impl

    def test_wrapped_result_passes_through(self):
        reg = MetricsRegistry()
        sentinel = object()
        wrapped = self._wrap(lambda s, v: sentinel, reg, in_place=True)
        assert wrapped(set(), 1) is sentinel

    def test_stream_cell_eagerly_registered(self):
        # Streams that never fire still show up (as 0/0) in profile
        # tables, so "no copies" is distinguishable from "not tracked".
        reg = MetricsRegistry()
        self._wrap(lambda s, v: s, reg, stream="quiet")
        assert reg.snapshot()["streams"]["quiet"] == {
            "copies_performed": 0,
            "inplace_updates": 0,
        }
