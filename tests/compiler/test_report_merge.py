"""RunReport.merge as a fold: commutative-ish, and above all associative.

The worker pool folds per-trace reports in whatever order they
complete, so ``(a + b) + c`` and ``a + (b + c)`` must agree on every
field — including the awkward non-counter ones:
``plan_cache_hit`` (tri-state) and ``resumed_from`` (string identity,
with ambiguity latched in ``resume_conflict``).
"""

import dataclasses
import itertools

import pytest

from repro.compiler.runtime import RunReport


def fold_left(reports):
    acc = dataclasses.replace(reports[0])
    for report in reports[1:]:
        acc.merge(dataclasses.replace(report))
    return acc


def fold_right(reports):
    acc = dataclasses.replace(reports[-1])
    for report in reversed(reports[:-1]):
        other = dataclasses.replace(report)
        acc = other.merge(acc)
    return acc


def observable(report):
    return report.as_dict()


class TestCounters:
    def test_counters_sum(self):
        a = RunReport(events_in=3, events_out=1, lift_errors=1)
        b = RunReport(events_in=4, events_out=2)
        a.merge(b)
        assert a.events_in == 7
        assert a.events_out == 3
        assert a.lift_errors == 1

    def test_three_way_associative(self):
        reports = [
            RunReport(events_in=1, batches=2),
            RunReport(events_in=10, invalid_inputs=3),
            RunReport(events_out=5, batches=1),
        ]
        assert observable(fold_left(reports)) == observable(
            fold_right(reports)
        )


class TestSupervisionCounters:
    """The supervised pool's retry/restart/quarantine counters are
    plain counters: they must sum and stay associative like the rest."""

    def test_supervision_counters_sum(self):
        a = RunReport(retries=2, worker_restarts=1)
        b = RunReport(retries=1, traces_quarantined=1)
        a.merge(b)
        assert a.retries == 3
        assert a.worker_restarts == 1
        assert a.traces_quarantined == 1

    def test_three_way_associative(self):
        reports = [
            RunReport(retries=1, worker_restarts=2),
            RunReport(traces_quarantined=1, retries=4),
            RunReport(worker_restarts=1, events_in=9),
        ]
        assert observable(fold_left(reports)) == observable(
            fold_right(reports)
        )

    def test_counters_appear_in_as_dict(self):
        report = RunReport(retries=5, worker_restarts=2, traces_quarantined=1)
        as_dict = report.as_dict()
        assert as_dict["retries"] == 5
        assert as_dict["worker_restarts"] == 2
        assert as_dict["traces_quarantined"] == 1

    @pytest.mark.parametrize(
        "values",
        list(itertools.product([0, 1, 3], repeat=3)),
        ids=lambda v: "-".join(str(x) for x in v),
    )
    def test_all_triples_associative_with_tri_state_neighbors(self, values):
        # The awkward interaction: supervision counters folding next to
        # the tri-state plan_cache_hit must not depend on fold order.
        tri_states = [None, True, False]
        reports = [
            RunReport(retries=v, plan_cache_hit=tri_states[i])
            for i, v in enumerate(values)
        ]
        assert observable(fold_left(reports)) == observable(
            fold_right(reports)
        )


class TestPlanCacheHit:
    @pytest.mark.parametrize(
        "values",
        list(itertools.product([None, True, False], repeat=3)),
        ids=lambda v: "-".join(str(x) for x in v),
    )
    def test_all_tri_state_triples_associative(self, values):
        reports = [RunReport(plan_cache_hit=v) for v in values]
        left = fold_left(reports)
        right = fold_right(reports)
        assert left.plan_cache_hit == right.plan_cache_hit

    def test_conflict_resolves_to_false(self):
        a = RunReport(plan_cache_hit=True)
        a.merge(RunReport(plan_cache_hit=False))
        assert a.plan_cache_hit is False

    def test_none_means_not_consulted(self):
        a = RunReport(plan_cache_hit=None)
        a.merge(RunReport(plan_cache_hit=True))
        assert a.plan_cache_hit is True


class TestResumedFrom:
    @pytest.mark.parametrize(
        "values",
        list(itertools.product([None, "x", "y"], repeat=3)),
        ids=lambda v: "-".join(str(x) for x in v),
    )
    def test_all_triples_associative(self, values):
        reports = [RunReport(resumed_from=v) for v in values]
        left = fold_left(reports)
        right = fold_right(reports)
        assert left.resumed_from == right.resumed_from
        assert left.resume_conflict == right.resume_conflict

    def test_agreeing_checkpoints_kept(self):
        a = RunReport(resumed_from="ckpt-7")
        a.merge(RunReport(resumed_from="ckpt-7"))
        assert a.resumed_from == "ckpt-7"
        assert a.resume_conflict is False

    def test_disagreement_latches_conflict(self):
        # The regression shape: x, x, y.  A naive first-wins merge
        # reports "x" or "y" depending on fold order; the latched
        # conflict makes both orders agree on (None, conflict).
        reports = [
            RunReport(resumed_from="x"),
            RunReport(resumed_from="x"),
            RunReport(resumed_from="y"),
        ]
        left = fold_left(reports)
        right = fold_right(reports)
        assert left.resumed_from is None
        assert right.resumed_from is None
        assert left.resume_conflict and right.resume_conflict

    def test_conflict_is_sticky(self):
        a = RunReport(resumed_from="x")
        a.merge(RunReport(resumed_from="y"))
        a.merge(RunReport(resumed_from="x"))
        assert a.resumed_from is None
        assert a.resume_conflict is True


class TestMetricsMerge:
    def _with_metrics(self, **counters):
        return RunReport(
            metrics={
                "counters": dict(counters),
                "gauges": {},
                "histograms": {},
                "streams": {},
            }
        )

    def test_three_way_associative(self):
        reports = [
            self._with_metrics(a=1),
            self._with_metrics(a=2, b=1),
            self._with_metrics(b=4),
        ]
        assert fold_left(reports).metrics == fold_right(reports).metrics

    def test_none_side_preserved(self):
        a = RunReport()
        a.merge(self._with_metrics(a=3))
        assert a.metrics["counters"] == {"a": 3}
        b = self._with_metrics(a=3)
        b.merge(RunReport())
        assert b.metrics["counters"] == {"a": 3}
