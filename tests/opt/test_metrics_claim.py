"""Metrics-backed claim: the optimizer never adds copies, and removes
some.

Runs the Figure 9/10 monitors (and the de-normalized fixtures) with
per-stream metrics on, compiled with and without ``rewrite=True``, and
compares the total ``copies_performed``: after optimization it must be
less than or equal to before on every spec, and **strictly lower** on
the deliberately de-normalized dead-writer fixture (whose second write
edge forces the whole family onto copying/persistent backends until
OPT005 removes it) and on a duplicate writer whose second set is also
observed by a ``last`` (which OPT008 cannot fuse; OPT001 removes it).
The duplicate-writer fixture's second write is only read, so the
default compile already fuses it away (OPT008).
"""

import pytest

from repro import api
from repro.bench.fig9 import SPECS, spec_for, trace_for
from repro.compiler import freeze
from repro.lang import INT, Last, Lift, Specification, Var
from repro.lang.builtins import builtin
from repro.speclib import DENORMALIZED
from repro.workloads import seen_set_trace

TRACE_LENGTH = 300
SIZE = 16


def copies_for(spec, inputs, rewrite):
    monitor = api.compile(
        spec, api.CompileOptions(optimize=True, rewrite=rewrite)
    )
    outputs = []
    report = api.run(
        monitor,
        inputs,
        api.RunOptions(metrics=True),
        on_output=lambda n, t, v: outputs.append((n, t, freeze(v))),
    )
    streams = (report.metrics or {}).get("streams", {})
    total = sum(stats["copies_performed"] for stats in streams.values())
    return total, outputs


class TestFig9Monitors:
    """Figure 9's three synthetic monitors (also the Fig. 10 subject —
    seen_set is the spec whose speedup Fig. 10 scales over trace
    length)."""

    @pytest.mark.parametrize("name", SPECS)
    def test_rewrite_never_adds_copies(self, name):
        spec = spec_for(name, SIZE)
        inputs = trace_for(name, SIZE, TRACE_LENGTH)
        before, out_before = copies_for(spec, inputs, rewrite=False)
        after, out_after = copies_for(spec, inputs, rewrite=True)
        assert out_after == out_before
        assert after <= before

    def test_fig10_scaling_traces_never_add_copies(self):
        spec = spec_for("seen_set", SIZE)
        for length in (50, 200, 800):
            inputs = seen_set_trace(length, SIZE, seed=0)
            before, out_before = copies_for(spec, inputs, rewrite=False)
            after, out_after = copies_for(spec, inputs, rewrite=True)
            assert out_after == out_before
            assert after <= before


def dup_writer_observed() -> Specification:
    """The dup-writer fixture whose second set ``y2`` is also observed
    by a ``last``: not only read, so write-then-read fusion leaves it,
    and its double write demotes the family until OPT001 merges ``y2``
    into ``y``."""
    spec = DENORMALIZED["dup_writer"]()
    definitions = dict(spec.definitions)
    definitions["y2l"] = Last(Var("y2"), Var("i"))
    definitions["t"] = Lift(builtin("set_size"), (Var("y2l"),))
    return Specification({"i": INT}, definitions, ["s", "t"])


class TestDenormalizedFixtures:
    @pytest.mark.parametrize("name", sorted(DENORMALIZED))
    def test_rewrite_never_adds_copies(self, name):
        inputs = {
            n: [(t, t % 7) for t in range(1, 80)]
            for n in DENORMALIZED[name]().inputs
        }
        before, out_before = copies_for(
            DENORMALIZED[name](), inputs, rewrite=False
        )
        after, out_after = copies_for(
            DENORMALIZED[name](), inputs, rewrite=True
        )
        assert out_after == out_before
        assert after <= before

    def test_dup_writer_copies_vanish_without_rewrite(self):
        """The double write's second writer ``y2`` is only read by
        ``set_contains``, so the default compile fuses it away (OPT008)
        and no copy is left for OPT001 to remove."""
        inputs = {"i": [(t, t % 7) for t in range(1, 80)]}
        before, out_before = copies_for(
            DENORMALIZED["dup_writer"](), inputs, rewrite=False
        )
        after, out_after = copies_for(
            DENORMALIZED["dup_writer"](), inputs, rewrite=True
        )
        assert out_after == out_before
        assert before == 0
        assert after == 0

    def test_observed_dup_writer_copies_strictly_drop(self):
        """OPT001's headline number: the double write forces copies; the
        rewrite merges the writers and the copies vanish entirely."""
        inputs = {"i": [(t, t % 7) for t in range(1, 80)]}
        before, out_before = copies_for(
            dup_writer_observed(), inputs, rewrite=False
        )
        after, out_after = copies_for(
            dup_writer_observed(), inputs, rewrite=True
        )
        assert out_after == out_before
        assert before > 0
        assert after == 0

    def test_dead_writer_copies_strictly_drop(self):
        inputs = {
            "i": [(t, t % 7) for t in range(1, 80, 2)],
            "j": [(t, t % 5) for t in range(2, 80, 2)],
        }
        before, _ = copies_for(
            DENORMALIZED["dead_writer"](), inputs, rewrite=False
        )
        after, _ = copies_for(
            DENORMALIZED["dead_writer"](), inputs, rewrite=True
        )
        assert before > 0
        assert after < before
