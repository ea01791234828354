"""Alias-closed stream families: membership, replication, fallbacks."""

import random

from repro import api
from repro.compiler.families import partition_spec
from repro.compiler.monitor import freeze
from repro.lang import INT, Specification, Var, flatten
from repro.lang.ast import Lift
from repro.lang.builtins import builtin
from repro.lang.compose import compose as composed
from repro.lang.compose import rename, substitute_inputs
from repro.lang.typecheck import check_types
from repro.lang.types import SetType
from repro.speclib import map_window, queue_window, seen_set


def family(prefix, factory, input_map=None):
    """A namespaced copy of a speclib property, optionally rewired."""
    spec = rename(factory(), prefix)
    if input_map:
        spec = substitute_inputs(spec, input_map)
    return spec


def plan_for(spec):
    flat = flatten(spec)
    check_types(flat)
    return flat, partition_spec(flat)


class TestSingleComponent:
    def test_single_family_is_one_partition(self):
        _, plan = plan_for(seen_set())
        assert len(plan) == 1

    def test_passthrough_output_is_one_partition(self):
        spec = Specification(
            {"i": INT},
            {"d": Lift(builtin("add"), (Var("i"), Var("i")))},
            ["i", "d"],
        )
        _, plan = plan_for(spec)
        assert len(plan) == 1
        assert plan.partitions[0].outputs == ("i", "d")


class TestMultiFamily:
    def test_two_families_split(self):
        spec = composed(
            family("a_", seen_set, {"i": "ia"}),
            family("b_", seen_set, {"i": "ib"}),
        )
        flat, plan = plan_for(spec)
        assert len(plan) == 2
        # Outputs split cleanly, one family each.
        assert plan.partitions[0].outputs == ("a_was",)
        assert plan.partitions[1].outputs == ("b_was",)
        # Each family lists only the inputs it reads.
        assert [p.inputs for p in plan.partitions] == [("ia",), ("ib",)]

    def test_shared_scalar_input_broadcasts(self):
        spec = composed(family("a_", seen_set), family("b_", seen_set))
        _, plan = plan_for(spec)
        assert len(plan) == 2
        assert [p.inputs for p in plan.partitions] == [("i",), ("i",)]

    def test_three_kinds_of_family(self):
        spec = composed(
            family("s_", seen_set, {"i": "i1"}),
            family("q_", lambda: queue_window(3), {"i": "i2"}),
            family("m_", lambda: map_window(4), {"i": "i3"}),
        )
        _, plan = plan_for(spec)
        assert len(plan) == 3
        outputs = [p.outputs for p in plan.partitions]
        assert all(len(o) >= 1 for o in outputs)

    def test_shared_unit_clock_is_replicated_not_glued(self):
        spec = composed(family("a_", seen_set), family("b_", seen_set))
        flat, plan = plan_for(spec)
        assert len(plan) == 2
        assert plan.replicated  # the synthetic unit stream
        for name in plan.replicated:
            assert not flat.types[name].is_complex
            assert name not in flat.outputs
            owners = [
                p.index for p in plan.partitions if name in p.streams
            ]
            assert len(owners) > 1

    def test_every_stream_is_covered(self):
        spec = composed(
            family("a_", seen_set, {"i": "ia"}),
            family("b_", lambda: queue_window(2), {"i": "ib"}),
        )
        flat, plan = plan_for(spec)
        covered = set()
        for partition in plan.partitions:
            covered.update(partition.streams)
        assert covered == set(flat.definitions)


class TestAliasClosure:
    def test_complex_input_consumers_colocate(self):
        # Two otherwise-independent reads of one Set-typed input: the
        # input value object is shared by reference, so both readers
        # must land in the same partition.
        spec = Specification(
            {"s": SetType(INT), "i": INT},
            {
                "r1": Lift(builtin("set_contains"), (Var("s"), Var("i"))),
                "r2": Lift(builtin("set_size"), (Var("s"),)),
            },
            ["r1", "r2"],
        )
        _, plan = plan_for(spec)
        assert len(plan) == 1

    def test_alias_classes_never_split(self):
        spec = composed(
            family("a_", seen_set, {"i": "ia"}),
            family("b_", lambda: map_window(3), {"i": "ib"}),
        )
        _, plan = plan_for(spec)
        membership = {}
        for partition in plan.partitions:
            for name in partition.streams:
                membership.setdefault(name, set()).add(partition.index)
        for alias_class in plan.alias_classes:
            owners = set()
            for name in alias_class:
                owners.update(membership[name])
            assert len(owners) == 1, f"alias class split: {alias_class}"


def _run(spec, events):
    out = []
    api.run(
        api.compile(spec),
        events,
        on_output=lambda name, ts, value: out.append(
            (name, ts, freeze(value))
        ),
    )
    return out


def _events(names, length, domain, seed):
    rng = random.Random(seed)
    events, t = [], 1
    for _ in range(length):
        events.append((t, rng.choice(names), rng.randrange(domain)))
        t += rng.randint(1, 3)
    return events


class TestFamilyIndependence:
    """A family computes the same outputs alone as inside the composition."""

    def check(self, parts, events):
        whole = composed(*parts)
        _, plan = plan_for(whole)
        assert len(plan) == len(parts)
        composed_out = _run(whole, events)
        assert composed_out
        for partition, part in zip(plan.partitions, parts):
            own = set(partition.outputs)
            alone_inputs = set(part.inputs)
            alone = _run(part, [e for e in events if e[1] in alone_inputs])
            assert [o for o in composed_out if o[0] in own] == alone

    def test_disjoint_input_families(self):
        parts = [
            family("s_", seen_set, {"i": "i1"}),
            family("q_", lambda: queue_window(3), {"i": "i2"}),
            family("m_", lambda: map_window(4), {"i": "i3"}),
        ]
        self.check(parts, _events(["i1", "i2", "i3"], 150, 9, seed=5))

    def test_shared_input_families(self):
        parts = [family("a_", seen_set), family("b_", seen_set)]
        self.check(parts, _events(["i"], 100, 6, seed=1))
