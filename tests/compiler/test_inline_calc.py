"""Native in-place calc sections: inlined templates over bare collections.

A certified-mutable family whose lifts all have Python templates is
held as a bare ``set``/``dict``/``deque``/``list``, and ``_calc_rows``
inlines each lift's template instead of calling ``_f_<stream>``.
Persistent, guarded and error-policy compiles keep the calls; metrics
compiles keep the calls over the same bare layout.  Every variant must
agree with the reference interpreter.
"""

import hashlib
import os
import random
from collections import deque

import pytest

from repro import api
from repro.compiler import build_compiled_spec, freeze
from repro.compiler.checkpoint import CheckpointManager
from repro.compiler.codegen import lift_modes
from repro.compiler.plancache import PlanCache, flat_fingerprint, plan_fingerprint
from repro.compiler.runtime import MonitorRunner
from repro.frontend import parse_spec
from repro.lang import check_types, flatten
from repro.lang.ast import Last, Lift, Merge, UnitExpr, Var
from repro.lang.builtins import REGISTRY, EventPattern, builtin, pointwise
from repro.lang.spec import Specification
from repro.lang.types import BOOL, INT, MapType, QueueType, SetType, VectorType
from repro.obs.metrics import MetricsRegistry
from repro.opt.rewrite import fuse_write_reads
from repro.speclib import seen_set
from repro.structures import (
    Backend,
    MutableMap,
    MutableQueue,
    MutableSet,
    MutableVector,
    persistent_set,
)
from repro.testing import crash_and_resume, reference_outputs

UNCERTIFIED = """\
in i1: Int
in i2: Int
def m := merge(y, set_empty(unit))
def yl := last(m, i1)
def y := set_add(yl, i1)
def yp := last(y, i2)
def s := set_add(yp, i2)
def n := set_size(s)
out n
"""

DB_TIME = """\
in db2: Int
in db3: Int
def tick := merge(db2, db3)
def m_m := merge(m, map_empty(unit))
def m_l := last(m_m, tick)
def tins := map_get_or(m_l, db3, db3 - db3)
def ok := slift(leq, time(db3) - tins, 60)
def m := map_put_if(m_l, db2, time(tick))
out ok
"""

QUEUE = """\
in i: Int
def q_m := merge(q, queue_empty(unit))
def q_l := last(q_m, i)
def q_e := queue_enq(q_l, i)
def n := queue_size(q_e)
def full := slift(gt, n, 3)
def q := queue_deq_if(q_e, full)
def f := queue_front_or(q, i)
out f, n
"""


def flat_of(spec):
    flat = flatten(spec)
    check_types(flat)
    return flat


def as_events(inputs):
    return sorted(
        ((ts, name, value) for name, trace in inputs.items() for ts, value in trace),
        key=lambda event: event[0],
    )


def run_frozen(compiled, events, mode):
    collected = {name: [] for name in compiled.monitor_class.OUTPUTS}
    runner = MonitorRunner(
        compiled, lambda n, t, v: collected[n].append((t, freeze(v)))
    )
    if mode == "push":
        for ts, name, value in events:
            runner.push(name, ts, value)
    else:
        runner.feed_batch(events)
    report = runner.finish()
    assert report.events_out == sum(len(v) for v in collected.values())
    return collected


def seen_set_trace(n=60, domain=7):
    return {"i": [(t, (t * 5) % domain) for t in range(1, n + 1)]}


class TestTemplates:
    def test_every_registered_builtin_has_a_template(self):
        assert [n for n, f in REGISTRY.items() if f.template is None] == []

    def test_bare_impl_is_built_once_per_process(self):
        func = builtin("set_toggle")
        assert func.bare_impl() is func.bare_impl()
        s = set()
        assert func.bare_impl()(s, 3) is s and s == {3}
        assert func.bare_impl()(s, 3) is s and s == set()

    @pytest.mark.parametrize(
        "name",
        sorted(
            name
            for name, func in REGISTRY.items()
            if any(t.is_complex for t in func.arg_types)
        ),
    )
    def test_template_matches_mutable_wrapper(self, name):
        """Same result, same exception and same final contents as the
        mutable wrapper, on random small states and arguments."""
        func = REGISTRY[name]
        kind = next(t for t in func.arg_types if t.is_complex)
        fill = {
            SetType: lambda c, v: c.add(v),
            MapType: lambda c, v: c.put(v, v * 7 % 5),
            QueueType: lambda c, v: c.enqueue(v),
            VectorType: lambda c, v: c.append(v),
        }[type(kind)]
        scalars = [True, False, -1, 0, 1, 2, 3, 4, 5]
        if func.pattern is not EventPattern.ALL:
            scalars.append(None)  # absent arguments reach non-strict lifts
        rng = random.Random(name)
        for _ in range(200):
            wrapper = {
                SetType: MutableSet, MapType: MutableMap,
                QueueType: MutableQueue, VectorType: MutableVector,
            }[type(kind)]()
            for _ in range(rng.randrange(6)):
                wrapper = fill(wrapper, rng.randrange(5))
            bare = _bare_copy(wrapper)
            args = [rng.choice(scalars) for _ in func.arg_types]
            outcomes = []
            for state in (wrapper, bare):
                call = [state if t.is_complex else a
                        for t, a in zip(func.arg_types, args)]
                impl = (
                    func.bare_impl() if state is bare
                    else func.bind(Backend.MUTABLE)
                )
                try:
                    outcomes.append((freeze(impl(*call)), None))
                except Exception as exc:  # noqa: BLE001 - compared below
                    outcomes.append((None, type(exc)))
            assert outcomes[0] == outcomes[1], (name, args)
            assert freeze(wrapper) == freeze(bare), (name, args)


def _bare_copy(wrapper):
    if isinstance(wrapper, MutableSet):
        return set(wrapper)
    if isinstance(wrapper, MutableMap):
        return dict(wrapper.items())
    if isinstance(wrapper, MutableQueue):
        return deque(wrapper)
    return list(wrapper)


class TestGeneratedSource:
    @pytest.mark.parametrize("spec", [seen_set(), UNCERTIFIED, DB_TIME, QUEUE],
                             ids=["seen_set", "uncertified", "db_time", "queue"])
    def test_default_compile_has_no_lift_call(self, spec):
        source = api.compile(spec).compiled.source
        assert "_f_" not in source

    @pytest.mark.parametrize(
        "options",
        [
            {"optimize": False},
            {"alias_guard": True},
            {"error_policy": "propagate"},
            {"backend_override": Backend.COPYING},
        ],
        ids=["persistent", "alias_guard", "error_policy", "copying"],
    )
    def test_other_compiles_keep_the_calls(self, options):
        for spec in (seen_set(), parse_spec(UNCERTIFIED)):
            source = build_compiled_spec(spec, **options).source
            assert "_f_" in source

    def test_metrics_compile_calls_over_the_bare_layout(self):
        plain = build_compiled_spec(seen_set())
        metered = build_compiled_spec(seen_set(), metrics=MetricsRegistry())
        assert "_f_seen(" in metered.source
        assert (
            plain.monitor_class.LAYOUT["bare"]
            == metered.monitor_class.LAYOUT["bare"]
        )
        monitor = metered.new_monitor()
        monitor.push("i", 1, 3)
        monitor.finish()
        assert type(monitor._last_seen_m) is set

    def test_lift_modes_follow_the_backends(self):
        flat = flat_of(seen_set())
        bare, inline = lift_modes(flat, lambda name: Backend.MUTABLE)
        assert {"_s0", "seen", "was"} <= bare
        assert {"seen", "was"} <= inline
        bare, inline = lift_modes(
            flat, lambda name: Backend.MUTABLE, calls_only=True
        )
        assert inline == frozenset() and "seen" in bare
        for backend in (Backend.PERSISTENT, Backend.GUARDED, Backend.COPYING):
            bare, inline = lift_modes(flat, lambda name: backend)
            assert bare == frozenset()
            assert "seen" not in inline and "was" not in inline
        # one persistent member keeps the whole family wrapped
        bare, inline = lift_modes(
            flat,
            lambda name: Backend.PERSISTENT if name == "seen_m" else Backend.MUTABLE,
        )
        assert bare == frozenset() and "seen" not in inline


def _set_with_reader(reader):
    """A certified set family read by *reader* (a lifted function)."""
    i = Var("i")
    return Specification(
        inputs={"i": INT},
        definitions={
            "m": Merge(Var("y"), Lift(builtin("set_empty"), (UnitExpr(),))),
            "yl": Last(Var("m"), i),
            "y": Lift(builtin("set_add"), (Var("yl"), i)),
            "r": Lift(reader, (Var("y"), i)),
        },
        outputs=["r"],
    )


class TestRepresentation:
    def test_adhoc_lift_keeps_family_wrapped(self):
        has = pointwise(
            "has_after", lambda s, x: x in s, (SetType(INT), INT), BOOL
        )
        spec = _set_with_reader(has)
        compiled = build_compiled_spec(spec)
        assert "y" in compiled.mutable_streams
        assert "_f_r(" in compiled.source and "_f_y(" in compiled.source
        inputs = seen_set_trace()
        monitor = compiled.new_monitor()
        for ts, name, value in as_events(inputs):
            monitor.push(name, ts, value)
        monitor.finish()
        assert type(monitor._last_m) is MutableSet
        reference = reference_outputs(spec, inputs)
        for mode in ("push", "feed_batch"):
            assert run_frozen(compiled, as_events(inputs), mode) == reference

    def test_builtin_reader_makes_family_bare(self):
        spec = _set_with_reader(builtin("set_contains"))
        compiled = build_compiled_spec(spec)
        assert "_f_" not in compiled.source
        monitor = compiled.new_monitor()
        monitor.push("i", 1, 4)
        monitor.finish()
        assert monitor._last_m == {4} and type(monitor._last_m) is set

    @pytest.mark.parametrize("flip", [False, True], ids=["bare_left", "bare_right"])
    def test_eq_between_bare_and_persistent_sets(self, flip):
        i = Var("i")
        pair = (Var("want"), Var("y")) if flip else (Var("y"), Var("want"))
        spec = Specification(
            inputs={"want": SetType(INT), "i": INT},
            definitions={
                "m": Merge(Var("y"), Lift(builtin("set_empty"), (UnitExpr(),))),
                "yl": Last(Var("m"), i),
                "y": Lift(builtin("set_add"), (Var("yl"), i)),
                "same": Lift(builtin("eq"), pair),
            },
            outputs=["same"],
        )
        compiled = build_compiled_spec(spec)
        assert "y" in compiled.mutable_streams
        # the persistent input keeps the call, bound to the bare template
        assert "_f_same(" in compiled.source
        assert "same" in compiled.monitor_class.LAYOUT["bare"]
        inputs = {
            "i": [(1, 1), (2, 2), (3, 2)],
            "want": [
                (1, persistent_set([1])),
                (2, persistent_set([1])),
                (3, persistent_set([1, 2])),
            ],
        }
        reference = reference_outputs(spec, inputs)
        assert reference["same"] == [(1, True), (2, False), (3, True)]
        for mode in ("push", "feed_batch"):
            assert run_frozen(compiled, as_events(inputs), mode) == reference

    def test_write_at_timestamp_zero_goes_through_calc0(self):
        spec = parse_spec(
            "in i: Int\n"
            "def w := set_add(set_empty(unit), i)\n"
            "def m := merge(y, w)\n"
            "def yl := last(m, i)\n"
            "def y := set_add(yl, i)\n"
            "def n := set_size(m)\n"
            "out n\n"
        )
        compiled = build_compiled_spec(spec)
        assert "v_w" not in compiled.source  # only fires at 0
        assert "w" in compiled.monitor_class.LAYOUT["bare"]
        inputs = {"i": [(0, 5), (1, 6), (2, 5), (4, 7)]}
        reference = reference_outputs(spec, inputs)
        assert reference["n"][0] == (0, 1)
        for mode in ("push", "feed_batch"):
            assert run_frozen(compiled, as_events(inputs), mode) == reference
        monitor = compiled.new_monitor()
        monitor.push("i", 0, 5)
        monitor.finish()
        assert monitor._last_m == {5} and type(monitor._last_m) is set

    def test_outputs_of_bare_families_are_builtin_collections(self):
        spec = parse_spec(
            "in i: Int\n"
            "def m := merge(y, set_empty(unit))\n"
            "def yl := last(m, i)\n"
            "def y := set_add(yl, i)\n"
            "out y\n"
        )
        seen = []
        build_compiled_spec(spec).new_monitor(
            lambda n, t, v: seen.append((type(v), freeze(v)))
        ).run_traces({"i": [(1, 1), (2, 2)]})
        assert seen == [(set, frozenset({1})), (set, frozenset({1, 2}))]


class TestCheckpoints:
    @pytest.mark.parametrize(
        "spec,events",
        [
            (seen_set(), [(t, "i", (t * 3) % 7) for t in range(1, 41)]),
            (
                DB_TIME,
                [
                    (t, "db2" if t % 3 else "db3", t // 2 if t % 3 else t // 3)
                    for t in range(1, 41)
                ],
            ),
            (QUEUE, [(t, "i", t % 5) for t in range(1, 41)]),
        ],
        ids=["set", "map", "queue"],
    )
    def test_resume_over_bare_state_equals_uninterrupted(
        self, tmp_path, spec, events
    ):
        if isinstance(spec, str):
            spec = parse_spec(spec)
        compiled = build_compiled_spec(spec)
        monitor = compiled.new_monitor()
        monitor.feed_batch(events[:10])
        bare_types = {
            type(getattr(monitor, attr))
            for attr in compiled.monitor_class.STATE
            if attr.startswith("_last_")
        }
        assert bare_types & {set, dict, deque}
        expected, recovered = crash_and_resume(
            compiled,
            events,
            crash_after=23,
            checkpoint_dir=str(tmp_path),
            checkpoint_every=5,
        )
        assert recovered == expected

    def test_checkpoint_under_the_old_option_tag_is_skipped(self, tmp_path):
        compiled = build_compiled_spec(seen_set())
        old_fingerprint = _parent_plan_key(compiled.flat)
        assert compiled.fingerprint == plan_fingerprint(compiled.flat)
        assert compiled.fingerprint != old_fingerprint
        old = CheckpointManager(str(tmp_path), fingerprint=old_fingerprint)
        runner = MonitorRunner(compiled)
        runner.feed([(1, "i", 1), (2, "i", 2), (3, "i", 1)])
        old.write(runner.monitor, 3, 2)
        resumed, meta = MonitorRunner.resume(compiled, str(tmp_path))
        assert meta is None

    def test_plan_cache_entry_under_the_old_option_tag_is_skipped(
        self, tmp_path
    ):
        text = (
            "in i: Int\ndef m := merge(y, set_empty(unit))\n"
            "def yl := last(m, i)\ndef y := set_add(yl, i)\n"
            "def s := set_contains(yl, i)\nout s\n"
        )
        warm_dir = str(tmp_path / "warm")
        api.compile(text, api.CompileOptions(plan_cache=warm_dir))
        flat, _ = fuse_write_reads(flat_of(parse_spec(text)))
        entry = PlanCache(warm_dir).load(plan_fingerprint(flat))
        assert entry is not None and entry.code is not None
        # the same entry, filed under both keys the parent gave it
        stale_dir = str(tmp_path / "stale")
        stale = PlanCache(stale_dir)
        stale.store(_parent_plan_key(flat), entry)
        stale.store(_parent_text_key(text), entry)
        assert len(os.listdir(stale_dir)) == 2
        warm = api.compile(text, api.CompileOptions(plan_cache=stale_dir))
        assert warm.compiled.plan_cache_hit is False
        assert "_f_" not in warm.compiled.source


#: The option tuple the parent keyed a default codegen compile with.
_PARENT_OPTIONS = (True, None, False, None, "codegen", False, 0, None)


def _parent_plan_key(flat):
    digest = hashlib.sha256()
    digest.update(flat_fingerprint(flat).encode())
    digest.update(repr(("opts-v3",) + _PARENT_OPTIONS).encode())
    return digest.hexdigest()


def _parent_text_key(text):
    digest = hashlib.sha256()
    digest.update(b"text-v1\n")
    digest.update(text.encode())
    digest.update(repr(("text-opts-v4",) + _PARENT_OPTIONS).encode())
    return digest.hexdigest()
