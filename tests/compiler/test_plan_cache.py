"""The on-disk compiled-plan cache.

Hits must be observable (``CompiledSpec.plan_cache_hit``, RunReport),
corrupt entries must degrade to misses, and every result-shaping
option must be part of the key — two compilations differing in any of
them never share a plan (nor a checkpoint fingerprint).
"""

import json
import os

import pytest

from repro.compiler import build_compiled_spec
from repro.compiler.monitor import collecting_callback
from repro.compiler.plancache import (
    CachedPlan,
    PlanCache,
    flat_fingerprint,
    plan_fingerprint,
)
from repro.errors import ErrorPolicy
from repro.lang import flatten
from repro.speclib import fig1_spec, map_window, seen_set
from repro.structures import Backend


class TestFingerprints:
    def test_content_sensitivity(self):
        assert flat_fingerprint(flatten(seen_set())) == flat_fingerprint(
            flatten(seen_set())
        )
        assert flat_fingerprint(flatten(seen_set())) != flat_fingerprint(
            flatten(fig1_spec())
        )

    def test_parameter_sensitivity(self):
        # Same stream names, different constants → different plans.
        assert flat_fingerprint(flatten(map_window(3))) != flat_fingerprint(
            flatten(map_window(4))
        )

    @pytest.mark.parametrize(
        "options",
        [
            {"optimize": False},
            {"backend_override": Backend.COPYING},
            {"alias_guard": True},
            {"error_policy": ErrorPolicy.PROPAGATE},
            {"engine": "vector"},
        ],
        ids=lambda o: next(iter(o)),
    )
    def test_every_option_shapes_the_key(self, options):
        flat = flatten(seen_set())
        assert plan_fingerprint(flat) != plan_fingerprint(flat, **options)

    def test_compiled_spec_carries_fingerprint(self):
        compiled = build_compiled_spec(seen_set())
        assert compiled.fingerprint == plan_fingerprint(compiled.flat)
        guarded = build_compiled_spec(seen_set(), alias_guard=True)
        assert guarded.fingerprint != compiled.fingerprint


class TestCacheRoundtrip:
    def test_miss_then_hit(self, tmp_path):
        cache = PlanCache(str(tmp_path))
        cold = build_compiled_spec(seen_set(), plan_cache=cache)
        assert cold.plan_cache_hit is False
        assert cache.misses == 1 and cache.hits == 0
        warm = build_compiled_spec(seen_set(), plan_cache=cache)
        assert warm.plan_cache_hit is True
        assert cache.hits == 1
        assert warm.order == cold.order
        assert warm.backends == cold.backends
        assert warm.optimized == cold.optimized

    def test_no_cache_means_unknown(self):
        assert build_compiled_spec(seen_set()).plan_cache_hit is None

    def test_directory_path_accepted(self, tmp_path):
        cold = build_compiled_spec(seen_set(), plan_cache=str(tmp_path))
        warm = build_compiled_spec(seen_set(), plan_cache=str(tmp_path))
        assert (cold.plan_cache_hit, warm.plan_cache_hit) == (False, True)

    def test_warm_compilation_runs_identically(self, tmp_path):
        events = [(t, "i", t % 5) for t in range(1, 60)]
        outputs = []
        for _ in range(2):
            compiled = build_compiled_spec(
                seen_set(), plan_cache=str(tmp_path)
            )
            on_output, collected = collecting_callback()
            monitor = compiled.new_monitor(on_output)
            for ts, name, value in events:
                monitor.push(name, ts, value)
            monitor.finish()
            outputs.append(collected)
        assert outputs[0] == outputs[1]

    def test_mutable_streams_restored_on_hit(self, tmp_path):
        cold = build_compiled_spec(seen_set(), plan_cache=str(tmp_path))
        warm = build_compiled_spec(seen_set(), plan_cache=str(tmp_path))
        assert warm.analysis is None  # the analysis really was skipped
        assert warm.mutable_streams == cold.analysis.mutable

    def test_alias_guard_applied_after_cache(self, tmp_path):
        # The cache stores pre-guard backends; a guarded compilation
        # must still come out guarded on a hit.
        build_compiled_spec(
            seen_set(), alias_guard=True, plan_cache=str(tmp_path)
        )
        warm = build_compiled_spec(
            seen_set(), alias_guard=True, plan_cache=str(tmp_path)
        )
        assert warm.plan_cache_hit is True
        assert Backend.GUARDED in warm.backends.values()
        assert Backend.MUTABLE not in warm.backends.values()

    def test_options_do_not_cross_hit(self, tmp_path):
        build_compiled_spec(seen_set(), plan_cache=str(tmp_path))
        other = build_compiled_spec(
            seen_set(), optimize=False, plan_cache=str(tmp_path)
        )
        assert other.plan_cache_hit is False
        assert Backend.MUTABLE not in other.backends.values()


def read_entry(path):
    """(header dict, payload bytes) of a cache entry file."""
    with open(path, "rb") as handle:
        head, _, payload = handle.read().partition(b"\n")
    return json.loads(head), payload


def write_entry(path, header, payload=b""):
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode() + b"\n" + payload)


class TestCacheRobustness:
    def _prime(self, tmp_path):
        cache = PlanCache(str(tmp_path))
        build_compiled_spec(seen_set(), plan_cache=cache)
        [entry] = cache.entries()
        return cache, entry

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache, entry = self._prime(tmp_path)
        with open(entry, "w") as handle:
            handle.write('{"version": 1, "key"')
        again = build_compiled_spec(seen_set(), plan_cache=cache)
        assert again.plan_cache_hit is False

    def test_wrong_key_is_a_miss(self, tmp_path):
        cache, entry = self._prime(tmp_path)
        data, payload = read_entry(entry)
        data["key"] = "0" * 64
        write_entry(entry, data, payload)
        assert (
            build_compiled_spec(seen_set(), plan_cache=cache).plan_cache_hit
            is False
        )

    def test_stale_version_is_a_miss(self, tmp_path):
        cache, entry = self._prime(tmp_path)
        data, payload = read_entry(entry)
        data["version"] = 0
        write_entry(entry, data, payload)
        assert (
            build_compiled_spec(seen_set(), plan_cache=cache).plan_cache_hit
            is False
        )

    def test_bad_backend_name_is_a_miss(self, tmp_path):
        cache, entry = self._prime(tmp_path)
        data, payload = read_entry(entry)
        data["backends"] = {k: "NOPE" for k in data["backends"]}
        write_entry(entry, data, payload)
        assert (
            build_compiled_spec(seen_set(), plan_cache=cache).plan_cache_hit
            is False
        )

    def test_miss_after_corruption_rewrites_entry(self, tmp_path):
        cache, entry = self._prime(tmp_path)
        with open(entry, "w") as handle:
            handle.write("garbage")
        build_compiled_spec(seen_set(), plan_cache=cache)
        assert (
            build_compiled_spec(seen_set(), plan_cache=cache).plan_cache_hit
            is True
        )

    def test_store_is_atomic(self, tmp_path):
        cache = PlanCache(str(tmp_path))
        key = plan_fingerprint(flatten(seen_set()))
        path = cache.store(
            key,
            CachedPlan(
                order=("a",), backends={}, optimized=True, mutable=frozenset()
            ),
        )
        assert os.path.exists(path)
        assert not [
            n for n in os.listdir(str(tmp_path)) if ".tmp." in n
        ]

    def test_clear(self, tmp_path):
        cache, _entry = self._prime(tmp_path)
        assert cache.clear() == 1
        assert cache.entries() == []


class TestCheckpointIsolation:
    def test_checkpoints_do_not_cross_options(self, tmp_path):
        """A monitor never resumes from a checkpoint written under
        different compile options (the fingerprint small-fix)."""
        from repro.compiler.runtime import MonitorRunner

        events = [(t, "i", t % 4) for t in range(1, 30)]
        plain = build_compiled_spec(seen_set())
        runner = MonitorRunner(
            plain, checkpoint_dir=str(tmp_path), checkpoint_every=5
        )
        runner.feed(events)
        assert runner.report.checkpoints_written > 0

        guarded = build_compiled_spec(seen_set(), alias_guard=True)
        resumed, meta = MonitorRunner.resume(guarded, str(tmp_path))
        assert meta is None  # different fingerprint → fresh start


SEEN_SET_TEXT = """\
in i: Int

def m  := merge(y, set_empty(unit))
def yl := last(m, i)
def y  := set_add(yl, i)
def s  := set_contains(yl, i)

out s
"""


class TestTextKeyedFastPath:
    """``api.compile(text)`` + plan cache: warm hits skip the frontend."""

    def _events(self, length=60, seed=7):
        import random

        rng = random.Random(seed)
        return [(t, "i", rng.randrange(6)) for t in range(1, length + 1)]

    def _outputs(self, monitor, events, **run_kwargs):
        from repro import api

        collected = []
        api.run(
            monitor,
            events,
            api.RunOptions(**run_kwargs) if run_kwargs else None,
            on_output=lambda n, t, v: collected.append((n, t, v)),
        )
        return collected

    def test_warm_hit_defers_parsing(self, tmp_path):
        # Deferred parsing is the *codegen* text fast path (the cached
        # source/code pair replaces the frontend); the default
        # engine="auto" must classify the flat spec, so it is pinned
        # explicitly here.
        from repro import api
        from repro.compiler.pipeline import _LazyFlat

        opts = api.CompileOptions(
            engine="codegen", plan_cache=str(tmp_path)
        )
        api.compile(SEEN_SET_TEXT, opts)
        warm = api.compile(SEEN_SET_TEXT, opts)
        assert warm.plan_cache_hit is True
        lazy = warm.compiled.flat
        assert isinstance(lazy, _LazyFlat)
        assert lazy._flat is None  # nothing forced the parse yet
        # Forcing through attribute access still works.
        assert set(lazy.inputs) == {"i"}
        assert lazy._flat is not None

    def test_warm_outputs_identical(self, tmp_path):
        from repro import api

        events = self._events()
        cold = api.compile(
            SEEN_SET_TEXT, api.CompileOptions(plan_cache=str(tmp_path))
        )
        warm = api.compile(
            SEEN_SET_TEXT, api.CompileOptions(plan_cache=str(tmp_path))
        )
        assert (cold.plan_cache_hit, warm.plan_cache_hit) == (False, True)
        assert self._outputs(warm, events, batch_size=16) == self._outputs(
            cold, events
        )

    def test_checkpoint_fingerprint_shared_with_cold(self, tmp_path):
        from repro import api

        cold = api.compile(
            SEEN_SET_TEXT, api.CompileOptions(plan_cache=str(tmp_path))
        )
        warm = api.compile(
            SEEN_SET_TEXT, api.CompileOptions(plan_cache=str(tmp_path))
        )
        assert warm.fingerprint == cold.fingerprint

    def test_text_options_do_not_cross_hit(self, tmp_path):
        from repro import api

        api.compile(
            SEEN_SET_TEXT, api.CompileOptions(plan_cache=str(tmp_path))
        )
        other = api.compile(
            SEEN_SET_TEXT,
            api.CompileOptions(plan_cache=str(tmp_path), optimize=False),
        )
        assert other.plan_cache_hit is False

    def test_alias_guard_through_text_path(self, tmp_path):
        from repro import api

        opts = api.CompileOptions(
            plan_cache=str(tmp_path), alias_guard=True
        )
        api.compile(SEEN_SET_TEXT, opts)
        warm = api.compile(SEEN_SET_TEXT, opts)
        assert warm.plan_cache_hit is True
        assert Backend.GUARDED in warm.compiled.backends.values()
        assert Backend.MUTABLE not in warm.compiled.backends.values()

    def test_error_policy_through_text_path(self, tmp_path):
        from repro import api

        events = self._events()
        opts = api.CompileOptions(
            plan_cache=str(tmp_path), error_policy="propagate"
        )
        cold = api.compile(SEEN_SET_TEXT, opts)
        warm = api.compile(SEEN_SET_TEXT, opts)
        assert warm.plan_cache_hit is True
        assert self._outputs(warm, events) == self._outputs(cold, events)

    def test_validate_inputs_forces_lazy_parse(self, tmp_path):
        from repro import api

        api.compile(
            SEEN_SET_TEXT, api.CompileOptions(plan_cache=str(tmp_path))
        )
        warm = api.compile(
            SEEN_SET_TEXT, api.CompileOptions(plan_cache=str(tmp_path))
        )
        _, = {warm.plan_cache_hit}
        from repro.compiler.runtime import MonitorError

        with pytest.raises(MonitorError, match="invalid value"):
            api.run(
                warm,
                [(1, "i", 1), (2, "i", "oops")],
                api.RunOptions(validate_inputs=True),
            )

    def test_corrupt_text_entry_falls_back(self, tmp_path):
        from repro import api
        from repro.compiler.plancache import text_fingerprint

        cache = PlanCache(str(tmp_path))
        api.compile(SEEN_SET_TEXT, api.CompileOptions(plan_cache=cache))
        key = text_fingerprint(SEEN_SET_TEXT, engine="auto")
        assert os.path.exists(cache.path_for(key))
        with open(cache.path_for(key), "w") as handle:
            handle.write("garbage")
        events = self._events()
        again = api.compile(
            SEEN_SET_TEXT, api.CompileOptions(plan_cache=cache)
        )
        assert self._outputs(again, events) == self._outputs(
            api.compile(SEEN_SET_TEXT), events
        )

    def test_recipe_rejects_unknown_builtin(self):
        from repro.compiler.codegen import monitor_class_from_recipe

        assert (
            monitor_class_from_recipe(
                {"y": "no_such_builtin"}, {}, "", b"garbage", {}
            )
            is None
        )
        assert (
            monitor_class_from_recipe(
                {"y": ["const", [1], "Int"]}, {}, "", b"garbage", {}
            )
            is None
        )


class TestCachedCodeObjects:
    """Flat-keyed entries carry the generated module (.pyc-style)."""

    def test_warm_hit_reuses_generated_source(self, tmp_path):
        cold = build_compiled_spec(seen_set(), plan_cache=str(tmp_path))
        warm = build_compiled_spec(seen_set(), plan_cache=str(tmp_path))
        assert warm.plan_cache_hit is True
        assert warm.source == cold.source

    def test_corrupt_code_payload_is_plan_only_hit(self, tmp_path):
        cache = PlanCache(str(tmp_path))
        build_compiled_spec(seen_set(), plan_cache=cache)
        [entry] = cache.entries()
        data, payload = read_entry(entry)
        write_entry(entry, data, b"!" * len(payload))
        warm = build_compiled_spec(seen_set(), plan_cache=cache)
        # Still a hit (the plan part is intact), and the class was
        # regenerated from source instead of the broken payload.
        assert warm.plan_cache_hit is True
        monitor = warm.new_monitor()
        monitor.push("i", 1, 5)
        monitor.finish()

    def test_wrong_magic_ignores_code_payload(self, tmp_path):
        cache = PlanCache(str(tmp_path))
        build_compiled_spec(seen_set(), plan_cache=cache)
        [entry] = cache.entries()
        data, payload = read_entry(entry)
        data["magic"] = "00000000"
        write_entry(entry, data, payload)
        warm = build_compiled_spec(seen_set(), plan_cache=cache)
        assert warm.plan_cache_hit is True
        assert "def _calc_rows(self, rows," in warm.source

    def test_class_name_applies_to_cached_code(self, tmp_path):
        cold = build_compiled_spec(seen_set(), plan_cache=str(tmp_path))
        other = build_compiled_spec(
            seen_set(), plan_cache=str(tmp_path), class_name="SeenSetMonitor"
        )
        assert other.plan_cache_hit is True
        assert other.monitor_class.__name__ == "SeenSetMonitor"
        assert other.source == cold.source


class TestEntryFormat:
    """One file per entry: a JSON header line, then raw source + marshal."""

    def test_payload_is_raw_marshal(self, tmp_path):
        import marshal
        import types

        cache = PlanCache(str(tmp_path))
        cold = build_compiled_spec(seen_set(), plan_cache=cache)
        [entry] = cache.entries()
        header, payload = read_entry(entry)
        assert header["engine"] == "codegen"
        source_len, code_len = header["source_len"], header["code_len"]
        assert len(payload) == source_len + code_len
        assert payload[:source_len].decode() == cold.source
        assert isinstance(marshal.loads(payload[source_len:]), types.CodeType)
        assert "code" not in header and "source" not in header

    def test_text_key_shares_the_flat_entry(self, tmp_path):
        from repro import api

        cache = PlanCache(str(tmp_path))
        api.compile(SEEN_SET_TEXT, api.CompileOptions(plan_cache=cache))
        first, second = cache.entries()
        # One write: the text-keyed name is a hard link to the entry.
        assert os.path.samefile(first, second)
        assert read_entry(first)[0]["alias"]

    def test_alias_is_copied_without_hard_links(self, tmp_path, monkeypatch):
        from repro import api

        def no_links(*args, **kwargs):
            raise OSError("hard links not supported")

        monkeypatch.setattr(os, "link", no_links)
        cache = PlanCache(str(tmp_path))
        opts = api.CompileOptions(plan_cache=cache)
        api.compile(SEEN_SET_TEXT, opts)
        first, second = cache.entries()
        assert not os.path.samefile(first, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
        assert api.compile(SEEN_SET_TEXT, opts).plan_cache_hit is True

    def test_entry_without_layout_is_plan_only(self, tmp_path):
        cache = PlanCache(str(tmp_path))
        build_compiled_spec(seen_set(), plan_cache=cache)
        [entry] = cache.entries()
        data, payload = read_entry(entry)
        del data["layout"]
        write_entry(entry, data, payload)
        warm = build_compiled_spec(seen_set(), plan_cache=cache)
        assert warm.plan_cache_hit is True
        assert cache.load(data["key"]).code is None

    def test_missing_directory_is_created_by_store(self, tmp_path):
        cache = PlanCache(str(tmp_path / "a" / "b"))
        assert cache.load("0" * 64) is None
        cold = build_compiled_spec(seen_set(), plan_cache=cache)
        assert cold.plan_cache_hit is False
        assert len(cache.entries()) == 1


def _fail_parse(monkeypatch):
    import repro.frontend

    def refuse(text):
        raise AssertionError("parse_spec called on a warm text hit")

    monkeypatch.setattr(repro.frontend, "parse_spec", refuse)


#: The paper's Table I DBTimeConstraint: its ``60`` literal is a const lift.
FLEET_TEXT = """\
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


def _db_time_events(seed, length=300):
    """Inserts into db2, then into db3 after a random delay."""
    import random

    rng = random.Random(seed)
    events, ts = [], 0
    for record in range(length):
        ts += rng.randint(1, 5)
        events.append((ts, "db2", record))
        ts += rng.randint(1, 90)
        events.append((ts, "db3", record))
    return events


class TestAutoTextPath:
    """Default options (``engine="auto"``) take the text-keyed path."""

    def _outputs(self, monitor, events):
        from repro import api

        collected = []
        api.run(
            monitor,
            events,
            api.RunOptions(batch_size=64),
            on_output=lambda n, t, v: collected.append((n, t, v)),
        )
        return collected

    def test_warm_auto_compile_skips_the_frontend(self, tmp_path, monkeypatch):
        from repro import api

        events = [(t, "i", t % 7) for t in range(1, 80)]
        opts = api.CompileOptions(plan_cache=str(tmp_path))
        cold = api.compile(SEEN_SET_TEXT, opts)
        assert cold.engine_resolved == "codegen"
        _fail_parse(monkeypatch)
        warm = api.compile(SEEN_SET_TEXT, opts)
        assert warm.plan_cache_hit is True
        assert (warm.engine_requested, warm.engine_resolved) == (
            "auto",
            "codegen",
        )
        assert warm.fingerprint == cold.fingerprint
        assert self._outputs(warm, events) == self._outputs(cold, events)
        monkeypatch.undo()
        assert [d.code for d in warm.diagnostics()] == [
            d.code for d in cold.diagnostics()
        ]

    def test_warm_vector_compile_skips_the_frontend(self, tmp_path, monkeypatch):
        pytest.importorskip("numpy")
        from repro import api

        events = [(t, "i", t % 7) for t in range(1, 80)]
        opts = api.CompileOptions(plan_cache=str(tmp_path), engine="vector")
        cold = api.compile(SEEN_SET_TEXT, opts)
        assert cold.engine_resolved == "codegen"
        _fail_parse(monkeypatch)
        warm = api.compile(SEEN_SET_TEXT, opts)
        assert warm.plan_cache_hit is True
        assert (warm.engine_requested, warm.engine_resolved) == (
            "vector",
            "codegen",
        )
        assert self._outputs(warm, events) == self._outputs(cold, events)
        monkeypatch.undo()
        cold_diags = [(d.code, d.stream, d.message) for d in cold.diagnostics()]
        assert any(code == "VEC001" for code, _, _ in cold_diags)
        assert [
            (d.code, d.stream, d.message) for d in warm.diagnostics()
        ] == cold_diags

    def test_const_lifts_take_the_text_path(self, tmp_path, monkeypatch):
        from repro import api
        from repro.compiler.codegen import lift_recipe

        cold = api.compile(
            FLEET_TEXT, api.CompileOptions(plan_cache=str(tmp_path))
        )
        recipe = lift_recipe(cold.compiled.flat)
        assert ["const", 60, "Int"] in recipe.values()
        _fail_parse(monkeypatch)
        warm = api.compile(
            FLEET_TEXT, api.CompileOptions(plan_cache=str(tmp_path))
        )
        assert warm.plan_cache_hit is True
        for seed in (1, 2):
            events = _db_time_events(seed)
            assert self._outputs(warm, events) == self._outputs(cold, events)

    def test_non_literal_const_has_no_recipe(self):
        from repro.compiler.codegen import lift_recipe
        from repro.lang import Const, INT, Lift, Specification, Var
        from repro.lang.builtins import builtin

        spec = Specification(
            inputs={"i": INT},
            definitions={"x": Lift(builtin("add"), (Var("i"), Const(2)))},
            outputs=["x"],
        )
        flat = flatten(spec)
        assert lift_recipe(flat) is not None
        const = next(
            e.func for e in flat.definitions.values()
            if getattr(e, "func", None) is not None and e.func.constant
        )
        const.constant = ((1, 2), const.constant[1])
        assert lift_recipe(flat) is None

    def test_vector_resolving_spec_compiles_warm(self, tmp_path):
        pytest.importorskip("numpy")
        from repro import api

        text = "in i: Int\ndef prev := last(i, i)\ndef d := sub(i, prev)\nout d\n"
        opts = api.CompileOptions(plan_cache=str(tmp_path))
        cold = api.compile(text, opts)
        warm = api.compile(text, opts)
        assert cold.engine_resolved == warm.engine_resolved == "vector"
        assert warm.plan_cache_hit is True
        events = [(t, "i", t * t % 11) for t in range(1, 50)]
        assert self._outputs(warm, events) == self._outputs(cold, events)
