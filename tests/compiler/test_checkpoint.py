"""Tests for monitor checkpoint/restore (state snapshot isolation)."""

import pytest

from repro.compiler import collecting_callback, build_compiled_spec
from repro.compiler.kernels import numpy_available
from repro.speclib import (
    db_access_constraint,
    fig1_spec,
    map_window,
    queue_window,
    seen_set,
    vector_window,
    watchdog,
)
from repro.structures.clone import clone_value
from repro.structures import (
    MutableMap,
    MutableQueue,
    MutableSet,
    MutableVector,
    PersistentSet,
)


class TestCloneValue:
    def test_mutable_collections_duplicated(self):
        original = MutableSet([1, 2])
        cloned = clone_value(original)
        assert cloned == original and cloned is not original
        original.add(3)
        assert 3 not in cloned

    def test_all_mutable_kinds(self):
        assert list(clone_value(MutableQueue([1, 2]))) == [1, 2]
        assert dict(clone_value(MutableMap([("a", 1)])).items()) == {"a": 1}
        assert list(clone_value(MutableVector([5]))) == [5]

    def test_immutables_shared(self):
        value = PersistentSet().add(1)
        assert clone_value(value) is value
        assert clone_value(42) == 42
        assert clone_value("x") == "x"


def run_events(monitor, events, collected, finish=False):
    for ts, value in events:
        monitor.push("i", ts, value)
    if finish:
        monitor.finish()
    return list(collected.get(list(monitor.OUTPUTS)[0], []))


@pytest.mark.parametrize(
    "factory,optimize",
    [
        (fig1_spec, True),
        (fig1_spec, False),
        (seen_set, True),
        (lambda: queue_window(3), True),
    ],
    ids=["fig1-opt", "fig1-nonopt", "seen_set-opt", "queue-opt"],
)
class TestCheckpointResume:
    def test_restore_replays_identically(self, factory, optimize):
        trace = [(t, t * 3 % 7) for t in range(1, 30)]
        head, tail = trace[:15], trace[15:]

        compiled = build_compiled_spec(factory(), optimize=optimize)
        on_output, collected = collecting_callback()
        monitor = compiled.new_monitor(on_output)
        run_events(monitor, head, collected)
        checkpoint = monitor.snapshot()

        # continue to the end: the baseline result
        run_events(monitor, tail, collected)
        monitor.finish()
        full = dict(collected)

        # restore into a FRESH monitor and replay the tail
        on_output2, collected2 = collecting_callback()
        monitor2 = compiled.new_monitor(on_output2)
        monitor2.restore(checkpoint)
        run_events(monitor2, tail, collected2)
        monitor2.finish()

        out = list(full)[0]
        # the snapshot still holds the PENDING (unflushed) last head
        # timestamp, so the resumed monitor re-emits it before the tail
        expected_tail = [e for e in full[out] if e[0] >= head[-1][0]]
        assert collected2[out] == expected_tail

    def test_checkpoint_isolated_from_live_updates(self, factory, optimize):
        trace = [(t, t % 5) for t in range(1, 25)]
        compiled = build_compiled_spec(factory(), optimize=optimize)
        on_output, collected = collecting_callback()
        monitor = compiled.new_monitor(on_output)
        run_events(monitor, trace[:10], collected)
        checkpoint = monitor.snapshot()
        frozen = {
            k: (dict(v) if isinstance(v, dict) else v)
            for k, v in checkpoint.items()
        }
        run_events(monitor, trace[10:], collected)
        monitor.finish()
        # the checkpoint must be unchanged by the continued run
        monitor3 = compiled.new_monitor()
        monitor3.restore(checkpoint)
        for key, value in frozen.items():
            restored = getattr(monitor3, key)
            if isinstance(value, dict):
                assert dict(restored) == value
            else:
                assert restored == value


@pytest.mark.parametrize(
    "factory",
    [
        seen_set,                    # set aggregate
        lambda: map_window(5),       # map aggregate
        lambda: queue_window(4),     # queue aggregate
        lambda: vector_window(4),    # vector aggregate
    ],
    ids=["set", "map", "queue", "vector"],
)
@pytest.mark.parametrize(
    "optimize", [True, False], ids=["mutable", "persistent"]
)
class TestSnapshotEveryAggregateKind:
    """Snapshot/restore round-trips for each aggregate kind, in both
    the mutable (optimized) and persistent (baseline) families."""

    def test_snapshot_restore_then_continue(self, factory, optimize):
        trace = [(t, (t * 5) % 9) for t in range(1, 40)]
        head, tail = trace[:20], trace[20:]
        compiled = build_compiled_spec(factory(), optimize=optimize)

        on_output, collected = collecting_callback()
        monitor = compiled.new_monitor(on_output)
        run_events(monitor, head, collected)
        snapshot = monitor.snapshot()
        run_events(monitor, tail, collected)
        monitor.finish()
        out = list(monitor.OUTPUTS)[0]
        full = list(collected[out])

        on2, collected2 = collecting_callback()
        fresh = compiled.new_monitor(on2)
        fresh.restore(snapshot)
        run_events(fresh, tail, collected2)
        fresh.finish()
        # the snapshot holds the pending (unflushed) head timestamp, so
        # the resumed monitor re-emits from there
        expected = [e for e in full if e[0] >= head[-1][0]]
        assert collected2[out] == expected

    def test_snapshot_isolated_from_later_mutation(self, factory, optimize):
        trace = [(t, t % 4) for t in range(1, 30)]
        compiled = build_compiled_spec(factory(), optimize=optimize)
        on_output, collected = collecting_callback()
        monitor = compiled.new_monitor(on_output)
        run_events(monitor, trace[:12], collected)
        snapshot = monitor.snapshot()

        on_ref, collected_ref = collecting_callback()
        reference = compiled.new_monitor(on_ref)
        reference.restore(snapshot)

        # keep mutating the live monitor; the snapshot must not move
        run_events(monitor, trace[12:], collected)
        monitor.finish()

        on2, collected2 = collecting_callback()
        later = compiled.new_monitor(on2)
        later.restore(snapshot)
        run_events(reference, trace[12:], collected_ref)
        run_events(later, trace[12:], collected2)
        reference.finish()
        later.finish()
        out = list(monitor.OUTPUTS)[0]
        assert collected2[out] == collected_ref[out]


class TestCheckpointOtherEngines:
    @pytest.mark.parametrize(
        "engine", ["vector"] if numpy_available() else []
    )
    def test_pending_event_reemitted(self, engine):
        compiled = build_compiled_spec(seen_set(), engine=engine)
        on_output, collected = collecting_callback()
        monitor = compiled.new_monitor(on_output)
        monitor.push("i", 1, 4)
        checkpoint = monitor.snapshot()
        monitor.push("i", 2, 4)
        monitor.finish()
        assert collected["was"] == [(1, False), (2, True)]

        on2, col2 = collecting_callback()
        fresh = compiled.new_monitor(on2)
        fresh.restore(checkpoint)
        fresh.push("i", 2, 4)
        fresh.finish()
        # the checkpoint includes the pending t=1 event, re-emitted first
        assert col2["was"] == [(1, False), (2, True)]

    def test_delay_state_restored(self):
        compiled = build_compiled_spec(watchdog(10))
        on_output, collected = collecting_callback()
        monitor = compiled.new_monitor(on_output)
        monitor.push("hb", 1, 0)
        monitor.push("hb", 5, 0)  # arms the alarm for t=15
        checkpoint = monitor.snapshot()

        on2, col2 = collecting_callback()
        fresh = compiled.new_monitor(on2)
        fresh.restore(checkpoint)
        fresh.finish()
        assert col2["alarm_at"] == [(15, 15)]

    def test_multi_input_state(self):
        compiled = build_compiled_spec(db_access_constraint())
        on_output, collected = collecting_callback()
        monitor = compiled.new_monitor(on_output)
        monitor.push("ins", 1, 5)
        monitor.push("ins", 2, 6)
        checkpoint = monitor.snapshot()

        on2, col2 = collecting_callback()
        fresh = compiled.new_monitor(on2)
        fresh.restore(checkpoint)
        fresh.push("acc", 3, 5)
        fresh.push("acc", 4, 99)
        fresh.finish()
        assert col2["ok"] == [(3, True), (4, False)]


class TestCrossEngineResume:
    """Snapshots are engine-specific.  The resolved engine is part of
    the checkpoint fingerprint, so a resume under another engine skips
    the foreign checkpoint and starts fresh."""

    def test_auto_skips_checkpoint_of_plan_resolved_auto(self, tmp_path):
        """``auto`` used to resolve scalar specs to the since-removed
        ``plan`` engine.  A checkpoint such a run wrote carries the
        ``engine="plan"`` fingerprint and the plan's slot-array state,
        so resuming under today's ``auto`` skips it and starts fresh
        instead of misreading that state."""
        from repro import api
        from repro.compiler.checkpoint import (
            checkpoint_path,
            list_checkpoints,
            write_checkpoint,
        )
        from repro.compiler.plancache import plan_fingerprint

        events = [(t, "i", t % 5) for t in range(1, 60)]
        auto = api.compile(seen_set())
        assert auto.engine_resolved == "codegen"
        older_auto = plan_fingerprint(auto.compiled.flat, engine="plan")
        assert auto.fingerprint != older_auto

        directory = str(tmp_path)
        n_slots = len(auto.compiled.flat.streams)
        write_checkpoint(
            checkpoint_path(directory, 40),
            {
                "_pending_ts": 40,
                "_done_ts": 39,
                "_finished": False,
                "_values": [None] * n_slots,
                "_last_cells": [None],
                "_next_cells": [],
                "_in_i": 0,
            },
            {
                "events_consumed": 40,
                "outputs_emitted": 40,
                "fingerprint": older_auto,
            },
        )
        assert list_checkpoints(directory)

        metas, resumed, fresh = [], [], []
        report = api.run(
            auto,
            events,
            api.RunOptions(checkpoint_dir=directory, resume=True),
            on_output=lambda *event: resumed.append(event),
            on_resume=metas.append,
        )
        api.run(auto, events, on_output=lambda *event: fresh.append(event))
        assert metas == [None]
        assert report.resumed_from is None
        assert resumed and resumed == fresh
