"""``RunReport.events_out`` is counted by the engines' own emitters.

The runner hands the caller's callback to the monitor unwrapped; the
generated ``_calc_rows``, codegen's ``_calc0`` and the vector engine's
emitters count outputs in a local and write it back however the call
ends.  The count must equal the number of callback invocations on every
ingestion path, including timestamp 0, delays and ``finish``, and a
callback that raises on the k-th output leaves it at k.  Checkpoints
record it as ``outputs_emitted``, which ``--resume`` reads back.
"""

import pytest

from repro import api
from repro.compiler import kernels
from repro.compiler.monitor import MonitorError
from repro.compiler.runtime import MonitorRunner
from repro.speclib import watchdog

SCALAR = """\
in a: Int
in b: Int
def prev := last(a, a)
def d := sub(a, prev)
def s := add(d, b)
def t := time(a)
out d, s, t
"""

needs_numpy = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy not installed"
)

ENGINES = ["codegen", pytest.param("vector", marks=needs_numpy)]


def dense(n=40, start=0):
    ts = list(range(start, start + n))
    return ts, {"a": [t * 7 % 11 for t in ts], "b": [t % 5 for t in ts]}


def rows(ts, cols):
    return [(t, name, cols[name][k]) for k, t in enumerate(ts) for name in cols]


def runner_for(engine, spec=SCALAR, on_output=None):
    monitor = api.compile(spec, api.CompileOptions(engine=engine))
    assert monitor.engine_resolved == engine
    return MonitorRunner(monitor.compiled, on_output)


def feed(runner, mode, ts, cols):
    if mode == "push":
        for t, name, value in rows(ts, cols):
            runner.push(name, t, value)
    elif mode == "feed_batch":
        runner.feed_batch(rows(ts, cols))
    else:
        runner.feed_columns(ts, cols)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("mode", ["push", "feed_batch", "feed_columns"])
@pytest.mark.parametrize("start", [0, 1], ids=["from_t0", "from_t1"])
def test_count_equals_callback_invocations(engine, mode, start):
    calls = []
    runner = runner_for(engine, on_output=lambda n, t, v: calls.append((n, t)))
    ts, cols = dense(start=start)
    feed(runner, mode, ts[:25], {k: v[:25] for k, v in cols.items()})
    assert runner.report.events_out == len(calls)
    feed(runner, mode, ts[25:], {k: v[25:] for k, v in cols.items()})
    before_finish = len(calls)
    report = runner.finish()
    assert len(calls) > before_finish  # the pending timestamp emits at finish
    assert report.events_out == len(calls)
    assert (("t", 0) in calls) == (start == 0)


@pytest.mark.parametrize("engine", ENGINES)
def test_count_without_a_callback(engine):
    runner = runner_for(engine)
    ts, cols = dense()
    runner.feed_batch(rows(ts, cols))
    report = runner.finish()
    counted = []
    reference = runner_for(engine, on_output=lambda *e: counted.append(e))
    reference.feed_batch(rows(ts, cols))
    reference.finish()
    assert report.events_out == len(counted) > 0


@pytest.mark.parametrize("mode", ["push", "feed_batch"])
def test_delays_and_finish_are_counted(mode):
    calls = []
    runner = runner_for(
        "codegen", watchdog(5), lambda n, t, v: calls.append((n, t))
    )
    events = [(t, "hb", ()) for t in (0, 2, 3, 11, 12, 30)]
    if mode == "push":
        for t, name, value in events:
            runner.push(name, t, value)
    else:
        runner.feed_batch(events)
    report = runner.finish(end_time=60)
    # alarms fire at delay timestamps only, the last one at finish
    assert [ts for _, ts in calls] == [8, 17, 35]
    assert report.events_out == 3


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("mode", ["push", "feed_batch", "feed_columns"])
def test_raising_callback_leaves_count_at_k(engine, mode):
    class Boom(Exception):
        pass

    calls = []

    def on_output(name, ts, value):
        calls.append(name)
        if len(calls) == 3:
            raise Boom

    runner = runner_for(engine, on_output=on_output)
    ts, cols = dense(start=1)
    with pytest.raises(Boom):
        feed(runner, mode, ts, cols)
        runner.finish()
    assert runner.report.events_out == 3
    if mode != "push":
        # the batch was consumed mid-calculation: the monitor stops
        with pytest.raises(MonitorError, match="raised Boom"):
            runner.feed_batch([(100, "a", 1)])


SUM = """\
in x: Int
in y: Int
def s := x + y
out s
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_raising_calculation_stops_the_monitor(engine):
    class Boom(Exception):
        pass

    calls = []

    def on_output(name, ts, value):
        calls.append(ts)
        if len(calls) == 3:
            raise Boom

    runner = runner_for(engine, spec=SUM, on_output=on_output)
    events = [(t, name, t) for t in range(1, 80) for name in ("x", "y")]
    with pytest.raises(Boom):
        runner.feed_batch(events)
    with pytest.raises(
        MonitorError, match=r"feed_batch\(\) after feed_batch\(\) raised Boom"
    ):
        runner.feed_batch([(100, "x", 1), (100, "y", 2)])
    with pytest.raises(MonitorError, match="raised Boom"):
        runner.finish()


