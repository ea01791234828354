"""The four benchmark workloads: spec text, seeded inputs, timed loops.

Every workload is homogeneous (one spec, one fixed batch size) and
closed-loop: a single caller thread feeds the next batch only after the
previous call returned, as fast as it can, like the paper's offline
trace runs.  Inputs come from the benchmark's own generators, seeded by
``--seed``; the program under test only ever sees the generated inputs.

A run replays one fixed input over and over (one *pass* per replay,
each on a fresh monitor) until its time is up, so the reference outputs
are computed once per run, outside the timed region, however long the
run measures.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Event = Tuple[int, str, Any]

# -- specifications -----------------------------------------------------------

#: The paper's Fig. 1 / Fig. 9 Seen Set: toggle membership, report
#: prior presence.  Every aggregate is certified mutable.
SEEN_SET_SPEC = """\
in i: Int
def seen_m := merge(seen, set_empty(unit))
def seen_l := last(seen_m, i)
def was := set_contains(seen_l, i)
def seen := set_toggle(seen_l, i)
out was
"""

#: The paper's Fig. 4 (lower): ``s`` modifies the set that ``last(y,
#: i2)`` reproduces, so the family must stay persistent.  Only the set
#: size is emitted, so output emission does not dominate.
UNCERTIFIED_SPEC = """\
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

#: A vector-eligible scalar alert chain (last/sub/add/gt/filter) plus a
#: running-sum prefix scan.  Alerts fire on about 1 % of rows.
ALERT_COLUMNS_SPEC = """\
in x: Int
in lim: Int
def p := last(x, x)
def d := x - p
def j := d + d
def hi := j > lim
def alert := filter(x, hi)
def h := last(s, x)
def k := h + x
def s := merge(k, x)
def total := filter(s, hi)
out alert, total
"""

#: The paper's Table I DBTimeConstraint: a db3 insert must follow the
#: db2 insert of the same record within 60 time units.  Map-typed,
#: certified mutable.
FLEET_SPEC = """\
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

# -- sizes (fixed: both sides of a comparison must run identical work) -------

SEEN_SET_EVENTS = 30_000
SEEN_SET_DOMAIN = 4_000  # toggling keeps the set near 2 000 elements
UNCERTIFIED_EVENTS = 30_000
UNCERTIFIED_DOMAIN = 4_000
TEXT_BATCH = 512
ALERT_ROWS = 30_000
ALERT_CHUNK = 4_096
ALERT_LIMIT = 1_718  # 2 * (x - last x) > 1718 on about 1 % of rows
FLEET_TRACES = 16
FLEET_PASS = 64  # traces per run_many call
FLEET_TRACE_EVENTS = 4_000
FLEET_JOBS = 2
FLEET_BATCH = 512


def _seen_set_text(seed: int) -> str:
    rng = random.Random(seed)
    return "".join(
        f"{ts}: i = {rng.randrange(SEEN_SET_DOMAIN)}\n"
        for ts in range(1, SEEN_SET_EVENTS + 1)
    )


def _uncertified_text(seed: int) -> str:
    """Two inputs at different rates; some timestamps carry both."""
    rng = random.Random(seed)
    lines: List[str] = []
    ts = 0
    while len(lines) < UNCERTIFIED_EVENTS:
        ts += 1
        if rng.random() < 0.7:
            lines.append(f"{ts}: i1 = {rng.randrange(UNCERTIFIED_DOMAIN)}\n")
        if rng.random() < 0.35:
            lines.append(f"{ts}: i2 = {rng.randrange(UNCERTIFIED_DOMAIN)}\n")
    return "".join(lines)


def _alert_columns(seed: int):
    import numpy as np

    rng = np.random.default_rng(seed)
    timestamps = np.arange(1, ALERT_ROWS + 1, dtype=np.int64)
    x = rng.integers(0, 1_000, ALERT_ROWS, dtype=np.int64)
    lim = np.full(ALERT_ROWS, ALERT_LIMIT, dtype=np.int64)
    return timestamps, {"x": x, "lim": lim}


def _db_time_trace(seed: int) -> List[Event]:
    """db2 inserts build the map; db3 inserts mostly hit a recent id."""
    rng = random.Random(seed)
    events: List[Event] = []
    recent: List[Tuple[int, int]] = []
    next_id = 0
    ts = 1
    for _ in range(FLEET_TRACE_EVENTS):
        if not recent or rng.random() < 0.6:
            next_id += 1
            events.append((ts, "db2", next_id))
            recent.append((ts, next_id))
            if len(recent) > 500:
                recent.pop(0)
        else:
            if rng.random() < 0.05:
                record = rng.choice(recent)[1] if rng.random() < 0.5 else 10**9
            else:
                fresh = [r for t, r in recent if ts - t <= 60]
                record = rng.choice(fresh) if fresh else recent[-1][1]
            events.append((ts, "db3", record))
        ts += rng.randint(1, 5)
    return events


# -- pass results and output checking ----------------------------------------


def quantile(samples: Sequence[float], q: float) -> float:
    """The *q*-quantile of *samples* (nearest rank, no interpolation)."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


#: Consecutive service times per latency window: p90 of a window has
#: ten samples beyond it.
LATENCY_WINDOW = 100


class Measured:
    """What a timed loop measured, plus what the correctness check needs.

    Statistics are medians of per-pass throughputs and of per-window
    latency quantiles: a shared host slows everything for seconds at a
    time, and a pooled percentile jumps to the slow mode once more than
    a tenth of the samples fall into such stretches.
    """

    def __init__(self) -> None:
        #: (events consumed, seconds) per completed pass.
        self.passes: List[Tuple[int, float]] = []
        #: Service time of each unit (batch, chunk or trace), in order.
        self.latencies: List[float] = []
        self.units_attempted = 0
        self.units_raised = 0
        #: Traceback of the first unit that raised.
        self.error: Optional[str] = None
        self.outputs = OutputStore()
        #: Resolved pool transport (fleet only).
        self.transport: Optional[str] = None
        self.first_result_s: Optional[float] = None

    def raised(self, error: str) -> None:
        self.units_attempted += 1
        self.units_raised += 1
        if self.error is None:
            self.error = error

    @property
    def seconds(self) -> float:
        return sum(seconds for _, seconds in self.passes)

    def events_per_s(self) -> float:
        return statistics.median(events / seconds for events, seconds in self.passes)

    def latency_ms(self, q: float) -> float:
        """Median over windows of LATENCY_WINDOW consecutive units of each
        window's *q*-quantile service time."""
        samples = self.latencies
        full = len(samples) - len(samples) % LATENCY_WINDOW
        windows = [
            samples[i : i + LATENCY_WINDOW] for i in range(0, full, LATENCY_WINDOW)
        ] or [samples]
        return statistics.median(quantile(w, q) for w in windows) * 1e3

    def pooled_latency_ms(self, q: float) -> float:
        return quantile(self.latencies, q) * 1e3


class OutputStore:
    """Keeps one output list per input key, plus any that differ from it.

    Passes over the same input must produce the same outputs, so after
    the first pass only a cheap list comparison runs; the reference
    check happens once, after the timed region.
    """

    def __init__(self) -> None:
        self.first: Dict[int, List[Event]] = {}
        self.repeats: Dict[int, int] = {}
        self.different: List[Tuple[int, List[Event]]] = []

    def add(self, key: int, outputs: List[Event]) -> None:
        first = self.first.get(key)
        if first is None:
            self.first[key] = outputs
            self.repeats[key] = 1
        elif outputs == first:
            self.repeats[key] += 1
        else:
            self.different.append((key, outputs))


def reference_outputs(spec: str, events: Sequence[Event]) -> Dict[str, list]:
    """Outputs of the reference interpreter, per output stream.

    ``semantics.interpreter`` shares no evaluation code with the
    compiler; it runs with its default ``max_steps`` on the whole input.
    """
    from repro.frontend.parser import parse_spec
    from repro.lang import flatten
    from repro.semantics.interpreter import interpret
    from repro.semantics.stream import Stream

    flat = flatten(parse_spec(spec))
    traces = per_stream([(name, ts, value) for ts, name, value in events], flat.inputs)
    results = interpret(flat, {name: Stream(evs) for name, evs in traces.items()})
    return {name: results[name].events for name in flat.outputs}


def per_stream(
    events: Sequence[Tuple[str, int, Any]], names: Sequence[str] = ()
) -> Dict[str, list]:
    """``(stream, ts, value)`` events grouped into per-stream
    ``(ts, value)`` lists; every name in *names* gets a list."""
    grouped: Dict[str, list] = {name: [] for name in names}
    for name, ts, value in events:
        grouped.setdefault(name, []).append((ts, value))
    return grouped


def mismatched_units(
    outputs: List[Event],
    reference: Dict[str, list],
    unit_bounds: Optional[List[int]],
) -> int:
    """Units whose outputs differ from the reference.

    *unit_bounds* holds each unit's last timestamp, ascending; a unit
    owns the outputs stamped after the previous unit's last timestamp
    up to its own.  ``None`` makes the whole input one unit.
    """
    got = per_stream(outputs, reference)
    if unit_bounds is None:
        return int(got != reference)
    if set(got) != set(reference):
        return len(unit_bounds)
    bad = set()
    for name, ref_events in reference.items():
        mine = got[name]
        ref_ts = [ts for ts, _ in ref_events]
        my_ts = [ts for ts, _ in mine]
        lo = -1
        for unit, hi in enumerate(unit_bounds):
            a, b = bisect.bisect_right(ref_ts, lo), bisect.bisect_right(ref_ts, hi)
            c, d = bisect.bisect_right(my_ts, lo), bisect.bisect_right(my_ts, hi)
            if ref_events[a:b] != mine[c:d]:
                bad.add(unit)
            lo = hi
        if my_ts and my_ts[-1] > lo:
            bad.add(len(unit_bounds) - 1)
    return len(bad)


# -- workloads ---------------------------------------------------------------


class Workload:
    """One benchmark workload: a spec, its generated inputs, its loop."""

    name = ""
    why = ""
    spec = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._references: Dict[int, Dict[str, list]] = {}

    def rows(self, key: int = 0) -> List[Event]:
        """Input *key* as ``(ts, stream, value)`` rows; only ``fleet``
        has more than one input."""
        raise NotImplementedError

    def input_values(self) -> List[int]:
        """The integer payloads of :meth:`rows`, in order."""
        return [value for _, _, value in self.rows()]

    def run(
        self, monitor: Any, seconds: float, spans: Any = None, **kw: Any
    ) -> Measured:
        raise NotImplementedError

    def failed_units(self, measured: Measured) -> int:
        """Units whose outputs differ from the reference or that raised."""
        failed = measured.units_raised
        bounds = self.unit_bounds()
        for key, outputs in measured.outputs.first.items():
            failed += measured.outputs.repeats[key] * mismatched_units(
                outputs, self.reference(key), bounds
            )
        for key, outputs in measured.outputs.different:
            failed += mismatched_units(outputs, self.reference(key), bounds)
        return failed

    def reference(self, key: int) -> Dict[str, list]:
        if key not in self._references:
            self._references[key] = reference_outputs(self.spec, self.rows(key))
        return self._references[key]

    def unit_bounds(self) -> Optional[List[int]]:
        """Each unit's last timestamp; ``None`` — one unit per input."""
        return None


class TextWorkload(Workload):
    """TeSSLa trace text → ``iter_trace_events`` → ``batch_events`` →
    ``MonitorRunner.feed_batch``, one timed batch at a time."""

    text = ""

    def rows(self, key: int = 0) -> List[Event]:
        from repro.semantics.traceio import iter_trace_events

        if not hasattr(self, "_rows"):
            self._rows = list(iter_trace_events(self.text))
        return self._rows

    def unit_bounds(self) -> List[int]:
        from repro.semantics.traceio import batch_events

        return [batch[-1][0] for batch in batch_events(self.rows(), TEXT_BATCH)]

    def run(self, monitor, seconds, spans=None, **kw):
        from repro.compiler.runtime import MonitorRunner
        from repro.semantics.traceio import batch_events, iter_trace_events

        measured = Measured()
        clock = time.perf_counter
        deadline = clock() + seconds
        while True:
            outputs: List[Event] = []
            emit = outputs.append
            runner = MonitorRunner(
                monitor.compiled, lambda n, t, v: emit((n, t, v))
            )
            latencies = measured.latencies
            batches = batch_events(iter_trace_events(self.text), TEXT_BATCH)
            events = 0
            start = clock()
            try:
                while True:
                    if spans is None:
                        t0 = clock()
                        batch = next(batches, None)
                        if batch is None:
                            break
                        events += runner.feed_batch(batch)
                        latencies.append(clock() - t0)
                    else:
                        root = spans.begin("batch")
                        t0 = clock()
                        child = spans.begin("traceio.ingest")
                        batch = next(batches, None)
                        spans.end(child)
                        if batch is None:
                            spans.end(root)
                            break
                        child = spans.begin("runtime.feed_batch")
                        events += runner.feed_batch(batch)
                        spans.end(child)
                        latencies.append(clock() - t0)
                        spans.end(root)
                    measured.units_attempted += 1
                runner.finish()
            except Exception:
                measured.raised(traceback.format_exc())
                if spans is not None:
                    spans.reset_stack()
                if clock() >= deadline:
                    break
                continue
            measured.passes.append((events, clock() - start))
            measured.outputs.add(0, outputs)
            if clock() >= deadline:
                break
        return measured


class SeenSet(TextWorkload):
    name = "seen_set"
    why = (
        "the paper's Fig. 1/9/10 anchor: every aggregate certified mutable,"
        " auto resolves to plan; scalar loop, mutable set and traceio do the work"
    )
    spec = SEEN_SET_SPEC

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.text = _seen_set_text(seed)


class Uncertified(TextWorkload):
    name = "uncertified"
    why = (
        "Fig. 4 (lower), multi-clocked i1/i2: the analysis cannot certify it,"
        " so every update copies a persistent set (the other side of structures)"
    )
    spec = UNCERTIFIED_SPEC

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.text = _uncertified_text(seed)


class AlertColumns(Workload):
    name = "alert_columns"
    why = (
        "numpy columns through feed_columns, sparse outputs: the only workload"
        " auto resolves to vector; no text, no structures, no per-event loop"
    )
    spec = ALERT_COLUMNS_SPEC

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.timestamps, self.columns = _alert_columns(seed)

    def rows(self, key: int = 0) -> List[Event]:
        if not hasattr(self, "_rows"):
            ts = self.timestamps.tolist()
            x = self.columns["x"].tolist()
            lim = self.columns["lim"].tolist()
            self._rows = [
                event
                for t, a, b in zip(ts, x, lim)
                for event in ((t, "x", a), (t, "lim", b))
            ]
        return self._rows

    def unit_bounds(self) -> List[int]:
        last = self.timestamps.tolist()
        return [
            last[min(start + ALERT_CHUNK, ALERT_ROWS) - 1]
            for start in range(0, ALERT_ROWS, ALERT_CHUNK)
        ]

    def run(self, monitor, seconds, spans=None, **kw):
        from repro.compiler.runtime import MonitorRunner

        measured = Measured()
        clock = time.perf_counter
        deadline = clock() + seconds
        ts, x, lim = self.timestamps, self.columns["x"], self.columns["lim"]
        while True:
            outputs: List[Event] = []
            emit = outputs.append
            runner = MonitorRunner(
                monitor.compiled, lambda n, t, v: emit((n, t, v))
            )
            latencies = measured.latencies
            events = 0
            start = clock()
            try:
                for lo in range(0, ALERT_ROWS, ALERT_CHUNK):
                    hi = lo + ALERT_CHUNK
                    chunk = {"x": x[lo:hi], "lim": lim[lo:hi]}
                    if spans is None:
                        t0 = clock()
                        events += runner.feed_columns(ts[lo:hi], chunk)
                        latencies.append(clock() - t0)
                    else:
                        root = spans.begin("chunk")
                        t0 = clock()
                        child = spans.begin("vector.feed_columns")
                        events += runner.feed_columns(ts[lo:hi], chunk)
                        spans.end(child)
                        latencies.append(clock() - t0)
                        spans.end(root)
                    measured.units_attempted += 1
                runner.finish()
            except Exception:
                measured.raised(traceback.format_exc())
                if spans is not None:
                    spans.reset_stack()
                if clock() >= deadline:
                    break
                continue
            measured.passes.append((events, clock() - start))
            measured.outputs.add(0, outputs)
            if clock() >= deadline:
                break
        return measured


class Fleet(Workload):
    name = "fleet"
    why = (
        "api.run_many over many Table I DBTimeConstraint logs, jobs=2: the only"
        " workload through parallel (dispatch, shm arena, warm start) and maps"
    )
    spec = FLEET_SPEC

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.traces = [
            _db_time_trace(seed * 1_000 + k) for k in range(FLEET_TRACES)
        ]

    def rows(self, key: int = 0) -> List[Event]:
        return self.traces[key]

    def run(self, monitor, seconds, spans=None, plan_cache=None, **kw):
        """One ``run_many`` call per pass of FLEET_PASS traces, so the
        results the pool retains (and so peak RSS) do not grow with
        throughput."""
        from repro import api

        measured = Measured()
        clock = time.perf_counter
        traces = self.traces
        options = api.RunOptions(jobs=FLEET_JOBS, batch_size=FLEET_BATCH)
        compile_options = api.CompileOptions(plan_cache=plan_cache)
        first_results: List[float] = []
        deadline = clock() + seconds
        while True:
            yielded: Dict[int, float] = {}
            events = [0]
            first: List[float] = []

            def generate():
                for index in range(FLEET_PASS):
                    yielded[index] = clock()
                    yield traces[index % FLEET_TRACES]

            def on_result(result) -> None:
                done = clock()
                if not first:
                    first.append(done - start)
                measured.latencies.append(done - yielded.pop(result.index))
                if result.error is not None:
                    measured.raised(result.error)
                    return
                measured.units_attempted += 1
                key = result.index % FLEET_TRACES
                events[0] += len(traces[key])
                measured.outputs.add(key, result.outputs)

            root = spans.begin("parallel.run_many") if spans is not None else None
            start = clock()
            try:
                result = api.run_many(
                    self.spec,
                    generate(),
                    options,
                    compile_options=compile_options,
                    collect_outputs=True,
                    on_result=on_result,
                )
            except Exception:
                measured.raised(traceback.format_exc())
                if spans is not None:
                    spans.reset_stack()
                if clock() >= deadline:
                    break
                continue
            elapsed = clock() - start
            if root is not None:
                spans.end(root)
            measured.transport = result.transport
            measured.passes.append((events[0], elapsed))
            first_results.extend(first)
            if clock() >= deadline:
                break
        if first_results:
            measured.first_result_s = statistics.median(first_results)
        return measured


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    cls.name: cls for cls in (SeenSet, Uncertified, AlertColumns, Fleet)
}
