"""The traced run: spans around layer calls and per-layer probes.

Spans are recorded only from the benchmark's own files, around the
calls it makes into each layer's public functions; the program's own
obs counters (``RunOptions(metrics=True)``, the process-wide registry's
``pool_*`` counters) and ``compile.*`` spans are read, never extended.
Every probe runs on the workload's own spec and inputs.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List

from workloads import ALERT_CHUNK, TEXT_BATCH, Workload, per_stream, quantile

#: Repeats of each compile-side probe; the median is reported.
COMPILE_REPEATS = 21
#: Structure operations timed per backend in the replay probe.
REPLAY_OPS = 20_000


class Spans:
    """In-memory span recorder: (name, start, end, parent index)."""

    def __init__(self) -> None:
        self.records: List[List[Any]] = []
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.records)
        self.records.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.records[index][2] = time.perf_counter()
        self._stack.pop()

    def reset_stack(self) -> None:
        """Close every open span at once (a layer call raised)."""
        now = time.perf_counter()
        for index in self._stack:
            self.records[index][2] = now
        self._stack.clear()

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total seconds, and self seconds (total
        minus the time its child spans cover)."""
        children = [0.0] * len(self.records)
        for name, start, end, parent in self.records:
            if parent >= 0:
                children[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _parent) in enumerate(self.records):
            agg = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - children[index]
        return out


def _median_ms(fn, repeats: int = COMPILE_REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def import_seconds(root: str) -> float:
    """Import time of the API plus numpy, in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter();"
        " import repro.api, repro.compiler.vector, numpy;"
        " print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
        cwd=root,
        check=True,
    )
    return float(done.stdout.strip())


def compile_probes(workload: Workload, tmp: str) -> Dict[str, float]:
    """frontend / lang / analysis / compiler / plancache timings."""
    from repro import api
    from repro.analysis.mutability import analyze_mutability
    from repro.compiler.plancache import PlanCache
    from repro.frontend.parser import parse_spec
    from repro.lang import check_types, flatten

    text = workload.spec
    spec = parse_spec(text)
    flat = flatten(spec)
    metrics: Dict[str, float] = {}
    metrics["frontend.parse_ms"] = _median_ms(lambda: parse_spec(text))
    metrics["lang.flatten_ms"] = _median_ms(lambda: flatten(spec))

    def typecheck() -> float:
        fresh = flatten(spec)
        start = time.perf_counter()
        check_types(fresh)
        return time.perf_counter() - start

    metrics["lang.typecheck_ms"] = statistics.median(
        typecheck() for _ in range(COMPILE_REPEATS)
    ) * 1e3
    metrics["analysis.mutability_ms"] = _median_ms(lambda: analyze_mutability(flat))
    metrics["compiler.cold_compile_ms"] = _median_ms(lambda: api.compile(text))
    metrics["analysis.mutable_streams"] = len(api.compile(text).mutable_streams)

    cache_dir = tempfile.mkdtemp(dir=tmp)
    cache = PlanCache(cache_dir)
    options = api.CompileOptions(plan_cache=cache)
    api.compile(text, options)  # fills the cache
    cache.hits = cache.misses = 0
    metrics["compiler.warm_compile_ms"] = _median_ms(
        lambda: api.compile(text, options)
    )
    lookups = cache.hits + cache.misses
    metrics["plancache.hit_share"] = cache.hits / lookups if lookups else 0.0
    shutil.rmtree(cache_dir, ignore_errors=True)
    return metrics


def compile_spans(workload: Workload) -> Dict[str, Dict[str, float]]:
    """The program's own ``compile.*`` spans over one cold compile."""
    from repro import api
    from repro.obs import TRACER

    TRACER.clear()
    TRACER.enabled = True
    try:
        api.compile(workload.spec)
    finally:
        TRACER.enabled = False
    totals = TRACER.totals()
    TRACER.clear()
    return totals


def runtime_probes(workload: Workload, monitor: Any) -> Dict[str, float]:
    """feed_batch on pre-parsed rows (ingest excluded), traceio parsing,
    and the program's copy/in-place counters from a metrics run."""
    from repro import api
    from repro.compiler.runtime import MonitorRunner
    from repro.semantics.traceio import batch_events, iter_trace_events, write_trace

    rows = workload.rows()
    batches = list(batch_events(rows, TEXT_BATCH))
    samples: List[float] = []
    outputs = 0
    for _ in range(3):
        counted = [0]

        def on_output(name, ts, value, _c=counted):
            _c[0] += 1

        runner = MonitorRunner(monitor.compiled, on_output)
        for batch in batches:
            start = time.perf_counter()
            runner.feed_batch(batch)
            samples.append(time.perf_counter() - start)
        runner.finish()
        outputs = counted[0]
    metrics: Dict[str, float] = {
        "runtime.feed_batch_ms_p50": quantile(samples, 0.5) * 1e3,
        "runtime.feed_batch_ms_p99": quantile(samples, 0.99) * 1e3,
        "runtime.outputs": outputs,
    }

    text = getattr(workload, "text", "") or write_trace(
        per_stream([(name, ts, value) for ts, name, value in rows])
    )
    rates = []
    for _ in range(3):
        start = time.perf_counter()
        parsed = sum(1 for _ in iter_trace_events(text))
        rates.append(parsed / (time.perf_counter() - start))
    metrics["traceio.parse_events_per_s"] = statistics.median(rates)

    report = api.run(
        monitor, rows, api.RunOptions(batch_size=TEXT_BATCH, metrics=True)
    )
    snapshot = report.metrics or {}
    copies = sum(s.get("copies_performed", 0) for s in snapshot.get("streams", {}).values())
    inplace = sum(s.get("inplace_updates", 0) for s in snapshot.get("streams", {}).values())
    metrics["structures.copies_performed"] = copies
    metrics["structures.inplace_updates"] = inplace
    metrics["structures.inplace_share"] = (
        inplace / (copies + inplace) if copies + inplace else 0.0
    )
    counters = snapshot.get("counters", {})
    vector = monitor.engine_resolved == "vector"
    metrics["vector.rows"] = counters.get("vector.rows", 0)
    metrics["vector.batches"] = counters.get("vector.batches", 0)
    metrics["vector.fallback_families"] = sum(
        1 for d in monitor.diagnostics() if d.code == "VEC001"
    )
    metrics["vector.feed_columns_ms_p50"] = (
        _columns_p50(workload, monitor) if vector else 0.0
    )
    return metrics


def _columns_p50(workload: Workload, monitor: Any) -> float:
    from repro.compiler.runtime import MonitorRunner

    ts = workload.timestamps
    samples = []
    for _ in range(3):
        runner = MonitorRunner(monitor.compiled)
        for lo in range(0, len(ts), ALERT_CHUNK):
            hi = lo + ALERT_CHUNK
            chunk = {name: col[lo:hi] for name, col in workload.columns.items()}
            start = time.perf_counter()
            runner.feed_columns(ts[lo:hi], chunk)
            samples.append(time.perf_counter() - start)
        runner.finish()
    return quantile(samples, 0.5) * 1e3


def structure_replay(workload: Workload) -> Dict[str, float]:
    """The workload's own value sequence through ``structures.factories``:
    set toggles (contains + add/remove) and map put + get."""
    from repro.structures import Backend
    from repro.structures.factories import make_map, make_set

    values = workload.input_values()[:REPLAY_OPS]
    metrics: Dict[str, float] = {}
    for label, backend in (
        ("mutable_set", Backend.MUTABLE),
        ("persistent_set", Backend.PERSISTENT),
    ):
        best = float("inf")
        for _ in range(3):
            current = make_set(backend)
            start = time.perf_counter()
            for value in values:
                if value in current:
                    current = current.remove(value)
                else:
                    current = current.add(value)
            best = min(best, time.perf_counter() - start)
        metrics[f"structures.{label}_op_ns"] = best / len(values) * 1e9
    best = float("inf")
    for _ in range(3):
        current = make_map(Backend.PERSISTENT)
        start = time.perf_counter()
        for position, value in enumerate(values):
            current.get(value, -1)
            current = current.put(value, position)
        best = min(best, time.perf_counter() - start)
    metrics["structures.persistent_map_op_ns"] = best / len(values) * 1e9
    return metrics


def pool_metrics(counters: Dict[str, int], first_result_s: Any) -> Dict[str, float]:
    """The pool's own registry counters, under this benchmark's names."""
    from repro.obs import metrics as names

    metrics = {
        "pool.tasks_dispatched": counters.get(names.POOL_TASKS, 0),
        "pool.retries": counters.get(names.POOL_RETRIES, 0),
        "pool.worker_restarts": counters.get(names.POOL_RESTARTS, 0),
        "pool.traces_quarantined": counters.get(names.POOL_QUARANTINED, 0),
        "pool.bytes_shared": counters.get(names.POOL_BYTES_SHARED, 0),
        "pool.bytes_pickled": counters.get(names.POOL_BYTES_PICKLED, 0),
    }
    metrics["pool.first_result_ms"] = (
        first_result_s * 1e3 if first_result_s is not None else 0.0
    )
    return metrics
