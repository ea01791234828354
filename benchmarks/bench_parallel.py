"""Bench-parallel: multi-trace worker-pool scaling, recorded as JSON.

Two sections, one artifact:

* ``scaling`` — aggregate events/sec of :class:`repro.parallel.MonitorPool`
  running the paper's Fig. 1 Seen Set monitor over many independent
  Fig. 9 synthetic traces, at 1/2/4/8 supervised worker processes
  (forked workers, heartbeats, restart/retry machinery live but idle
  on the fault-free path; ``jobs=1`` is the in-process sequential
  loop).
* ``transport`` — the same pool on a vector-eligible spec over dense
  >= 50k-event traces, where the trace data path dominates: each task
  message carries the trace as numpy columns over the worker pipe.

Compilation happens once per worker against a warm on-disk plan cache
and is excluded from the timed region.  Every (section, jobs) cell
gets a **full warm-up round** — the complete workload
runs once untimed before the clock starts — so fork cost, page-cache
state and allocator warm-up never pollute the curves.

Each section's cells carry their own provenance stamp
(the resolved ``pool_backend``, pickled ``payload_bytes``,
supervision ``retries`` observed during the timed runs) so a chaos
artifact can never be mistaken for a clean one; this bench runs
fault-free, so ``retries`` is expected to be 0.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py [--out BENCH_parallel.json]

Exit status is non-zero — *enforced only on machines with at least 4
CPUs* — when any of these fail:

* the pool's 4-worker speedup over 1 worker falls below the scaling
  threshold (default 2.5x),
* the transport workload's 4-vs-1 scaling is not > 1.0.

On smaller machines (the curves cannot physically materialize there)
the artifact records the measurements with ``threshold_enforced:
false`` instead of fabricating a pass or fail.
"""

import argparse
import gc
import json
import os
import sys
import tempfile
import time

from repro import api
from repro.bench.meta import bench_metadata
from repro.obs.metrics import DEFAULT_REGISTRY, POOL_BYTES_PICKLED
from repro.parallel import MonitorPool
from repro.workloads import seen_set_trace

# The paper's Figure 1 specification (Seen Set), in concrete syntax.
SEEN_SET_TEXT = """\
in i: Int

def m  := merge(y, set_empty(unit))
def yl := last(m, i)
def y  := set_add(yl, i)
def s  := set_contains(yl, i)

out s
"""

# The transport workload: vector-eligible, so per-event compute is
# cheap and the trace data path (the pickled task message) dominates
# the wall clock — the quantity this section isolates.
VECTOR_TEXT = """\
in i: Int

def dbl := add(i, i)

out dbl
"""

TRACES = 32
EVENTS_PER_TRACE = 2_000
DOMAIN = 64
BATCH_SIZE = 4_096
REPEATS = 3
JOB_COUNTS = (1, 2, 4, 8)
THRESHOLD = 2.5

TRANSPORT_TRACES = 8
TRANSPORT_EVENTS_PER_TRACE = 50_000
TRANSPORT_REPEATS = 2


def _seen_set_traces():
    all_traces = []
    for seed in range(TRACES):
        raw = seen_set_trace(EVENTS_PER_TRACE, DOMAIN, seed=seed)
        all_traces.append(
            sorted((ts, "i", value) for ts, value in raw["i"])
        )
    return all_traces


def _vector_traces():
    # Dense single-stream int traces: each task message carries them
    # as columns and the worker feeds them through feed_columns.
    return [
        [
            (t, "i", (t * 7 + seed) % 1_000_003)
            for t in range(TRANSPORT_EVENTS_PER_TRACE)
        ]
        for seed in range(TRANSPORT_TRACES)
    ]


def _measure(spec_text, jobs, traces, cache_dir, *, repeats=REPEATS):
    """Best-of-N wall time for one pool cell.

    Returns ``(seconds, retries, resolved_backend, pickled_bytes)``.
    The full workload runs once untimed first (worker fork/compile via
    the warm plan cache plus one complete data pass), then N timed
    rounds.  The byte counter covers the timed rounds only.
    """
    options = api.CompileOptions(plan_cache=cache_dir)
    pool = MonitorPool(spec_text, compile_options=options, jobs=jobs)

    def run():
        result = pool.run_many(
            traces, batch_size=BATCH_SIZE, collect_outputs=False
        )
        assert result.failures == 0
        return result

    # Full warm-up round outside the timed region.
    warm = run()

    was_enabled = DEFAULT_REGISTRY.enabled
    base = DEFAULT_REGISTRY.snapshot()["counters"]
    DEFAULT_REGISTRY.enabled = True
    best = float("inf")
    retries = 0
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            result = run()
            best = min(best, time.perf_counter() - start)
            retries += result.report.retries
    finally:
        DEFAULT_REGISTRY.enabled = was_enabled
    counters = DEFAULT_REGISTRY.snapshot()["counters"]
    pickled = counters.get(POOL_BYTES_PICKLED, 0) - base.get(
        POOL_BYTES_PICKLED, 0
    )
    return best, retries, warm.backend, pickled


def _curve(spec_text, traces, cache, total_events, *, repeats):
    curve = {}
    retries_total = 0
    resolved = None
    payload = {"pickled": 0}
    for jobs in JOB_COUNTS:
        seconds, retries, resolved, pickled = _measure(
            spec_text, jobs, traces, cache, repeats=repeats
        )
        retries_total += retries
        payload["pickled"] += pickled
        curve[str(jobs)] = {
            "seconds": round(seconds, 6),
            "events_per_sec": round(total_events / seconds),
        }
    return {
        "jobs": curve,
        "speedup_4_vs_1": round(
            curve["1"]["seconds"] / curve["4"]["seconds"], 2
        ),
        "meta": bench_metadata(
            pool_backend=resolved,
            retries=retries_total,
            payload_bytes=payload,
        ),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_parallel.json", help="output JSON path"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=THRESHOLD,
        help="minimum 4-worker vs 1-worker events/sec"
        " ratio (enforced only when the machine has >= 4 CPUs)",
    )
    args = parser.parse_args(argv)

    traces = _seen_set_traces()
    total_events = sum(len(t) for t in traces)
    vec_traces = _vector_traces()
    vec_total = sum(len(t) for t in vec_traces)
    cpus = os.cpu_count() or 1

    # Prime the plan caches once; every worker warm-starts from them.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with tempfile.TemporaryDirectory(prefix="plan-cache-") as cache:
            api.compile(SEEN_SET_TEXT, api.CompileOptions(plan_cache=cache))
            api.compile(VECTOR_TEXT, api.CompileOptions(plan_cache=cache))
            process = _curve(
                SEEN_SET_TEXT, traces, cache, total_events, repeats=REPEATS
            )
            transport = _curve(
                VECTOR_TEXT,
                vec_traces,
                cache,
                vec_total,
                repeats=TRANSPORT_REPEATS,
            )
    finally:
        if gc_was_enabled:
            gc.enable()

    speedup_4 = process["speedup_4_vs_1"]
    transport_speedup_4 = transport["speedup_4_vs_1"]
    threshold_enforced = cpus >= 4
    result = {
        "benchmark": "parallel-pool-scaling",
        "meta": bench_metadata(),
        "workload": (
            f"{TRACES} independent Fig. 9 synthetic Seen Set traces,"
            f" {EVENTS_PER_TRACE} events each"
        ),
        "spec": "seen_set (paper Fig. 1)",
        "traces": TRACES,
        "events_total": total_events,
        "batch_size": BATCH_SIZE,
        "repeats": REPEATS,
        "timing": "run-only (workers started and compiled against a warm"
        " plan cache, one full untimed warm-up round per cell), best of N",
        "scaling": process,
        "jobs": process["jobs"],
        "speedup_4_vs_1": speedup_4,
        "threshold": args.threshold,
        "threshold_enforced": threshold_enforced,
        "transport": {
            "workload": (
                f"{TRANSPORT_TRACES} dense single-stream int traces,"
                f" {TRANSPORT_EVENTS_PER_TRACE} events each"
            ),
            "spec": "dbl := add(i, i) (vector-eligible)",
            "traces": TRANSPORT_TRACES,
            "events_total": vec_total,
            "repeats": TRANSPORT_REPEATS,
            **transport,
            "threshold_enforced": threshold_enforced,
        },
    }
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(json.dumps(result, indent=2, sort_keys=True))
    failed = False
    if threshold_enforced and speedup_4 < args.threshold:
        print(
            f"FAIL: pool 4-worker speedup {speedup_4:.2f}x is"
            f" below the {args.threshold:.1f}x threshold on a"
            f" {cpus}-CPU machine",
            file=sys.stderr,
        )
        failed = True
    if threshold_enforced and transport_speedup_4 <= 1.0:
        print(
            f"FAIL: transport workload 4-vs-1 speedup"
            f" {transport_speedup_4:.2f}x does not scale",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    if not threshold_enforced:
        print(
            f"note: thresholds not enforced ({cpus} CPU(s) < 4);"
            f" measured pool 4-vs-1 speedup {speedup_4:.2f}x,"
            f" transport workload {transport_speedup_4:.2f}x"
        )
    else:
        print(
            f"ok: 4 process workers are {speedup_4:.2f}x one worker;"
            f" {transport_speedup_4:.2f}x on the transport workload"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
