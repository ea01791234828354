"""Bench-window: O(1) delta maintenance vs the O(window) fold fallback.

Measures run-only events/sec for sliding windows whose aggregate is
maintained by the invertible **delta** path (SUM: add the new event,
subtract the evicted prefix) against the library's own **fold**
fallback (MAX: recompute over the live queue), at growing window
sizes.  Both sides share identical queue maintenance — certified
mutable, zero structural copies — so the ratio isolates exactly the
aggregation step the paper's invertibility distinction is about.

Honesty note, recorded in the JSON as well: SUM cannot be forced onto
the fold path (invertible aggregates always take the delta path — that
is the feature), so the fold comparator is MAX, the library's real
recompute fallback over the same queues.  The ≥3x gate applies to the
largest measured window; at tiny windows the fold is legitimately
cheap and the ratio approaches 1x.

A secondary section measures the vector engine's prefix-scan lowering
of ``running_aggregate`` (seeded ``np.add.accumulate``) against the
codegen engine; it is reported but not gated, and skipped without
numpy.

Usage::

    PYTHONPATH=src python benchmarks/bench_window.py [--out BENCH_window.json]
"""

import argparse
import gc
import json
import platform
import sys
import time

from repro import api
from repro.bench.meta import bench_metadata
from repro.compiler.kernels import numpy_available
from repro.speclib import running_aggregate, sliding_window

EVENTS = 10_000
PERIODS = (16, 128, 512)
REPEATS = 3
THRESHOLD = 3.0
SCAN_EVENTS = 50_000
BATCH_SIZE = 4_096


def _trace(length):
    # Dense timestamps: every event both enters and (eventually) leaves
    # the window, so the delta and fold paths do maximal honest work.
    return [(t, "x", (t * 37) % 100) for t in range(1, length + 1)]


def _best(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_window_pair(period, length=EVENTS):
    """Sliding SUM (delta) vs sliding MAX (fold) at one window size."""
    rows = _trace(length)
    sink = lambda name, ts, value: None  # noqa: E731
    delta = api.compile(
        sliding_window("sum", period=period),
        api.CompileOptions(engine="codegen"),
    )
    fold = api.compile(
        sliding_window("max", period=period),
        api.CompileOptions(engine="codegen"),
    )
    delta_s = _best(lambda: api.run(delta, rows, on_output=sink))
    fold_s = _best(lambda: api.run(fold, rows, on_output=sink))

    # Path certification on the instrumented twin: the delta spec must
    # never recompute, the fold spec must recompute once per event, and
    # both keep the queues copy-free.
    report = api.run(delta, rows, api.RunOptions(metrics=True), on_output=sink)
    counters = report.metrics["counters"]
    assert counters.get("window.delta_updates") == length
    assert "window.recomputes" not in counters
    queue_stats = report.metrics["streams"]["tq"]
    assert queue_stats["copies_performed"] == 0
    fold_report = api.run(
        fold, rows, api.RunOptions(metrics=True), on_output=sink
    )
    assert fold_report.metrics["counters"].get("window.recomputes") == length

    return {
        "period": period,
        "events": length,
        "delta_events_per_sec": round(length / delta_s),
        "fold_events_per_sec": round(length / fold_s),
        "speedup_delta_vs_fold": round(fold_s / delta_s, 2),
        "queue_copies_performed": queue_stats["copies_performed"],
    }


def measure_scan(length=SCAN_EVENTS):
    """Vector prefix scan vs the codegen engine (reported, ungated)."""
    rows = [(t, "x", (t * 13) % 1000 - 500) for t in range(1, length + 1)]
    sink = lambda name, ts, value: None  # noqa: E731
    run_opts = api.RunOptions(batch_size=BATCH_SIZE)
    spec = running_aggregate("sum")
    codegen = api.compile(spec, api.CompileOptions(engine="codegen"))
    vector = api.compile(spec, api.CompileOptions(engine="vector"))
    assert vector.engine_resolved == "vector"
    codegen_s = _best(lambda: api.run(codegen, rows, run_opts, on_output=sink))
    vec_s = _best(lambda: api.run(vector, rows, run_opts, on_output=sink))
    return {
        "events": length,
        "batch_size": BATCH_SIZE,
        "codegen_events_per_sec": round(length / codegen_s),
        "vector_scan_events_per_sec": round(length / vec_s),
        "speedup": round(codegen_s / vec_s, 2),
        "note": "running_aggregate('sum') recognized as a prefix-scan"
        " triple and executed as one seeded np.add.accumulate per batch",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_window.json", help="output JSON path"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=THRESHOLD,
        help="minimum delta-vs-fold speedup at the largest window",
    )
    args = parser.parse_args(argv)

    result = {
        "benchmark": "window-library",
        "meta": bench_metadata(),
        "python": platform.python_version(),
        "spec": "sliding_window(sum) [delta] vs sliding_window(max)"
        " [fold], codegen engine",
        "workload": f"dense synthetic trace, {EVENTS} events, window"
        f" periods {list(PERIODS)}",
        "substitution_note": "SUM always takes the delta path"
        " (invertible by design), so the fold side is MAX — the"
        " library's real recompute fallback over identical certified-"
        "mutable queues; the ratio isolates the aggregation step",
        "repeats": REPEATS,
        "timing": "run-only, best of N (compile excluded; monitors"
        " built once outside the timed region)",
        "threshold": args.threshold,
        "threshold_enforced": True,
    }

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        sweep = {
            str(period): measure_window_pair(period) for period in PERIODS
        }
        scan = measure_scan() if numpy_available() else {
            "skipped": "numpy not importable; vector engine absent"
        }
    finally:
        if gc_was_enabled:
            gc.enable()

    headline = sweep[str(max(PERIODS))]["speedup_delta_vs_fold"]
    result.update(
        {
            "window_sweep": sweep,
            "vector_scan": scan,
            "headline_speedup_delta": headline,
        }
    )
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(result, indent=2, sort_keys=True))

    if headline < args.threshold:
        print(
            f"FAIL: delta maintenance is {headline:.2f}x the fold"
            f" fallback at period {max(PERIODS)}, below the"
            f" {args.threshold:.1f}x threshold",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: delta maintenance is {headline:.2f}x the fold fallback"
        f" at period {max(PERIODS)}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
