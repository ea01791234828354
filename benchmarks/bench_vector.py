"""Bench-vector: columnar engine throughput vs the codegen engine.

Measures run-only events/sec (compile excluded, monitors built once
outside the timed region) for the codegen engine's batch path against
the vector engine's two ingestion paths — row batches (``feed_batch``)
and columnar handoff (``feed_columns``) — on the paper's Fig. 9
synthetic trace and the Fig. 10 trace-length scaling sweep.  Codegen is
the baseline because it is what ``engine="auto"`` resolves a spec to
when the vector engine cannot run it.

Honesty note, recorded in the JSON as well: the paper's Fig. 9/10
*monitor* is the Seen Set, whose set-typed streams are vector-ineligible
by design — under ``engine="vector"`` it compiles with the codegen
engine, like ``engine="auto"`` (measured here as
``seen_set_fallback``; its ratio is ~1.0x because both requests run
the same codegen monitor).  The columnar speedup is therefore measured
on a vector-eligible scalar alert chain driven by the *same* Fig. 9/10
synthetic traces, which is the workload shape the vector engine exists
for.  The ≥1.5x gate applies to the columnar-ingestion headline
(``vector ÷ codegen``, Fig. 9) and is enforced only when numpy is
importable (``threshold_enforced``).  A columnar path that fell back to
the engine's per-timestamp scalar half would run at about 0.1x codegen
and fail it.

Usage::

    PYTHONPATH=src python benchmarks/bench_vector.py [--out BENCH_vector.json]
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
from repro.workloads import seen_set_trace

# Vector-eligible scalar alert chain over the Fig. 9/10 traces: a
# last/sub feed-forward chain with a sparse filtered alert output.
# seen_set_trace(length, size=200) draws values from [0, 400).
SCALAR_ALERT_TEXT = """\
in i: Int

def prev  := last(i, i)
def diff  := sub(i, prev)
def s     := add(diff, i)
def spike := filter(s, gt(s, 700))

out spike
"""

SET_SIZE = 200
FIG9_EVENTS = 50_000
FIG10_LENGTHS = (5_000, 20_000, 50_000)
BATCH_SIZE = 4_096
REPEATS = 5
THRESHOLD = 1.5


def _trace(length):
    events = seen_set_trace(length, SET_SIZE)["i"]
    rows = [(ts, "i", value) for ts, value in events]
    ts_column = [ts for ts, _value in events]
    value_column = [value for _ts, value in events]
    return rows, ts_column, value_column


def _best_interleaved(fns, repeats=REPEATS):
    """Best-of-*repeats* seconds per labelled callable, taking one run
    of each in turn, so a slow spell on a shared host hits every
    contender of a ratio alike."""
    best = {label: float("inf") for label in fns}
    for _ in range(repeats):
        for label, fn in fns.items():
            start = time.perf_counter()
            fn()
            best[label] = min(best[label], time.perf_counter() - start)
    return best


def measure_pair(spec_text, length):
    """codegen feed_batch vs vector feed_batch / feed_columns, run-only."""
    rows, ts_column, value_column = _trace(length)
    sink = lambda name, ts, value: None  # noqa: E731
    run_opts = api.RunOptions(batch_size=BATCH_SIZE)
    codegen = api.compile(spec_text, api.CompileOptions(engine="codegen"))
    vector = api.compile(spec_text, api.CompileOptions(engine="vector"))
    assert vector.engine_resolved == "vector"

    columns = {"i": value_column}
    timings = _best_interleaved(
        {
            "codegen_feed_batch": lambda: api.run(
                codegen, rows, run_opts, on_output=sink
            ),
            "vector_feed_batch": lambda: api.run(
                vector, rows, run_opts, on_output=sink
            ),
            "vector_feed_columns": lambda: vector.feed_columns(
                ts_column, columns, on_output=sink
            ),
        }
    )
    return {
        "events": length,
        "events_per_sec": {
            label: round(length / seconds)
            for label, seconds in timings.items()
        },
        "vector_over_codegen_feed_batch": round(
            timings["codegen_feed_batch"] / timings["vector_feed_batch"], 2
        ),
        "vector_over_codegen_feed_columns": round(
            timings["codegen_feed_batch"] / timings["vector_feed_columns"], 2
        ),
    }


def measure_seen_set_fallback(length=10_000):
    """The paper's own monitor: ineligible, so ``engine="vector"``
    compiles it with codegen and must run at codegen speed."""
    from repro.speclib import seen_set

    inputs = seen_set_trace(length, SET_SIZE)
    rows = sorted(
        (ts, name, value)
        for name, trace in inputs.items()
        for ts, value in trace
    )
    sink = lambda name, ts, value: None  # noqa: E731
    run_opts = api.RunOptions(batch_size=BATCH_SIZE)
    vector = api.compile(seen_set(), api.CompileOptions(engine="vector"))
    codegen = api.compile(seen_set(), api.CompileOptions(engine="codegen"))
    fallback = [d.code for d in vector.diagnostics()]
    best = _best_interleaved(
        {
            "vector": lambda: api.run(vector, rows, run_opts, on_output=sink),
            "codegen": lambda: api.run(
                codegen, rows, run_opts, on_output=sink
            ),
        },
        repeats=3,
    )
    vec_s, gen_s = best["vector"], best["codegen"]
    return {
        "events": length,
        "diagnostics": fallback,
        "vector_events_per_sec": round(length / vec_s),
        "codegen_events_per_sec": round(length / gen_s),
        "vector_over_codegen": round(gen_s / vec_s, 2),
        "note": "set-typed streams are vector-ineligible;"
        " engine='vector' compiles the spec with codegen, so"
        " vector_over_codegen ~1.0x here is correct behavior, not a"
        " regression",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_vector.json", help="output JSON path"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=THRESHOLD,
        help="minimum columnar-ingestion speedup vs the codegen engine",
    )
    args = parser.parse_args(argv)

    enforced = numpy_available()
    result = {
        "benchmark": "vector-engine",
        "meta": bench_metadata(),
        "python": platform.python_version(),
        "spec": "scalar alert chain (last/sub/add/gt/filter)",
        "workload": "Fig. 9 synthetic trace + Fig. 10 length sweep"
        " (seen_set_trace, set size 200)",
        "substitution_note": "the paper's Seen Set monitor itself is"
        " vector-ineligible (set-typed) and measured separately as"
        " seen_set_fallback; the speedup target applies to the"
        " vector-eligible scalar chain on the same traces",
        "batch_size": BATCH_SIZE,
        "repeats": REPEATS,
        "timing": "run-only, best of N with the engines interleaved"
        " (compile excluded; monitors"
        " built once outside the timed region)",
        "threshold": args.threshold,
        "threshold_enforced": enforced,
    }
    if not enforced:
        result["skipped"] = "numpy not importable; vector engine absent"
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(json.dumps(result, indent=2, sort_keys=True))
        print("ok: numpy absent, threshold not enforced")
        return 0

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        fig9 = measure_pair(SCALAR_ALERT_TEXT, FIG9_EVENTS)
        fig10 = {
            str(length): measure_pair(SCALAR_ALERT_TEXT, length)
            for length in FIG10_LENGTHS
        }
        fallback = measure_seen_set_fallback()
    finally:
        if gc_was_enabled:
            gc.enable()

    headline = fig9["vector_over_codegen_feed_columns"]
    result.update(
        {
            "fig9": fig9,
            "fig10_scaling": fig10,
            "seen_set_fallback": fallback,
            "headline_speedup_columnar": headline,
        }
    )
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(result, indent=2, sort_keys=True))

    if headline < args.threshold:
        print(
            f"FAIL: columnar ingestion is {headline:.2f}x the codegen"
            f" engine, below the {args.threshold:.1f}x threshold",
            file=sys.stderr,
        )
        return 1
    print(f"ok: columnar ingestion is {headline:.2f}x the codegen engine")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
