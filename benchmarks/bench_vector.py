"""Bench-vector: columnar engine throughput vs the plan engine.

Measures run-only events/sec (compile excluded, monitors built once
outside the timed region) for the plan engine's batch path against the
vector engine's two ingestion paths — row batches (``feed_batch``) and
columnar handoff (``feed_columns``) — on the paper's Fig. 9 synthetic
trace and the Fig. 10 trace-length scaling sweep.

Honesty note, recorded in the JSON as well: the paper's Fig. 9/10
*monitor* is the Seen Set, whose set-typed streams are vector-ineligible
by design — under ``engine="vector"`` it compiles with the codegen
engine, like ``engine="auto"`` (measured here as
``seen_set_fallback``).  The columnar speedup is therefore measured on
a vector-eligible scalar alert chain driven by the *same* Fig. 9/10
synthetic traces, which is the workload shape the vector engine exists
for.  The ≥10x gate applies to the columnar-ingestion headline and is
enforced only when numpy is importable (``threshold_enforced``).

The gate's baseline is the plan engine, but ``engine="auto"`` resolves
scalar specs to ``codegen``, not ``plan``.  So the Fig. 9 section and
``seen_set_fallback`` also report ``codegen_feed_batch`` rates and the
``vector ÷ codegen`` ratios, ungated: they show what the vector engine
gains over the engine ``auto`` would otherwise pick.  On the Seen Set
both requests run the same codegen monitor, so its ratio is ~1.0x.

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
THRESHOLD = 10.0


def _trace(length):
    events = seen_set_trace(length, SET_SIZE)["i"]
    rows = [(ts, "i", value) for ts, value in events]
    ts_column = [ts for ts, _value in events]
    value_column = [value for _ts, value in events]
    return rows, ts_column, value_column


def _best(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_pair(spec_text, length, with_codegen=False):
    """plan feed_batch vs vector feed_batch / feed_columns, run-only;
    *with_codegen* adds the ungated codegen feed_batch comparison."""
    rows, ts_column, value_column = _trace(length)
    sink = lambda name, ts, value: None  # noqa: E731
    run_opts = api.RunOptions(batch_size=BATCH_SIZE)
    plan = api.compile(spec_text, api.CompileOptions(engine="plan"))
    vector = api.compile(spec_text, api.CompileOptions(engine="vector"))
    assert vector.engine_resolved == "vector"

    columns = {"i": value_column}
    if with_codegen:
        codegen = api.compile(spec_text, api.CompileOptions(engine="codegen"))
    timings = {
        "plan_feed_batch": _best(
            lambda: api.run(plan, rows, run_opts, on_output=sink)
        ),
        "vector_feed_batch": _best(
            lambda: api.run(vector, rows, run_opts, on_output=sink)
        ),
        "vector_feed_columns": _best(
            lambda: vector.feed_columns(ts_column, columns, on_output=sink)
        ),
    }
    if with_codegen:
        timings["codegen_feed_batch"] = _best(
            lambda: api.run(codegen, rows, run_opts, on_output=sink)
        )
    result = {
        "events": length,
        "events_per_sec": {
            label: round(length / seconds)
            for label, seconds in timings.items()
        },
        "speedup_feed_batch": round(
            timings["plan_feed_batch"] / timings["vector_feed_batch"], 2
        ),
        "speedup_feed_columns": round(
            timings["plan_feed_batch"] / timings["vector_feed_columns"], 2
        ),
    }
    if with_codegen:
        result["vector_over_codegen_feed_batch"] = round(
            timings["codegen_feed_batch"] / timings["vector_feed_batch"], 2
        )
        result["vector_over_codegen_feed_columns"] = round(
            timings["codegen_feed_batch"] / timings["vector_feed_columns"], 2
        )
    return result


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
    plan = api.compile(seen_set(), api.CompileOptions(engine="plan"))
    vector = api.compile(seen_set(), api.CompileOptions(engine="vector"))
    codegen = api.compile(seen_set(), api.CompileOptions(engine="codegen"))
    fallback = [d.code for d in vector.diagnostics()]
    plan_s = _best(lambda: api.run(plan, rows, run_opts, on_output=sink), 3)
    vec_s = _best(lambda: api.run(vector, rows, run_opts, on_output=sink), 3)
    gen_s = _best(lambda: api.run(codegen, rows, run_opts, on_output=sink), 3)
    return {
        "events": length,
        "diagnostics": fallback,
        "plan_events_per_sec": round(length / plan_s),
        "vector_events_per_sec": round(length / vec_s),
        "codegen_events_per_sec": round(length / gen_s),
        "speedup": round(plan_s / vec_s, 2),
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
        help="minimum columnar-ingestion speedup vs the plan engine",
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
        "timing": "run-only, best of N (compile excluded; monitors"
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
        fig9 = measure_pair(SCALAR_ALERT_TEXT, FIG9_EVENTS, with_codegen=True)
        fig10 = {
            str(length): measure_pair(SCALAR_ALERT_TEXT, length)
            for length in FIG10_LENGTHS
        }
        fallback = measure_seen_set_fallback()
    finally:
        if gc_was_enabled:
            gc.enable()

    headline = fig9["speedup_feed_columns"]
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
            f"FAIL: columnar ingestion is {headline:.2f}x the plan"
            f" engine, below the {args.threshold:.1f}x threshold",
            file=sys.stderr,
        )
        return 1
    print(f"ok: columnar ingestion is {headline:.2f}x the plan engine")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
