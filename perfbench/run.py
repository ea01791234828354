"""Benchmark entry point: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload seen_set --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the traced run and reports the per-layer metrics.
Both print a human-readable report, then a provenance JSON line, then
(last) the result object ``{"correct", "attempted", "failed",
"metrics"}``.  The program is imported from ``src/`` of the checkout
the script sits in; without it the benchmark exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Cold compiles timed for ``setup_s``; the median is reported.  They
#: are spread over a few seconds, because a shared host runs slow for
#: seconds at a time and back-to-back compiles would all land in one
#: such stretch.
SETUP_REPEATS = 41
SETUP_SPACING_S = 0.05

#: What each per-layer metric is meant to move: (end-to-end metric,
#: workloads).  Printed next to the value in the traced report.
MOVES = {
    "api.import_s": ("none (ungated; kept out of setup_s)", "all"),
    "frontend.parse_ms": ("setup_s", "all"),
    "lang.flatten_ms": ("setup_s", "all"),
    "lang.typecheck_ms": ("setup_s", "all"),
    "analysis.mutability_ms": ("setup_s", "all"),
    "compiler.cold_compile_ms": ("setup_s", "all"),
    "analysis.mutable_streams": (
        "events_per_s", "uncertified if it grows; never shrinks on seen_set, fleet"),
    "compiler.warm_compile_ms": ("events_per_s, latency_ms_p90", "fleet"),
    "plancache.hit_share": ("events_per_s, latency_ms_p90", "fleet"),
    "runtime.feed_batch_ms_p50": ("events_per_s, latency_ms_*", "seen_set, uncertified"),
    "runtime.feed_batch_ms_p99": ("events_per_s, latency_ms_*", "seen_set, uncertified"),
    "runtime.outputs": ("events_per_s, latency_ms_*", "seen_set, uncertified"),
    "traceio.parse_events_per_s": (
        "events_per_s", "seen_set, uncertified; none on alert_columns, fleet"),
    "traceio.ingest_share": ("events_per_s", "seen_set, uncertified"),
    "vector.feed_columns_ms_p50": ("events_per_s, latency_ms_*", "alert_columns"),
    "vector.rows": ("events_per_s, latency_ms_*", "alert_columns"),
    "vector.batches": ("events_per_s, latency_ms_*", "alert_columns"),
    "vector.fallback_families": ("events_per_s, latency_ms_*", "alert_columns"),
    "structures.copies_performed": ("events_per_s", "uncertified vs seen_set"),
    "structures.inplace_updates": ("events_per_s", "uncertified vs seen_set"),
    "structures.inplace_share": ("events_per_s", "uncertified vs seen_set"),
    "structures.mutable_set_op_ns": ("events_per_s", "seen_set"),
    "structures.persistent_set_op_ns": ("events_per_s", "uncertified"),
    "structures.persistent_map_op_ns": ("events_per_s", "fleet"),
    "pool.tasks_dispatched": ("events_per_s, failed_share", "fleet"),
    "pool.retries": ("events_per_s, failed_share", "fleet"),
    "pool.worker_restarts": ("events_per_s, failed_share", "fleet"),
    "pool.traces_quarantined": ("events_per_s, failed_share", "fleet"),
    "pool.bytes_shared": ("events_per_s, failed_share", "fleet"),
    "pool.bytes_pickled": ("events_per_s, failed_share", "fleet"),
    "pool.first_result_ms": ("events_per_s, failed_share", "fleet"),
    "e2e.latency_ms_p99": ("none (ungated tail)", "this workload"),
    "obs.tracing_overhead": ("traced vs untraced events_per_s", "this workload"),
}

def _load_metric_units():
    """(end-to-end units, per-layer units) by name, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in declared["end_to_end"]},
        {m["name"]: m["unit"] for m in declared["per_layer"]},
    )


def _peak_rss_mb(include_children: bool) -> float:
    """High-water RSS in MB (Linux reports ``ru_maxrss`` in KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def _setup_seconds(api, spec: str, tmp: str) -> float:
    """Spec text → ready monitor with an empty plan cache, median."""
    from repro.compiler.runtime import MonitorRunner

    samples = []
    for _ in range(SETUP_REPEATS):
        cache = tempfile.mkdtemp(dir=tmp)
        start = time.perf_counter()
        monitor = api.compile(spec, api.CompileOptions(plan_cache=cache))
        MonitorRunner(monitor.compiled)
        samples.append(time.perf_counter() - start)
        shutil.rmtree(cache, ignore_errors=True)
        time.sleep(SETUP_SPACING_S)
    return statistics.median(samples)


def _stop_children() -> None:
    """Stop and reap every process this run started, so none outlives it.

    The pool joins its workers itself; the shared-memory transport also
    starts multiprocessing's resource tracker, which would otherwise
    exit only after this process has, orphaned.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        _stop_children()


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    end_to_end_units, layer_units = _load_metric_units()
    if set(layer_units) != set(MOVES):
        print("error: per-layer metrics of BENCHMARK.json and MOVES differ",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    # Import everything a run touches before any timing, numpy included.
    import numpy  # noqa: F401
    from repro import api
    import repro.compiler.vector  # noqa: F401
    import repro.parallel.pool  # noqa: F401
    from repro.bench.meta import bench_metadata
    from repro.obs.metrics import DEFAULT_REGISTRY
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; expected one of"
            f" {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload](args.seed)

    # Plan caches live inside the checkout, in a directory removed on exit.
    tmp = tempfile.mkdtemp(prefix=".perfbench_tmp_", dir=ROOT)
    try:
        monitor = api.compile(workload.spec)  # warms lazy compile paths
        setup_s = _setup_seconds(api, workload.spec, tmp)
        plan_cache = os.path.join(tmp, "plans")
        api.compile(workload.spec, api.CompileOptions(plan_cache=plan_cache))

        layer = {}
        spans = None
        if args.trace:
            import layers

            layer["api.import_s"] = layers.import_seconds(ROOT)
            layer.update(layers.compile_probes(workload, tmp))
            compile_spans = layers.compile_spans(workload)
            layer.update(layers.runtime_probes(workload, monitor))
            layer.update(layers.structure_replay(workload))

        gc.collect()
        gc.freeze()
        if args.trace:
            # Half the time untraced, half traced: the ratio of the two
            # throughputs is the tracing overhead.
            half = args.seconds / 2
            plain = workload.run(monitor, half, plan_cache=plan_cache)
            spans = layers.Spans()
            DEFAULT_REGISTRY.reset()
            DEFAULT_REGISTRY.enabled = True
            measured = workload.run(
                monitor, half, spans=spans, plan_cache=plan_cache
            )
            counters = DEFAULT_REGISTRY.snapshot()["counters"]
            DEFAULT_REGISTRY.enabled = False
        else:
            measured = workload.run(monitor, args.seconds, plan_cache=plan_cache)
        gc.unfreeze()
        peak_rss = _peak_rss_mb(include_children=workload.name == "fleet")

        # Reference outputs are computed here, outside the timed region.
        if args.trace:
            failed = workload.failed_units(plain) + workload.failed_units(measured)
            attempted = plain.units_attempted + measured.units_attempted
        else:
            failed = workload.failed_units(measured)
            attempted = measured.units_attempted
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    runs = (plain, measured) if args.trace else (measured,)
    for run in runs:
        if run.error is not None:
            print(f"first failure:\n{run.error}", file=sys.stderr)
    if not all(run.passes for run in runs):
        print("error: no pass completed without raising", file=sys.stderr)
        return 1

    end_to_end = {
        "events_per_s": measured.events_per_s(),
        "latency_ms_p50": measured.latency_ms(0.5),
        "latency_ms_p90": measured.latency_ms(0.9),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
    }
    failed_share = failed / attempted if attempted else 1.0

    provenance = {
        "meta": bench_metadata(
            ROOT,
            pool_backend="process" if workload.name == "fleet" else None,
            transport=measured.transport,
        ),
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "engine_resolved": monitor.engine_resolved,
        "pool_transport": measured.transport,
        "passes": len(measured.passes),
        "latency_samples": len(measured.latencies),
        "reference": (
            "repro.semantics.interpreter.interpret on the whole input,"
            " default max_steps, after the timed region"
        ),
        "noise_record": "perfbench/README.md, section Noise record",
    }

    print(f"workload {workload.name} (seed {args.seed}, engine"
          f" {monitor.engine_resolved}): {workload.why}")
    if args.trace:
        plain_rate = plain.events_per_s()
        traced_rate = end_to_end["events_per_s"]
        layer["obs.tracing_overhead"] = (
            plain_rate / traced_rate - 1.0 if traced_rate else 0.0
        )
        layer["e2e.latency_ms_p99"] = measured.pooled_latency_ms(0.99)
        if workload.name == "fleet":
            layer.update(layers.pool_metrics(counters, measured.first_result_s))
        else:
            layer.update(layers.pool_metrics({}, None))
        self_times = spans.self_times()
        ingest = self_times.get("traceio.ingest", {}).get("self_s", 0.0)
        layer["traceio.ingest_share"] = (
            ingest / measured.seconds if measured.seconds else 0.0
        )
        provenance["spans"] = self_times
        provenance["compile_spans"] = compile_spans
        metrics = {
            name: {"value": layer[name], "unit": unit}
            for name, unit in layer_units.items()
        }
        for name, unit in layer_units.items():
            moves, where = MOVES[name]
            print(f"  {name:34s} {layer[name]:>16.6g} {unit:6s}"
                  f" moves {moves} on {where}")
    else:
        metrics = {
            name: {"value": end_to_end[name], "unit": unit}
            for name, unit in end_to_end_units.items()
        }
        for name, unit in end_to_end_units.items():
            print(f"  {name:16s} {end_to_end[name]:>14.6g} {unit}")
        print(f"  {'failed_share':16s} {failed_share:>14.6g} share"
              f" ({failed} of {attempted} units)")
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
