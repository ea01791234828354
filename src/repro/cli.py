"""Command-line compiler driver: ``repro-compile``.

Subcommands over a textual specification file:

* ``analyze``  — print the full analysis report (edges, formulas,
  aliases, mutability set, translation order, diagnostics);
* ``lint``     — print the unified static diagnostics (``LINT*`` lint
  warnings + ``MUT*`` mutability provenance); ``--json`` emits them as
  a JSON array, ``--sarif`` as a SARIF 2.1.0 log;
* ``dot``      — emit the colour-coded usage graph as GraphViz;
* ``emit``     — print the generated Python monitor source;
* ``run``      — run the monitor on a CSV event trace
  (lines ``timestamp,stream,value``) and print outputs as CSV;
* ``run-many`` — run the monitor over many independent CSV traces
  (``--traces a.csv b.csv ...``) on the supervised worker pool
  (``--jobs``, ``--trace-timeout``, ``--max-retries``) and print
  outputs as ``trace,ts,stream,value`` lines in submission order;
  quarantined traces warn on stderr, and a fail-fast abort is the
  usual one-line ``error:`` diagnostic naming the trace, worker and
  attempt history;
* ``profile``  — run the monitor with the observability layer on and
  print a per-stream copy/in-place table, compile-phase timings and
  plan-cache counters (``--json`` for machine-readable output); see
  ``docs/observability.md``;
* ``optimize`` — run the spec-level rewrite optimizer (``repro.opt``)
  and print before/after stream and mutable-variable counts plus every
  rewrite's provenance record; with ``--trace`` also measures the
  before/after ``copies_performed`` on that trace (verifying outputs
  agree); ``--emit-spec`` prints the rewritten specification,
  ``--json`` a machine-readable summary.  See ``docs/optimizer.md``.

``--rewrite`` enables the same optimizer pass for ``emit``, ``run``
and ``profile``.

``--strict`` (for ``analyze`` and ``lint``) exits nonzero when any
diagnostic of warning severity or above is present, so specifications
can be gated in CI.

Values in CSV traces are parsed according to the declared input type
(Int/Float/Bool/Str/Unit).

``run`` accepts the hardened-runtime options (see ``docs/runtime.md``):
``--error-policy`` switches on error-propagating evaluation,
``--validate-inputs`` type-checks every input event,
``--on-malformed`` / ``--on-unknown-stream`` / ``--on-out-of-order`` /
``--max-skew`` select the tolerant-ingestion policies,
``--checkpoint-dir`` / ``--checkpoint-every`` write durable checkpoints
during the run, ``--resume`` restarts from the newest valid checkpoint
reproducing the uninterrupted run's output file exactly,
``--alias-guard`` enables the aggregate-aliasing sanitizer, and
``--report`` prints the structured run report to stderr.

``--engine`` selects the execution engine (``auto`` — the default,
resolving to the columnar ``vector`` engine when the whole spec is
vector-eligible and numpy is present, else ``codegen`` — or explicitly
``codegen`` or ``vector``, which resolves like ``auto`` but is an
error without numpy; ``emit`` defaults to ``codegen``
since it prints generated source, and the engine-independent commands
reject it), ``--batch-size`` drives the monitor's batch hot path in
chunks, and ``--plan-cache DIR`` persists the analysis outputs on disk
so repeated invocations of an unchanged spec skip the analysis (hits
are visible in ``--report``).

All flags funnel through :class:`repro.api.CompileOptions` /
:class:`repro.api.RunOptions` (see ``_compile_options`` and
``_run_options``) — the CLI is a thin shell over ``repro.api``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, List, Tuple

from . import api
from .analysis.report import AnalysisReport
from .frontend import parse_spec
from .lang import check_types, flatten
from .lang import types as ty
from .parallel.pool import PoolError


class CliError(Exception):
    """Raised on bad command-line input (reported without traceback)."""


def _parse_value(text: str, value_type: ty.Type) -> Any:
    text = text.strip()
    if value_type == ty.INT or value_type == ty.TIME:
        return int(text)
    if value_type == ty.FLOAT:
        return float(text)
    if value_type == ty.BOOL:
        if text.lower() in ("true", "1"):
            return True
        if text.lower() in ("false", "0"):
            return False
        raise CliError(f"not a boolean: {text!r}")
    if value_type == ty.UNIT:
        return ()
    if value_type == ty.STR:
        return text
    raise CliError(f"cannot parse values of type {value_type} from CSV")


def _parse_csv_line(raw: str, lineno: int, flat, path: str):
    """One CSV trace line → ``(ts, stream, value)``, or ``None`` for
    blank/comment lines.

    Raises :class:`~repro.semantics.traceio.TraceError` with
    ``path:line`` context on anything malformed — bad timestamp,
    negative timestamp, unparseable value — so the tolerant ingestion
    policies apply to CSV exactly as to the TeSSLa format.
    """
    from .semantics.traceio import TraceError

    line = raw.strip()
    if not line or line.startswith("#"):
        return None
    parts = line.split(",", 2)
    if len(parts) < 2:
        raise TraceError(f"{path}:{lineno}: expected 'ts,stream[,value]'")
    ts_text, name = parts[0].strip(), parts[1].strip()
    try:
        ts = int(ts_text)
    except ValueError:
        raise TraceError(
            f"{path}:{lineno}: bad timestamp {ts_text!r}"
        ) from None
    if ts < 0:
        raise TraceError(f"{path}:{lineno}: negative timestamp {ts}")
    value_text = parts[2] if len(parts) == 3 else ""
    if name not in flat.types:
        # No declared type to parse the value by; the reader's
        # unknown-stream policy decides this event's fate anyway.
        return ts, name, value_text
    try:
        value = _parse_value(value_text, flat.types[name])
    except (CliError, ValueError) as exc:
        raise TraceError(f"{path}:{lineno}: {exc}") from None
    return ts, name, value


def _read_trace(path: str, flat) -> List[Tuple[int, str, Any]]:
    from .semantics.traceio import TraceError

    events: List[Tuple[int, str, Any]] = []
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            try:
                parsed = _parse_csv_line(raw, lineno, flat, path)
            except TraceError as exc:
                raise CliError(str(exc)) from None
            if parsed is None:
                continue
            ts, name, value = parsed
            if name not in flat.inputs:
                raise CliError(f"{path}:{lineno}: unknown input stream {name!r}")
            events.append((ts, name, value))
    events.sort(key=lambda e: e[0])
    return events


#: Subcommands whose result is independent of the execution engine;
#: they reject ``--engine`` (the engine belongs to
#: :class:`repro.api.CompileOptions`, which these commands never build).
_ENGINELESS_COMMANDS = ("analyze", "lint", "dot", "optimize")


def _compiled_flat(flat) -> Tuple[Any, List[Any]]:
    """The flat spec the default optimizing compile runs, and its
    ``OPT008`` fusion notes: what ``analyze``, ``lint`` and ``dot``
    report."""
    from .compiler.pipeline import _flat_passes
    from .opt.engine import record_diagnostics

    fused, _rewrite, fusions = _flat_passes(
        flat,
        optimize=True,
        backend_override=None,
        rewrite=False,
        metrics=None,
    )
    return fused, record_diagnostics(fusions)


def _resolve_engine(args) -> str:
    """The engine string for :class:`repro.api.CompileOptions`.

    ``--engine`` defaults to ``None`` so the facade's own default
    (``"auto"``) applies; ``emit`` prints generated Python source, so
    its unset default stays ``codegen`` (the vector engine compiles to
    kernels, not source).
    """
    if args.engine is not None:
        return args.engine
    return "codegen" if args.command == "emit" else "auto"


def _compile_options(args) -> "api.CompileOptions":
    """Map the argparse namespace onto :class:`repro.api.CompileOptions`.

    The single place CLI flags become compile options — new flags only
    need a line here and in the parser.
    """
    return api.CompileOptions(
        optimize=not args.no_optimize,
        engine=_resolve_engine(args),
        error_policy=args.error_policy,
        alias_guard=args.alias_guard,
        plan_cache=args.plan_cache,
        rewrite=getattr(args, "rewrite", False),
    )


def _run_options(args) -> "api.RunOptions":
    """Map the argparse namespace onto :class:`repro.api.RunOptions`.

    The tolerant-ingestion flags are *not* forwarded: the CLI applies
    them while parsing trace text (where ``--on-malformed`` is
    meaningful), so by the time events reach :func:`repro.api.run`
    they are already clean and ordered.
    """
    return api.RunOptions(
        end_time=args.end_time,
        batch_size=args.batch_size,
        validate_inputs=args.validate_inputs,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        jobs=args.jobs,
        trace_timeout=args.trace_timeout,
        max_retries=args.max_retries,
    )


def _cmd_run(args, flat) -> int:
    """The ``run`` subcommand: drive a monitor over an event trace."""
    from .semantics.traceio import (
        IngestPolicy,
        IngestStats,
        TolerantReader,
        TraceError,
        format_value,
        parse_line,
        read_trace,
    )

    if not args.trace:
        raise CliError("'run' requires --trace")
    if args.resume and not args.checkpoint_dir:
        raise CliError("--resume requires --checkpoint-dir")
    if args.resume and not args.output:
        raise CliError("--resume requires --output (stdout cannot be rewound)")
    tolerant = (
        args.on_malformed != "raise"
        or args.on_unknown_stream != "raise"
        or args.on_out_of_order != "raise"
        or args.max_skew > 0
    )
    monitor = api.compile(flat, _compile_options(args))
    run_options = _run_options(args)
    stats = IngestStats()
    policy = IngestPolicy(
        on_malformed=args.on_malformed,
        on_unknown_stream=args.on_unknown_stream,
        on_out_of_order=args.on_out_of_order,
        max_skew=args.max_skew,
    )
    # The reader handle, when a tolerant reader feeds this run: the
    # checkpoint gate below stops checkpoint writes once the reader's
    # end-of-input drain starts (drained deliveries are not
    # replay-stable, so a checkpoint taken then could not be resumed
    # against a re-read of the trace).
    reader_box = {"reader": None}

    def tolerant_reader():
        reader = TolerantReader(policy, known_streams=flat.inputs)
        reader.stats = stats
        reader_box["reader"] = reader
        return reader

    def checkpoint_gate():
        reader = reader_box["reader"]
        return reader is None or not reader.draining

    if args.format == "tessla":
        def render(name, ts, value):
            return f"{ts}: {name} = {format_value(value)}"

        def load_events():
            if tolerant:
                return tolerant_reader().events(
                    enumerate(open(args.trace), 1),
                    lambda item: parse_line(item[1], item[0]),
                )
            # strict batch semantics: the text may list events in any
            # order; everything is read, validated, and sorted up front
            try:
                with open(args.trace) as handle:
                    traces = read_trace(handle)
            except TraceError as exc:
                raise CliError(str(exc)) from None
            unknown = set(traces) - set(flat.inputs)
            if unknown:
                raise CliError(f"unknown input streams: {sorted(unknown)}")
            return sorted(
                (ts, name, value)
                for name, stream_events in traces.items()
                for ts, value in stream_events
            )

    else:
        def render(name, ts, value):
            return f"{ts},{name},{value}"

        def load_events():
            if tolerant:
                return tolerant_reader().events(
                    enumerate(open(args.trace), 1),
                    lambda item: _parse_csv_line(
                        item[1], item[0], flat, args.trace
                    ),
                )
            return _read_trace(args.trace, flat)

    # The sink is bound late: under --resume the output file must be
    # rewound to the checkpoint's watermark before any write.
    sink = {"write": sys.stdout.write, "handle": None}

    def emit(name, ts, value):
        sink["write"](render(name, ts, value) + "\n")

    def make_outputs_durable():
        # Flushed before every checkpoint write: the checkpoint's
        # outputs_emitted watermark must never run ahead of the bytes
        # on disk, or a hard kill would make --resume skip past a hole.
        handle = sink["handle"]
        if handle is not None:
            handle.flush()
            os.fsync(handle.fileno())

    out_handle = None

    def bind_sink(handle):
        nonlocal out_handle
        out_handle = handle
        if handle is not None:
            sink["write"] = handle.write
            sink["handle"] = handle

    def rewind_outputs(meta):
        # Before any event is fed on --resume: truncate the output
        # file to the checkpoint's outputs_emitted watermark, then
        # reopen for appending — replaying the rest of the trace
        # reproduces the uninterrupted run's file exactly.
        kept = meta["outputs_emitted"] if meta else 0
        try:
            with open(args.output) as handle:
                prior = handle.readlines()
        except FileNotFoundError:
            prior = []
        with open(args.output, "w") as handle:
            handle.writelines(prior[:kept])
        bind_sink(open(args.output, "a"))

    if not args.resume:
        bind_sink(open(args.output, "w") if args.output else None)

    events = load_events()
    try:
        report = api.run(
            monitor,
            events,
            run_options,
            on_output=emit,
            on_checkpoint=make_outputs_durable,
            on_resume=rewind_outputs,
            checkpoint_gate=checkpoint_gate,
        )
    finally:
        if out_handle is not None:
            out_handle.close()
    report.absorb_ingest(stats)
    if args.report:
        print(report.to_json(), file=sys.stderr)
    return 0


def _cmd_run_many(args, flat) -> int:
    """The ``run-many`` subcommand: one spec, many traces, worker pool.

    Reads each ``--traces`` CSV file exactly once (lazily, under the
    pool's backpressure window), distributes them over the supervised
    :class:`~repro.parallel.MonitorPool`
    (``--jobs``/``--trace-timeout``/``--max-retries``), and streams
    results in submission order as ``trace,ts,stream,value`` CSV lines.  A quarantined trace prints a
    one-line ``warning:`` on stderr and the run keeps draining; under
    fail-fast (the default error policy) a poison trace aborts with the
    usual one-line ``error:`` diagnostic and exit 1.
    """
    if not args.traces:
        raise CliError("'run-many' requires --traces")
    monitor = api.compile(flat, _compile_options(args))
    run_options = _run_options(args)
    # Lazy and parse-once: each CSV file is read when the pool's
    # backpressure window reaches it, exactly once — the parsed trace
    # becomes the pool's task payload and every retry resends that
    # payload, never re-reading the file.
    traces = (_read_trace(path, flat) for path in args.traces)

    handle = open(args.output, "w") if args.output else sys.stdout

    def on_result(result):
        if result.error is not None:
            print(
                f"warning: trace {result.index}"
                f" ({args.traces[result.index]}) failed: {result.error}",
                file=sys.stderr,
            )
            return
        for name, ts, value in result.outputs or []:
            handle.write(f"{result.index},{ts},{name},{value}\n")

    try:
        pool_result = api.run_many(
            monitor, traces, run_options, on_result=on_result
        )
    finally:
        if handle is not sys.stdout:
            handle.close()
    if args.report:
        print(pool_result.report.to_json(), file=sys.stderr)
    return 0


def _cmd_profile(args, flat) -> int:
    """The ``profile`` subcommand: one instrumented run, human summary.

    Compiles with the metrics registry and the phase tracer enabled,
    drives the trace through ``repro.api.run`` with
    ``RunOptions(metrics=True)``, and prints a per-stream table of
    ``copies_performed`` vs ``inplace_updates`` (the paper's "copies
    avoided by mutability classification" claim, measured), the
    compile-phase and batch span timings, and the plan-cache counters.
    ``--json`` emits the same data as one JSON object.
    """
    import json as json_mod

    from .obs.metrics import DEFAULT_REGISTRY, merge_snapshots
    from .obs.trace import TRACER

    if not args.trace:
        raise CliError("'profile' requires --trace")

    was_traced = TRACER.enabled
    was_metered = DEFAULT_REGISTRY.enabled
    TRACER.enabled = True
    TRACER.clear()
    DEFAULT_REGISTRY.enabled = True
    default_before = DEFAULT_REGISTRY.snapshot()
    try:
        events = _read_trace(args.trace, flat)
        monitor = api.compile(flat, _compile_options(args))
        run_options = api.RunOptions(
            end_time=args.end_time,
            batch_size=args.batch_size or 4096,
            validate_inputs=args.validate_inputs,
            metrics=True,
        )
        report = api.run(monitor, events, run_options)
        phases = TRACER.totals()
    finally:
        TRACER.enabled = was_traced
        DEFAULT_REGISTRY.enabled = was_metered

    from .obs.metrics import diff_snapshots

    snapshot = merge_snapshots(
        report.metrics,
        diff_snapshots(default_before, DEFAULT_REGISTRY.snapshot()),
    ) or {"counters": {}, "streams": {}}
    backends = monitor.compiled.backends
    streams = snapshot.get("streams", {})
    rows = [
        (
            name,
            backends[name].name.lower() if name in backends else "?",
            stats["copies_performed"],
            stats["inplace_updates"],
        )
        for name, stats in sorted(streams.items())
    ]

    if args.json:
        print(
            json_mod.dumps(
                {
                    "streams": {
                        name: {
                            "backend": backend,
                            "copies_performed": copies,
                            "inplace_updates": inplace,
                        }
                        for name, backend, copies, inplace in rows
                    },
                    "phases": phases,
                    "counters": snapshot.get("counters", {}),
                    "report": report.as_dict(),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0

    if rows:
        widths = (
            max(len("stream"), *(len(r[0]) for r in rows)),
            max(len("backend"), *(len(r[1]) for r in rows)),
        )
        header = (
            f"{'stream':<{widths[0]}}  {'backend':<{widths[1]}}"
            f"  {'copies':>8}  {'in-place':>8}"
        )
        print(header)
        print("-" * len(header))
        for name, backend, copies, inplace in rows:
            print(
                f"{name:<{widths[0]}}  {backend:<{widths[1]}}"
                f"  {copies:>8}  {inplace:>8}"
            )
    else:
        print("no structure-updating streams in this specification")
    if phases:
        print("\nphases:")
        for name, agg in phases.items():
            print(
                f"  {name:<26} {agg['seconds'] * 1000:>9.2f} ms"
                f"  x{agg['count']}"
            )
    counters = snapshot.get("counters", {})
    if counters:
        print("\ncounters:")
        for name in sorted(counters):
            print(f"  {name} = {counters[name]}")
    print(
        f"\nevents: in={report.events_in} out={report.events_out}"
        f" batches={report.batches}"
    )
    return 0


def _cmd_windows(args) -> int:
    """The ``windows`` subcommand: print the aggregate eligibility table.

    One row per supported window aggregate: whether it rides the O(1)
    delta path or the O(window) fold fallback, the per-window state the
    lowering keeps, and the diagnostic code a compiled spec reports
    (WIN001 delta / WIN002 fold).  ``--json`` emits the rows as a JSON
    array.
    """
    from .lang.windows import eligibility_table

    rows = eligibility_table()
    if args.json:
        import json as json_mod

        print(
            json_mod.dumps(
                [
                    {
                        "aggregate": agg,
                        "path": path,
                        "state": state,
                        "diagnostic": code,
                    }
                    for agg, path, state, code in rows
                ],
                indent=2,
            )
        )
        return 0
    header = ("aggregate", "path", "state", "diagnostic")
    table = [header] + [tuple(row) for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for index, row in enumerate(table):
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if index == 0:
            print("  ".join("-" * w for w in widths))
    return 0


def _cmd_optimize(args, flat) -> int:
    """The ``optimize`` subcommand: run the rewrite pass, show its work.

    Prints before/after stream and certified mutable-variable counts,
    per-rule fired counters and every rewrite's provenance record.
    With ``--trace``, both variants are compiled and driven over the
    trace with metrics on: outputs are asserted identical and the
    before/after ``copies_performed`` totals are reported.
    ``--emit-spec`` prints the rewritten specification in concrete
    syntax; ``--json`` emits everything as one JSON object.
    """
    import json as json_mod

    from .compiler import freeze
    from .obs.metrics import DEFAULT_REGISTRY
    from .opt import optimize_flat

    was_metered = DEFAULT_REGISTRY.enabled
    DEFAULT_REGISTRY.enabled = True
    try:
        result = optimize_flat(flat, certify=not args.no_optimize)
    finally:
        DEFAULT_REGISTRY.enabled = was_metered

    copies = None
    if args.trace:
        events = _read_trace(args.trace, flat)
        copies = {}
        outputs = {}
        for label, rewrite in (("before", False), ("after", True)):
            monitor = api.compile(
                flat,
                api.CompileOptions(
                    optimize=not args.no_optimize,
                    engine=_resolve_engine(args),
                    rewrite=rewrite,
                ),
            )
            collected = []
            report = api.run(
                monitor,
                list(events),
                api.RunOptions(
                    end_time=args.end_time, metrics=True
                ),
                on_output=lambda n, t, v: collected.append(
                    (n, t, freeze(v))
                ),
            )
            streams = (report.metrics or {}).get("streams", {})
            copies[label] = sum(
                stats["copies_performed"] for stats in streams.values()
            )
            outputs[label] = collected
        if outputs["before"] != outputs["after"]:
            raise CliError(
                "optimized and unoptimized outputs disagree — this is a"
                " bug; please report the specification"
            )

    if args.emit_spec:
        from .frontend import unparse_flat

        print(unparse_flat(result.flat), end="")
        return 0

    if args.json:
        payload = dict(result.summary())
        payload["diagnostics"] = [d.to_dict() for d in result.diagnostics()]
        if copies is not None:
            payload["copies_performed"] = copies
        print(json_mod.dumps(payload, indent=2, sort_keys=True))
        return 0

    mut = (
        f"{result.mutable_before} -> {result.mutable_after}"
        if result.mutable_before is not None
        else "n/a (no aggregate streams)"
    )
    print(f"streams:          {result.streams_before} -> {result.streams_after}")
    print(f"mutable variables: {mut}")
    print(
        f"rewrites:         {len(result.applied)} applied,"
        f" {len(result.rejected)} rejected"
    )
    if result.fired:
        for code in sorted(result.fired):
            print(f"  {code} fired x{result.fired[code]}")
    if copies is not None:
        print(
            f"copies_performed: {copies['before']} -> {copies['after']}"
            " (outputs verified identical)"
        )
    if result.records:
        print("\nrewrites:")
        for diagnostic in result.diagnostics():
            print(f"  {diagnostic}")
    else:
        print("\nspecification already normalized; nothing to rewrite")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro-compile")
    parser.add_argument(
        "command",
        choices=[
            "analyze",
            "lint",
            "dot",
            "emit",
            "run",
            "run-many",
            "profile",
            "optimize",
            "windows",
        ],
    )
    parser.add_argument(
        "spec",
        help="path to the specification file (not used by 'windows')",
    )
    parser.add_argument(
        "--trace", help="CSV event trace (required for 'run')"
    )
    parser.add_argument(
        "--traces",
        nargs="+",
        metavar="FILE",
        help="CSV event traces (required for 'run-many'; one"
        " independent run of the monitor per file)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="for 'lint': print diagnostics as a JSON array",
    )
    parser.add_argument(
        "--sarif",
        action="store_true",
        help="for 'lint': print diagnostics as a SARIF 2.1.0 log",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="for 'analyze'/'lint': exit nonzero on any diagnostic of"
        " warning severity or above (CI gating)",
    )
    parser.add_argument(
        "--no-optimize",
        action="store_true",
        help="compile the exclusively-persistent baseline",
    )
    parser.add_argument(
        "--rewrite",
        action="store_true",
        help="run the spec-level rewrite optimizer before analysis"
        " (for 'emit'/'run'/'profile'; 'optimize' always runs it)",
    )
    parser.add_argument(
        "--emit-spec",
        action="store_true",
        help="for 'optimize': print the rewritten specification in"
        " concrete syntax",
    )
    parser.add_argument(
        "--end-time", type=int, default=None, help="bound for delay streams"
    )
    parser.add_argument(
        "--engine",
        choices=["auto", "codegen", "vector"],
        default=None,
        help="execution engine: auto (the default — columnar numpy"
        " kernels when every stream is vector-eligible, else generated"
        " source), codegen (generated source), or vector (like auto,"
        " but an error without numpy); 'emit'"
        " defaults to codegen (it prints generated source)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="for 'run': drive the monitor's batch hot path in chunks"
        " of this many events",
    )
    parser.add_argument(
        "--plan-cache",
        default=None,
        metavar="DIR",
        help="cache analysis outputs (translation order, backends) in"
        " this directory, keyed by spec + options fingerprint",
    )
    parser.add_argument(
        "--format",
        choices=["csv", "tessla"],
        default="csv",
        help="trace format for 'run': CSV lines or the TeSSLa trace"
        " format (ts: stream = value)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="for 'run-many': worker processes; 1 runs sequentially",
    )
    parser.add_argument(
        "--trace-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="for 'run-many': per-trace wall-clock deadline; a trace"
        " outliving it is killed and re-dispatched",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="for 'run-many': re-dispatches a failing or interrupted"
        " trace may consume after its first attempt (0 disables"
        " retries); an exhausted trace is quarantined or, under"
        " fail-fast, aborts the pool",
    )
    hardened = parser.add_argument_group("hardened runtime (for 'run')")
    hardened.add_argument(
        "--error-policy",
        choices=["fail-fast", "propagate", "substitute-default"],
        default=None,
        help="error-propagating evaluation: what a failing lift becomes",
    )
    hardened.add_argument(
        "--validate-inputs",
        action="store_true",
        help="type-check every input event against the declared types",
    )
    hardened.add_argument(
        "--on-malformed",
        choices=["raise", "skip"],
        default="raise",
        help="what to do with trace lines that do not parse",
    )
    hardened.add_argument(
        "--on-unknown-stream",
        choices=["raise", "skip"],
        default="raise",
        help="what to do with events naming undeclared streams",
    )
    hardened.add_argument(
        "--on-out-of-order",
        choices=["raise", "skip", "buffer"],
        default="raise",
        help="what to do with events behind the delivery frontier"
        " ('buffer' reorders within --max-skew)",
    )
    hardened.add_argument(
        "--max-skew",
        type=int,
        default=0,
        help="reorder window for --on-out-of-order=buffer (ticks)",
    )
    hardened.add_argument(
        "--checkpoint-dir",
        help="write durable checkpoints into this directory",
    )
    hardened.add_argument(
        "--checkpoint-every",
        type=int,
        default=1000,
        help="checkpoint period in consumed input events",
    )
    hardened.add_argument(
        "--resume",
        action="store_true",
        help="restart from the newest valid checkpoint in"
        " --checkpoint-dir (requires --output)",
    )
    hardened.add_argument(
        "--output",
        help="write outputs to this file instead of stdout",
    )
    hardened.add_argument(
        "--report",
        action="store_true",
        help="print the structured run report (JSON) to stderr",
    )
    hardened.add_argument(
        "--alias-guard",
        action="store_true",
        help="runtime sanitizer: guard mutable aggregates against"
        " stale-reference access",
    )
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv[:1] == ["windows"]:
        # 'windows' prints the static aggregate table and takes no spec
        # file; satisfy the positional so argparse keeps rejecting a
        # missing spec on every other command.
        argv.insert(1, "-")
    args = parser.parse_args(argv)

    if args.engine is not None and args.command in _ENGINELESS_COMMANDS:
        parser.error(
            f"--engine does not apply to '{args.command}'; it selects"
            " the engine of commands that execute a monitor ('run',"
            " 'run-many', 'profile', 'emit')"
        )

    if args.command == "windows":
        return _cmd_windows(args)

    try:
        with open(args.spec) as handle:
            spec = parse_spec(handle.read())
        flat = flatten(spec)
        check_types(flat)

        if args.command == "analyze":
            from .analysis.diagnostics import strict_failures

            fused, notes = _compiled_flat(flat)
            analysis = AnalysisReport(fused, notes=notes)
            print(analysis.text())
            if args.strict and strict_failures(analysis.diagnostics()):
                return 1
        elif args.command == "lint":
            from .analysis.diagnostics import (
                collect_diagnostics,
                strict_failures,
                to_json,
                to_sarif,
            )

            fused, notes = _compiled_flat(flat)
            diagnostics = collect_diagnostics(fused, notes=notes)
            if args.json and args.sarif:
                raise CliError("--json and --sarif are mutually exclusive")
            if args.json:
                print(to_json(diagnostics))
            elif args.sarif:
                import json as json_mod
                import os

                print(
                    json_mod.dumps(
                        to_sarif(
                            diagnostics,
                            spec_uri=os.path.basename(args.spec),
                        ),
                        indent=2,
                    )
                )
            else:
                if diagnostics:
                    for diagnostic in diagnostics:
                        print(diagnostic)
                else:
                    print("no diagnostics")
            if args.strict and strict_failures(diagnostics):
                return 1
        elif args.command == "dot":
            fused, _notes = _compiled_flat(flat)
            print(AnalysisReport(fused).dot())
        elif args.command == "emit":
            print(api.compile(flat, _compile_options(args)).source)
        elif args.command == "run-many":
            return _cmd_run_many(args, flat)
        elif args.command == "profile":
            return _cmd_profile(args, flat)
        elif args.command == "optimize":
            return _cmd_optimize(args, flat)
        else:  # run
            return _cmd_run(args, flat)
    except (CliError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PoolError as exc:
        # A worker crash under fail-fast: one diagnostic line (which
        # trace failed and why), nonzero exit, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # spec/compile errors: message only
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
