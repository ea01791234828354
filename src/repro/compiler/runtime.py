"""Hardened monitor runtime: error propagation, reports, recovery.

This module is the runtime half of the compiler's hardening layer:

* :class:`RunReport` — structured accounting of everything abnormal a
  run absorbed (lift exceptions, propagated/substituted errors, invalid
  inputs, ingestion skips, checkpoints, resume provenance), so "the
  monitor survived" is an auditable claim rather than silence;
* :func:`wrap_lift` — the per-stream wrapper installed by the code
  generators when a monitor is compiled with an
  :class:`~repro.errors.ErrorPolicy`: it short-circuits error-valued
  arguments, converts lift exceptions into :class:`ErrorValue` events
  (or raises with context / substitutes, per policy), and counts
  everything into the monitor's report;
* :func:`validate_value` — runtime type validation of input events
  against the declared input stream types;
* :class:`MonitorRunner` — an event-loop driver around a compiled
  monitor adding input validation, periodic durable checkpoints, batch
  feeding (the ``feed_batch`` hot path) and crash recovery (resume
  from the last valid checkpoint, skip consumed input, reproduce the
  uninterrupted run's outputs exactly).

Monitors compiled *without* an error policy carry none of the
hardening — no wrapped lifts, no error-value tests — so the layer costs
nothing unless it is switched on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from ..errors import ErrorPolicy, ErrorValue, LiftError
from ..lang import types as ty
from ..obs.trace import TRACER
from ..structures.guard import AliasGuardError
from ..structures.interface import MapBase, QueueBase, SetBase, VectorBase
from .checkpoint import CheckpointManager, spec_fingerprint
from .monitor import MonitorError, validate_columns


@dataclass
class RunReport:
    """Structured accounting of one monitor run's absorbed faults.

    All counters are cumulative across a resume: a resumed run seeds
    ``events_out`` from the checkpoint so output-offset bookkeeping
    stays consistent with the uninterrupted run.
    """

    #: Input events presented to the runner (including dropped ones).
    events_in: int = 0
    #: Output events emitted (cumulative across resume).
    events_out: int = 0
    #: Lift implementations that raised an exception.
    lift_errors: int = 0
    #: Lift calls short-circuited because an argument carried an error.
    errors_propagated: int = 0
    #: Events suppressed under ``ErrorPolicy.SUBSTITUTE_DEFAULT``.
    errors_substituted: int = 0
    #: Error values surfaced on output streams.
    error_outputs: int = 0
    #: ``delay`` re-arms ignored because the delay amount was an error.
    delay_errors: int = 0
    #: Input events whose value failed type validation.
    invalid_inputs: int = 0
    #: Trace lines that could not be parsed (tolerant ingestion).
    malformed_lines: int = 0
    #: Events naming a stream the monitor does not declare.
    unknown_stream_events: int = 0
    #: Out-of-order events dropped (late beyond the skew window).
    out_of_order_dropped: int = 0
    #: Events delivered in order only thanks to the reorder buffer.
    reordered_events: int = 0
    #: Batches consumed through the ``feed_batch`` hot path.
    batches: int = 0
    #: Whether the compilation hit the on-disk plan cache (``None`` —
    #: no cache was consulted).
    plan_cache_hit: Optional[bool] = None
    #: Durable checkpoints written by this process.
    checkpoints_written: int = 0
    #: Input events skipped on resume (already consumed pre-crash).
    events_skipped_on_resume: int = 0
    #: Path of the checkpoint this run resumed from, if any.
    resumed_from: Optional[str] = None
    #: True once a merge saw two different resume provenances — the
    #: conflict is sticky so merging is associative: once ambiguous,
    #: ``resumed_from`` stays ``None`` no matter what merges in later.
    resume_conflict: bool = False
    #: Trace attempts re-dispatched by the supervised worker pool after
    #: a worker crash, hang, timeout or task exception.
    retries: int = 0
    #: Worker processes restarted by the pool supervisor after a death
    #: (exitcode) or a forced kill (missed heartbeats / deadline).
    worker_restarts: int = 0
    #: Traces that exhausted their retry budget and were quarantined as
    #: poison traces (surfaced on their ``TraceResult``, never silently
    #: dropped).
    traces_quarantined: int = 0
    #: Metric snapshot of an instrumented run (see :mod:`repro.obs`);
    #: ``None`` when the run was not instrumented.
    metrics: Optional[Dict[str, Any]] = None

    def faults_absorbed(self) -> int:
        """Total abnormal occurrences the run survived."""
        return (
            self.lift_errors
            + self.errors_substituted
            + self.invalid_inputs
            + self.malformed_lines
            + self.unknown_stream_events
            + self.out_of_order_dropped
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "events_in": self.events_in,
            "events_out": self.events_out,
            "lift_errors": self.lift_errors,
            "errors_propagated": self.errors_propagated,
            "errors_substituted": self.errors_substituted,
            "error_outputs": self.error_outputs,
            "delay_errors": self.delay_errors,
            "invalid_inputs": self.invalid_inputs,
            "malformed_lines": self.malformed_lines,
            "unknown_stream_events": self.unknown_stream_events,
            "out_of_order_dropped": self.out_of_order_dropped,
            "reordered_events": self.reordered_events,
            "batches": self.batches,
            "plan_cache_hit": self.plan_cache_hit,
            "checkpoints_written": self.checkpoints_written,
            "events_skipped_on_resume": self.events_skipped_on_resume,
            "resumed_from": self.resumed_from,
            "resume_conflict": self.resume_conflict,
            "retries": self.retries,
            "worker_restarts": self.worker_restarts,
            "traces_quarantined": self.traces_quarantined,
            "metrics": self.metrics,
            "faults_absorbed": self.faults_absorbed(),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def absorb_ingest(self, stats: Any) -> None:
        """Merge an ingestion :class:`~repro.semantics.traceio.IngestStats`."""
        self.malformed_lines += stats.malformed_lines
        self.unknown_stream_events += stats.unknown_stream_events
        self.out_of_order_dropped += stats.out_of_order_dropped
        self.reordered_events += stats.reordered_events

    #: Integer counters summed by :meth:`merge` (everything except the
    #: provenance fields ``plan_cache_hit`` and ``resumed_from``).
    _COUNTER_FIELDS = (
        "events_in",
        "events_out",
        "lift_errors",
        "errors_propagated",
        "errors_substituted",
        "error_outputs",
        "delay_errors",
        "invalid_inputs",
        "malformed_lines",
        "unknown_stream_events",
        "out_of_order_dropped",
        "reordered_events",
        "batches",
        "checkpoints_written",
        "events_skipped_on_resume",
        "retries",
        "worker_restarts",
        "traces_quarantined",
    )

    def merge(self, other: "RunReport") -> "RunReport":
        """Fold another report's counters into this one.

        Used by the parallel subsystem: per-trace reports from the
        worker pool are accumulated into one aggregate report.  All integer
        counters are summed; ``plan_cache_hit`` treats ``None`` as "no
        cache consulted" (the other side's verdict wins) and conflicting
        verdicts as ``False`` (at least one miss); ``resumed_from`` is
        kept only when unambiguous — the ambiguity is remembered in
        ``resume_conflict`` so the fold is associative and
        order-insensitive; ``metrics`` snapshots sum leaf-wise.
        """
        for field in self._COUNTER_FIELDS:
            setattr(
                self, field, getattr(self, field) + getattr(other, field)
            )
        if other.plan_cache_hit is not None:
            if self.plan_cache_hit is None:
                self.plan_cache_hit = other.plan_cache_hit
            elif self.plan_cache_hit != other.plan_cache_hit:
                self.plan_cache_hit = False
        if (
            self.resume_conflict
            or other.resume_conflict
            or (
                self.resumed_from is not None
                and other.resumed_from is not None
                and self.resumed_from != other.resumed_from
            )
        ):
            self.resume_conflict = True
            self.resumed_from = None
        elif self.resumed_from is None:
            self.resumed_from = other.resumed_from
        if other.metrics is not None:
            from ..obs.metrics import merge_snapshots

            self.metrics = merge_snapshots(self.metrics, other.metrics)
        return self


# -- error-propagating lift evaluation ---------------------------------------


def wrap_lift(
    stream: str,
    func_name: str,
    impl: Callable[..., Any],
    policy: ErrorPolicy,
) -> Callable[..., Any]:
    """Wrap a bound lift implementation with the error policy.

    The wrapper receives ``(report, ts, *args)`` — the code generators
    thread the monitor's live report and the current timestamp through.
    :class:`AliasGuardError` is deliberately *not* absorbed: it signals
    a monitor bug (a failed alias-guard check), never a data fault, and
    converting it into a stream error would silence the sanitizer.
    """
    fail_fast = policy is ErrorPolicy.FAIL_FAST
    substitute = policy is ErrorPolicy.SUBSTITUTE_DEFAULT

    def wrapped(report: RunReport, ts: int, *args: Any) -> Any:
        for arg in args:
            if arg.__class__ is ErrorValue:
                if fail_fast:
                    raise LiftError(
                        f"stream {stream!r} consumed an error value at"
                        f" t={ts}: {arg.message}"
                    )
                if substitute:
                    report.errors_substituted += 1
                    return None
                report.errors_propagated += 1
                return arg
        try:
            return impl(*args)
        except AliasGuardError:
            raise
        except Exception as exc:
            report.lift_errors += 1
            if fail_fast:
                raise LiftError(
                    f"lift {func_name!r} on stream {stream!r} raised at"
                    f" t={ts}: {type(exc).__name__}: {exc}"
                ) from exc
            if substitute:
                report.errors_substituted += 1
                return None
            return ErrorValue(
                f"{func_name}: {type(exc).__name__}: {exc}",
                origin=stream,
                ts=ts,
            )

    return wrapped


def delay_next(report: RunReport, ts: int, amount: Any) -> Optional[int]:
    """Next pending timestamp for a ``delay`` re-arm, error-tolerant.

    An error-valued delay amount cannot schedule a meaningful wake-up;
    the re-arm is dropped and counted instead of crashing on ``ts +
    error``.
    """
    if amount is None:
        return None
    if amount.__class__ is not ErrorValue:
        try:
            # Delay amounts must be strictly positive (a re-arm into
            # the past would violate timestamp monotonicity); the
            # comparison also rejects NaN, and non-numeric corruption
            # lands in the TypeError arm.
            if amount > 0:
                return ts + amount
        except TypeError:
            pass
    report.delay_errors += 1
    return None


# -- input validation --------------------------------------------------------

_SCALAR_CHECKS: Dict[Any, Callable[[Any], bool]] = {
    ty.INT: lambda v: isinstance(v, int) and not isinstance(v, bool),
    ty.TIME: lambda v: isinstance(v, int) and not isinstance(v, bool),
    ty.FLOAT: lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
    ty.BOOL: lambda v: isinstance(v, bool),
    ty.STR: lambda v: isinstance(v, str),
    ty.UNIT: lambda v: v == () and isinstance(v, tuple),
}


def validate_value(value: Any, expected: Optional[ty.Type]) -> bool:
    """True iff *value* is a legal runtime value of type *expected*.

    Unknown or polymorphic types validate trivially — validation only
    rejects what is *provably* wrong.
    """
    if expected is None or isinstance(expected, ty.TypeVar):
        return True
    check = _SCALAR_CHECKS.get(expected)
    if check is not None:
        return check(value)
    if isinstance(expected, ty.SetType):
        return isinstance(value, SetBase)
    if isinstance(expected, ty.MapType):
        return isinstance(value, MapBase)
    if isinstance(expected, ty.QueueType):
        return isinstance(value, QueueBase)
    if isinstance(expected, ty.VectorType):
        return isinstance(value, VectorBase)
    return True


# -- the hardened event-loop driver ------------------------------------------


class MonitorRunner:
    """Drives a compiled monitor with validation, checkpoints, recovery.

    The runner owns the monitor instance and its :class:`RunReport`
    (shared with the generated code's error counters), validates input
    values when asked, writes a durable checkpoint every
    ``checkpoint_every`` consumed events, and — via :meth:`resume` —
    restarts from the newest valid checkpoint such that replaying the
    same trace yields exactly the uninterrupted run's outputs.

    :meth:`feed_batch` is the bulk ingestion path: counters and the
    checkpoint cadence are amortized over whole timestamp-sorted
    batches driven through the monitor's ``feed_batch`` hot path.
    """

    def __init__(
        self,
        compiled: Any,
        on_output: Optional[Callable[[str, int, Any], None]] = None,
        *,
        validate_inputs: bool = False,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 1000,
        checkpoint_keep: int = 3,
        on_checkpoint: Optional[Callable[[], None]] = None,
        checkpoint_gate: Optional[Callable[[], bool]] = None,
        report: Optional[RunReport] = None,
    ) -> None:
        self.compiled = compiled
        self.policy: Optional[ErrorPolicy] = getattr(
            compiled, "error_policy", None
        )
        self.report = report if report is not None else RunReport()
        self.validate_inputs = validate_inputs
        #: Input-type table for validation, resolved lazily so runs
        #: with ``validate_inputs=False`` never force a deferred flat
        #: spec (text-keyed plan-cache hits skip parsing entirely).
        self._types: Optional[Dict[str, ty.Type]] = None
        self.monitor = compiled.new_monitor(on_output)
        # The monitor counts its outputs and errors into our report.
        self.monitor._report = self.report
        self.report.plan_cache_hit = getattr(
            compiled, "plan_cache_hit", None
        )
        #: Position in the (full) input event sequence; the resume
        #: offset recorded in every checkpoint.
        self.events_consumed = 0
        #: Called immediately before each checkpoint file is written.
        #: The exactness guarantee needs the output sink durable up to
        #: the checkpoint's ``outputs_emitted`` watermark — a buffered
        #: sink must flush here, or a hard kill can leave the file
        #: behind the watermark and resume past a hole.
        self._pre_checkpoint = on_checkpoint or (lambda: None)
        #: Consulted before every checkpoint write.  Resume replays the
        #: original trace from offset ``events_consumed``, so a
        #: checkpoint is only sound while the delivery order seen so
        #: far is a prefix of what a fresh read of the full input would
        #: deliver.  A tolerant reader's end-of-input drain breaks that
        #: (buffered events flush early, in positions a longer read
        #: would never produce), so ingestion passes a gate that turns
        #: False once draining begins.
        self._checkpoint_gate = checkpoint_gate or (lambda: True)
        self._manager: Optional[CheckpointManager] = None
        if checkpoint_dir is not None:
            # Prefer the full plan fingerprint (spec content + every
            # result-shaping option: backend, alias_guard, error
            # policy, engine, …) so a monitor never resumes from a
            # checkpoint written under different compile options.
            fingerprint = getattr(
                compiled, "fingerprint", None
            ) or spec_fingerprint(compiled.flat)
            self._manager = CheckpointManager(
                checkpoint_dir,
                every=checkpoint_every,
                keep=checkpoint_keep,
                fingerprint=fingerprint,
            )

    def _expected_type(self, name: str) -> Any:
        if self._types is None:
            self._types = dict(
                getattr(self.compiled.flat, "types", None) or {}
            )
        return self._types.get(name)

    # -- input path ------------------------------------------------------

    def push(self, name: str, ts: int, value: Any) -> None:
        """Feed one input event through validation and checkpointing."""
        self.report.events_in += 1
        self.events_consumed += 1
        if self.validate_inputs:
            expected = self._expected_type(name)
            if not validate_value(value, expected):
                self.report.invalid_inputs += 1
                policy = self.policy or ErrorPolicy.FAIL_FAST
                if policy is ErrorPolicy.FAIL_FAST:
                    raise MonitorError(
                        f"invalid value {value!r} for input {name!r} at"
                        f" t={ts}: expected {expected}"
                    )
                if policy is ErrorPolicy.SUBSTITUTE_DEFAULT:
                    self._maybe_checkpoint()
                    return
                value = ErrorValue(
                    f"invalid input value {value!r}: expected {expected}",
                    origin=name,
                    ts=ts,
                )
        self.monitor.push(name, ts, value)
        self._maybe_checkpoint()

    def feed(self, events: Iterable[Tuple[int, str, Any]]) -> None:
        """Feed ``(ts, name, value)`` events from the *current* offset."""
        if self.validate_inputs or self._manager is not None:
            for ts, name, value in events:
                self.push(name, ts, value)
            return
        # Fast path: no per-event validation and no checkpoint cadence
        # to track, so the counters can be bulk-updated around a bare
        # push loop instead of paying :meth:`push` per event.
        push = self.monitor.push
        count = 0
        try:
            for ts, name, value in events:
                count += 1
                push(name, ts, value)
        finally:
            self.report.events_in += count
            self.events_consumed += count

    def feed_batch(self, events: Iterable[Tuple[int, str, Any]]) -> int:
        """Feed one timestamp-sorted batch through the batch hot path.

        Counters, validation and the checkpoint cadence are amortized
        over the whole batch: validation runs as a pre-pass over the
        batch (under ``FAIL_FAST`` an invalid value therefore aborts
        before *any* event of the batch is consumed), and at most one
        checkpoint is written per batch, when a cadence boundary was
        crossed.  Returns the number of events consumed.
        """
        if TRACER.enabled:
            with TRACER.span("run.batch"):
                return self._feed_batch(events)
        return self._feed_batch(events)

    def _feed_batch(self, events: Iterable[Tuple[int, str, Any]]) -> int:
        if not isinstance(events, list):
            events = list(events)
        if not events:
            # An empty batch is an exact no-op: no counters move, no
            # batch is recorded, no checkpoint cadence is consulted.
            return 0
        presented = len(events)
        dropped = 0
        if self.validate_inputs:
            kept = []
            for ts, name, value in events:
                expected = self._expected_type(name)
                if not validate_value(value, expected):
                    self.report.invalid_inputs += 1
                    policy = self.policy or ErrorPolicy.FAIL_FAST
                    if policy is ErrorPolicy.FAIL_FAST:
                        raise MonitorError(
                            f"invalid value {value!r} for input {name!r}"
                            f" at t={ts}: expected {expected}"
                        )
                    if policy is ErrorPolicy.SUBSTITUTE_DEFAULT:
                        continue
                    value = ErrorValue(
                        f"invalid input value {value!r}: expected"
                        f" {expected}",
                        origin=name,
                        ts=ts,
                    )
                kept.append((ts, name, value))
            dropped = presented - len(kept)
            events = kept
        before = self.events_consumed
        consumed = self.monitor.feed_batch(events)
        self.report.events_in += consumed + dropped
        self.events_consumed += consumed + dropped
        self.report.batches += 1
        if (
            self._manager is not None
            and self._manager.due_since(before, self.events_consumed)
            and self._checkpoint_gate()
        ):
            self._pre_checkpoint()
            self._manager.write(
                self.monitor, self.events_consumed, self.report.events_out
            )
            self.report.checkpoints_written += 1
        return consumed

    def feed_columns(self, timestamps: Any, columns: Any) -> int:
        """Feed dense columnar input (shared timestamps + value arrays).

        The columnar fast path hands the arrays to the monitor's
        ``feed_columns`` — zero-copy under the vector engine, a row
        shim elsewhere — and amortizes counters over the whole block.
        Runs with input validation or a checkpoint cadence fall back to
        the row conversion here so both run through the audited
        :meth:`feed_batch` path; outputs are byte-identical either way.
        """
        if self.validate_inputs or self._manager is not None:
            inputs = getattr(self.monitor, "INPUTS", ())
            ts_list = (
                timestamps.tolist()
                if hasattr(timestamps, "tolist")
                else list(timestamps)
            )
            converted = validate_columns(
                ts_list,
                columns,
                inputs,
                getattr(self.monitor, "_done_ts", -1),
            )
            if not ts_list:
                return 0
            names = [n for n in inputs if n in converted]
            events = [
                (ts, name, converted[name][index])
                for index, ts in enumerate(ts_list)
                for name in names
            ]
            return self.feed_batch(events)
        if TRACER.enabled:
            with TRACER.span("run.batch"):
                return self._feed_columns(timestamps, columns)
        return self._feed_columns(timestamps, columns)

    def _feed_columns(self, timestamps: Any, columns: Any) -> int:
        consumed = self.monitor.feed_columns(timestamps, columns)
        if consumed:
            self.report.events_in += consumed
            self.events_consumed += consumed
            self.report.batches += 1
        return consumed

    def feed_from_start(
        self, events: Iterable[Tuple[int, str, Any]]
    ) -> None:
        """Feed a whole trace, skipping events consumed pre-checkpoint.

        Use after :meth:`resume`: pass the same full event sequence the
        crashed run was fed; the first ``events_consumed`` events are
        skipped (they are already reflected in the restored state) and
        counted in the report.
        """
        skip = self.events_consumed
        for index, (ts, name, value) in enumerate(events):
            if index < skip:
                continue
            self.push(name, ts, value)
        self.report.events_skipped_on_resume = skip

    def finish(self, end_time: Optional[int] = None) -> RunReport:
        self.monitor.finish(end_time=end_time)
        return self.report

    def run(
        self,
        events: Iterable[Tuple[int, str, Any]],
        end_time: Optional[int] = None,
        batch_size: Optional[int] = None,
    ) -> RunReport:
        """Feed a whole event sequence and finish.

        With ``batch_size`` set, events are driven through
        :meth:`feed_batch` in timestamp-aligned chunks of roughly that
        size (one timestamp never spans two batches); otherwise the
        per-event :meth:`feed` path is used.
        """
        if batch_size is not None:
            from ..semantics.traceio import batch_events

            for batch in batch_events(events, batch_size):
                self.feed_batch(batch)
        else:
            self.feed(events)
        return self.finish(end_time=end_time)

    # -- checkpointing ---------------------------------------------------

    def checkpoint(self) -> Optional[str]:
        """Force a durable checkpoint now (no-op without a directory).

        Also a no-op while the checkpoint gate is closed: a forced
        checkpoint of non-replayable progress would be just as unsound
        as a cadence one.
        """
        if self._manager is None or not self._checkpoint_gate():
            return None
        self._pre_checkpoint()
        path = self._manager.write(
            self.monitor, self.events_consumed, self.report.events_out
        )
        self.report.checkpoints_written += 1
        return path

    def _maybe_checkpoint(self) -> None:
        if (
            self._manager is not None
            and self._manager.due(self.events_consumed)
            and self._checkpoint_gate()
        ):
            self._pre_checkpoint()
            self._manager.write(
                self.monitor, self.events_consumed, self.report.events_out
            )
            self.report.checkpoints_written += 1

    @classmethod
    def resume(
        cls,
        compiled: Any,
        checkpoint_dir: str,
        on_output: Optional[Callable[[str, int, Any], None]] = None,
        **kwargs: Any,
    ) -> Tuple["MonitorRunner", Optional[Dict[str, Any]]]:
        """A runner restored from the newest valid checkpoint.

        Returns ``(runner, meta)``; ``meta`` is ``None`` when no valid
        checkpoint exists (the runner then starts fresh).  The caller
        feeds the full original trace through :meth:`feed_from_start`
        and truncates any output sink to ``meta["outputs_emitted"]``
        records — together that reproduces the uninterrupted run
        exactly.
        """
        runner = cls(
            compiled, on_output, checkpoint_dir=checkpoint_dir, **kwargs
        )
        assert runner._manager is not None
        found = runner._manager.latest()
        if found is None:
            return runner, None
        path, state, meta = found
        runner.monitor.restore(state)
        runner.events_consumed = meta.get("events_consumed", 0)
        runner.report.events_out = meta.get("outputs_emitted", 0)
        runner.report.resumed_from = path
        return runner, meta
