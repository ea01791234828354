"""Monitor runtime: the triggering section (paper §III-B).

Monitor classes derive from :class:`MonitorBase`, which owns the
event-driven outer loop: input events arrive in chronological order
via :meth:`push`; whenever the timestamp advances, the pending
*calculation section* (the engine's ``_run_calc``: codegen runs its
generated ``_calc_rows``, vector its scalar half) runs, and any ``delay``
timestamps falling strictly before the new input timestamp are processed
in between — exactly the paper's triggering loop.  :meth:`finish`
corresponds to "when receiving the end of the input t is set to ∞".

Timestamp 0 is always processed (the ``unit`` event and all constants
live there) before any later timestamp.

The batch form of the triggering section, :meth:`MonitorBase.feed_batch`,
is shared by both engines too: one loop groups a batch's events into
*rows* — ``(ts, v_<input>...)`` in ``INPUTS`` order, ``None`` where a
stream has no event — enforcing ``push``'s protocol checks, and hands
the completed rows to the engine's ``_calc_batch`` (timestamp 0 to its
``_calc0``).
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..structures.interface import MapBase, QueueBase, SetBase, VectorBase

#: The unit value carried by ``unit`` and ``delay`` events.
UNIT_VALUE: Tuple = ()

OutputCallback = Callable[[str, int, Any], None]

_NONE_PAYLOAD = "None is the no-event value; not a valid payload"


class MonitorError(Exception):
    """Raised on protocol violations (out-of-order events, bad names)."""


def freeze(value: Any) -> Any:
    """Snapshot a (possibly mutable) monitor output for safe retention.

    Mutable aggregates emitted by optimized monitors are updated in
    place afterwards; anyone storing outputs instead of serializing them
    immediately must freeze them first.

    The frozen form is *canonical*: two aggregates equal as collections
    freeze to equal (and hashable) values regardless of backend or
    iteration order.  Maps freeze to a ``frozenset`` of ``(key, value)``
    pairs — sorting by key ``repr`` (the previous scheme) is not
    canonical, because two distinct keys may share a ``repr`` and then
    the tuple order depends on insertion order.  The bare collections
    of certified-mutable families freeze like their wrappers: ``set``
    to a ``frozenset``, ``dict`` to a ``frozenset`` of items, ``deque``
    and ``list`` to a ``tuple``.
    """
    if isinstance(value, (SetBase, set)):
        return frozenset(value)
    if isinstance(value, (MapBase, dict)):
        return frozenset(value.items())
    if isinstance(value, (QueueBase, VectorBase, deque, list)):
        return tuple(value)
    return value


def validate_columns(
    ts_list: List[int],
    columns: Mapping[str, Any],
    inputs: Iterable[str],
    done_ts: int,
) -> Dict[str, list]:
    """Eagerly validate a columnar batch; return row-converted columns.

    One validation pass shared by every ``feed_columns`` entry point
    (the base row shim, the runner's validating row conversion), with
    checks and messages matching the vector engine's eager columnar
    validation exactly — so rejecting a bad batch is byte-identical
    across engines and never makes partial progress.  Raises
    :class:`MonitorError`; the (possibly empty) ``ts_list`` itself is
    only checked when non-empty, mirroring the vector path.
    """
    converted: Dict[str, list] = {}
    input_set = set(inputs)
    for name, column in columns.items():
        if name not in input_set:
            raise MonitorError(f"unknown input stream {name!r}")
        values = (
            column.tolist() if hasattr(column, "tolist") else list(column)
        )
        if len(values) != len(ts_list):
            raise MonitorError(
                f"column {name!r} has {len(values)} values for"
                f" {len(ts_list)} timestamps"
            )
        # Dense semantics: a hole is not expressible as None (that is
        # the no-event value).  Numeric numpy columns cannot hold None,
        # so scanning the row-converted values matches the vector
        # engine's object-dtype scan.
        if any(value is None for value in values):
            raise MonitorError(
                "None is the no-event value; not a valid payload"
            )
        converted[name] = values
    if not ts_list:
        return converted
    if ts_list[0] < 0:
        raise MonitorError(f"negative timestamp {ts_list[0]}")
    if ts_list[0] <= done_ts:
        raise MonitorError(
            f"event at t={ts_list[0]} arrived after t={done_ts}"
            " was calculated"
        )
    prev = ts_list[0]
    for ts in ts_list[1:]:
        if ts <= prev:
            raise MonitorError(
                "feed_columns() timestamps must be strictly increasing"
            )
        prev = ts
    return converted


def _tuple_getter(attrs: Sequence[str]) -> Callable[[Any], tuple]:
    """``obj → tuple of its attributes attrs``, in C where ``attrgetter``
    allows.

    State is read and written attribute by attribute, never through
    the instance ``__dict__``: on CPython 3.11+ touching an instance's
    ``__dict__`` makes every later attribute access on it slower.
    """
    if len(attrs) > 1:
        return attrgetter(*attrs)
    if attrs:
        get = attrgetter(attrs[0])
        return lambda obj: (get(obj),)
    return lambda obj: ()


class MonitorBase:
    """Base class of all generated monitors."""

    #: Overridden by generated subclasses.
    INPUTS: Tuple[str, ...] = ()
    OUTPUTS: Tuple[str, ...] = ()
    HAS_DELAYS: bool = False
    #: Derived from ``INPUTS`` for every subclass: input name →
    #: ``_in_<name>`` attribute, those attributes in ``INPUTS`` order,
    #: and input name → position in a row (slot 0 is the timestamp).
    INPUT_ATTRS: Mapping[str, str] = {}
    IN_ATTRS: Tuple[str, ...] = ()
    ROW_SLOT: Mapping[str, int] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.INPUT_ATTRS = {name: "_in_" + name for name in cls.INPUTS}
        cls.IN_ATTRS = tuple("_in_" + name for name in cls.INPUTS)
        cls.ROW_SLOT = {name: k + 1 for k, name in enumerate(cls.INPUTS)}
        cls._inputs_of = staticmethod(_tuple_getter(cls.IN_ATTRS))

    def __init__(self, on_output: Optional[OutputCallback] = None) -> None:
        from .runtime import RunReport  # runtime imports this module

        self._on_output: OutputCallback = on_output or (lambda n, t, v: None)
        #: The run's counters: the engines' emitters count outputs into
        #: ``events_out`` themselves (a :class:`MonitorRunner` installs
        #: its own report here).
        self._report = RunReport()
        self._pending_ts: Optional[int] = None
        self._done_ts: int = -1
        self._finished = False
        self._init_state()

    #: Why the monitor stopped before :meth:`finish`, else ``None``.
    _stopped: Optional[str] = None

    def _stop(self, reason: str) -> None:
        """Refuse every further call: the state is no longer usable."""
        self._finished = True
        self._stopped = reason

    def _closed(self, call: str) -> MonitorError:
        if self._stopped is not None:
            return MonitorError(f"{call}() after {self._stopped}")
        return MonitorError(f"{call}() after finish()")

    # -- generated hooks ---------------------------------------------------

    def _init_state(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _run_calc(self, ts: int) -> None:  # pragma: no cover - overridden
        """The calculation section at *ts* over the pending inputs."""
        raise NotImplementedError

    def _calc0(self, row: Sequence[Any]) -> None:  # pragma: no cover
        """The calculation section at timestamp 0 over one *row*."""
        raise NotImplementedError

    def _calc_batch(self, rows: List[tuple]) -> None:  # pragma: no cover
        """The calculation section over the completed *rows* of one
        :meth:`feed_batch` call, all after timestamp 0, and the delay
        timestamps due before the pending one; sets ``_done_ts``."""
        raise NotImplementedError

    def _next_delay(self) -> Optional[int]:
        """Earliest pending ``delay`` timestamp; None when none pending."""
        return None

    # -- internal loop -------------------------------------------------------

    def _catch_up(self, ts: Optional[int]) -> None:
        """Process internally-generated timestamps strictly before *ts*
        (all of them when *ts* is None)."""
        if self._done_ts < 0 and (ts is None or ts > 0):
            self._run_calc(0)
        if not self.HAS_DELAYS:
            return
        while True:
            next_delay = self._next_delay()
            if next_delay is None:
                break
            if ts is not None and next_delay >= ts:
                break
            self._run_calc(next_delay)

    def _flush(self) -> None:
        if self._pending_ts is not None:
            self._run_calc(self._pending_ts)
            self._pending_ts = None

    # -- public protocol -------------------------------------------------

    def push(self, name: str, ts: int, value: Any) -> None:
        """Feed one input event; timestamps must be non-decreasing."""
        if self._finished:
            raise self._closed("push")
        attr = self.INPUT_ATTRS.get(name)
        if attr is None:
            raise MonitorError(f"unknown input stream {name!r}")
        if value is None:
            raise MonitorError("None is the no-event value; not a valid payload")
        if ts < 0:
            raise MonitorError(f"negative timestamp {ts}")
        if ts <= self._done_ts:
            raise MonitorError(
                f"event at t={ts} arrived after t={self._done_ts} was calculated"
            )
        if self._pending_ts is None:
            self._catch_up(ts)
            self._pending_ts = ts
        elif ts > self._pending_ts:
            self._flush()
            self._catch_up(ts)
            self._pending_ts = ts
        elif ts < self._pending_ts:
            raise MonitorError(
                f"out-of-order event: t={ts} after t={self._pending_ts}"
            )
        setattr(self, attr, value)

    def feed_batch(self, events: Iterable[Tuple[int, str, Any]]) -> int:
        """Group a timestamp-sorted batch of ``(ts, name, value)`` events
        into rows and run them through one ``_calc_batch`` call.

        Same protocol checks and messages as :meth:`push`; events of the
        last timestamp stay pending, and a second event of one stream at
        one timestamp overwrites the first, as with ``push``.  On a
        protocol error, the rows completed before the offending event
        are still calculated (the partial progress a ``push`` loop
        makes).  An exception raised *by the calculation* (a lift
        without an error policy, the output callback) stops the monitor
        instead: the batch's events are consumed by then, so no state
        would match a ``push`` loop's; every later call raises
        :class:`MonitorError`.  Raised while a protocol error is pending,
        the calculation error wins (a ``push`` loop meets it first).
        """
        if self._finished:
            raise self._closed("feed_batch")
        rows: List[tuple] = []
        try:
            if len(self.INPUTS) == 1:
                return self._rows_of_one(events, rows)
            return self._rows_of_many(events, rows)
        finally:
            if rows or self.HAS_DELAYS:
                try:
                    self._calc_batch(rows)
                except BaseException as exc:
                    self._stop(f"feed_batch() raised {type(exc).__name__}")
                    raise

    def _first_row(self, ts: int) -> None:
        """Checks for a batch's first new timestamp; calculates
        timestamp 0 first when *ts* skips it."""
        if ts < 0:
            raise MonitorError(f"negative timestamp {ts}")
        done = self._done_ts
        if ts <= done:
            raise MonitorError(
                f"event at t={ts} arrived after t={done} was calculated"
            )
        if done < 0 and ts > 0:
            self._calc0((0,) + (None,) * len(self.INPUTS))
            self._done_ts = 0

    def _rows_of_one(self, events: Iterable[tuple], rows: List[tuple]) -> int:
        """:meth:`feed_batch`'s grouping loop for a single input."""
        only, attr = self.INPUTS[0], self.IN_ATTRS[0]
        current = getattr(self, attr)
        pending = self._pending_ts
        append = rows.append
        count = 0
        try:
            for ts, name, value in events:
                if name != only:
                    raise MonitorError(f"unknown input stream {name!r}")
                if value is None:
                    raise MonitorError(_NONE_PAYLOAD)
                if ts != pending:
                    if pending is None:
                        self._first_row(ts)
                    elif ts < pending:
                        raise MonitorError(
                            f"out-of-order event: t={ts} after t={pending}"
                        )
                    elif pending:
                        append((pending, current))
                    else:
                        self._calc0((0, current))
                        self._done_ts = 0
                    pending = ts
                current = value
                count += 1
        finally:
            self._pending_ts = pending
            setattr(self, attr, current)
        return count

    def _rows_of_many(self, events: Iterable[tuple], rows: List[tuple]) -> int:
        """:meth:`feed_batch`'s grouping loop for several inputs."""
        slot_of = self.ROW_SLOT
        attrs = self.IN_ATTRS
        blank = (None,) * len(attrs)
        pending = self._pending_ts
        row: List[Any] = [pending]
        row += self._inputs_of(self)
        append = rows.append
        count = 0
        try:
            for ts, name, value in events:
                slot = slot_of.get(name)
                if slot is None:
                    raise MonitorError(f"unknown input stream {name!r}")
                if value is None:
                    raise MonitorError(_NONE_PAYLOAD)
                if ts != pending:
                    if pending is None:
                        self._first_row(ts)
                    elif ts < pending:
                        raise MonitorError(
                            f"out-of-order event: t={ts} after t={pending}"
                        )
                    else:
                        row[0] = pending
                        if pending:
                            append(tuple(row))
                        else:
                            self._calc0(row)
                            self._done_ts = 0
                        row[1:] = blank
                    pending = ts
                row[slot] = value
                count += 1
        finally:
            self._pending_ts = pending
            for attr, value in zip(attrs, row[1:]):
                setattr(self, attr, value)
        return count

    def feed_columns(
        self,
        timestamps: Any,
        columns: Any,
    ) -> int:
        """Feed dense columnar input: shared timestamps plus one value
        array per stream.

        Every stream in *columns* has an event at every timestamp;
        streams absent from *columns* have none.  Timestamps must be
        strictly increasing.  This base implementation is a row-
        conversion shim over :meth:`feed_batch` (numpy scalars are
        converted back to Python values so outputs stay byte-identical
        across engines); the vector engine overrides it with a
        zero-copy columnar path.
        """
        ts_list = (
            timestamps.tolist()
            if hasattr(timestamps, "tolist")
            else list(timestamps)
        )
        converted = validate_columns(
            ts_list, columns, self.INPUTS, self._done_ts
        )
        if not ts_list:
            return 0
        names = [n for n in self.INPUTS if n in converted]
        events = []
        append = events.append
        for index, ts in enumerate(ts_list):
            for name in names:
                append((ts, name, converted[name][index]))
        return self.feed_batch(events)

    def finish(
        self, end_time: Optional[int] = None, max_steps: int = 1_000_000
    ) -> None:
        """End of input: process everything still pending (t := ∞).

        ``end_time`` bounds self-perpetuating delays; without it a
        runaway periodic clock trips the ``max_steps`` guard.
        """
        if self._finished:
            if self._stopped is not None:
                raise self._closed("finish")
            return
        self._flush()
        if self._done_ts < 0:
            self._run_calc(0)
        if self.HAS_DELAYS:
            steps = 0
            while True:
                next_delay = self._next_delay()
                if next_delay is None:
                    break
                if end_time is not None and next_delay > end_time:
                    break
                steps += 1
                if steps > max_steps:
                    raise MonitorError(
                        f"more than {max_steps} delay steps after end of"
                        " input; pass end_time to bound the monitor"
                    )
                self._run_calc(next_delay)
        self._finished = True

    def advance(self, ts: int) -> None:
        """Declare that no input event will arrive before *ts*.

        Processes everything internally scheduled strictly before *ts*
        (pending input timestamps and due ``delay`` events) without
        requiring an input event — how a live monitor driven by a
        wall clock emits timeouts (e.g. the watchdog spec) while inputs
        are silent.
        """
        if self._finished:
            raise self._closed("advance")
        if ts < 0:
            raise MonitorError(f"negative timestamp {ts}")
        if self._pending_ts is not None:
            if ts <= self._pending_ts:
                return  # nothing new is known
            self._flush()
        self._catch_up(ts)

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Capture the monitor's full state for later :meth:`restore`.

        Mutable aggregates are cloned so the checkpoint stays valid
        while the monitor keeps updating in place.  The output callback
        and the run report (live fault counters, see
        :mod:`repro.compiler.runtime`) are not part of the state.
        """
        from ..structures.clone import clone_value

        state: Dict[str, Any] = {}
        for key, value in vars(self).items():
            if key in ("_on_output", "_report"):
                continue
            if isinstance(value, dict):
                state[key] = {k: clone_value(v) for k, v in value.items()}
            else:
                state[key] = clone_value(value)
        return state

    def restore(self, state: Mapping[str, Any]) -> None:
        """Reset the monitor to a :meth:`snapshot`'s state.

        The snapshot itself is cloned again, so one checkpoint can be
        restored any number of times.
        """
        from ..structures.clone import clone_value

        for key, value in state.items():
            if key in ("_on_output", "_report"):
                continue
            if isinstance(value, dict):
                setattr(
                    self, key, {k: clone_value(v) for k, v in value.items()}
                )
            else:
                setattr(self, key, clone_value(value))

    # -- convenience -------------------------------------------------------

    def run_traces(
        self,
        inputs: Mapping[str, Any],
        end_time: Optional[int] = None,
    ) -> None:
        """Feed whole input traces (Streams or event lists) and finish."""
        events: List[Tuple[int, str, Any]] = []
        for name, trace in inputs.items():
            for ts, value in trace:
                events.append((ts, name, value))
        events.sort(key=lambda e: e[0])
        for ts, name, value in events:
            self.push(name, ts, value)
        self.finish(end_time=end_time)


def collecting_callback() -> Tuple[OutputCallback, Dict[str, List[Tuple[int, Any]]]]:
    """An output callback that records frozen events per output stream."""
    collected: Dict[str, List[Tuple[int, Any]]] = {}
    def on_output(name: str, ts: int, value: Any) -> None:
        collected.setdefault(name, []).append((ts, freeze(value)))

    return on_output, collected


def counting_callback() -> Tuple[OutputCallback, List[int]]:
    """An output callback that only counts events (for benchmarks)."""
    counter = [0]

    def on_output(name: str, ts: int, value: Any) -> None:
        counter[0] += 1

    return on_output, counter
