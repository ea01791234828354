"""Trace serialization in the TeSSLa textual trace format.

Real TeSSLa tooling exchanges traces as lines of::

    timestamp: stream = value
    timestamp: stream            -- unit event

with ``--``/``#`` comments and blank lines ignored.  Values are the
literals of the specification language: integers, floats, ``true`` /
``false``, double-quoted strings and ``()`` for unit — plus
``error("...")`` for first-class error events (written by monitors
running under :class:`~repro.errors.ErrorPolicy.PROPAGATE`).  This
module reads and writes that format so monitors can consume and produce
files interchangeable with other TeSSLa implementations.

Two ingestion modes:

* :func:`read_trace` — strict: any malformed line, negative timestamp,
  or duplicate event raises :class:`TraceError` naming the line.
  :func:`iter_trace_events` with the default policy is the streaming
  strict reader; both parse blocks of lines at a time and read a block
  line by line only when it holds anything but ``<ts>: <name> = <int>``
  lines.
* :class:`TolerantReader` / :func:`read_trace_tolerant` — configurable
  via :class:`IngestPolicy`: malformed lines and unknown streams can be
  skipped and counted, out-of-order events can be dropped or repaired
  through a bounded reorder buffer (``max_skew``), and everything
  abnormal is recorded in an :class:`IngestStats`.
"""

from __future__ import annotations

import heapq
import json
import re
from dataclasses import dataclass
from itertools import chain, islice
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    TextIO,
    Tuple,
    Union,
)

from ..errors import ErrorValue

Event = Tuple[int, Any]
Traces = Dict[str, List[Event]]
#: A fully-parsed trace event: (timestamp, stream, value).
TraceEvent = Tuple[int, str, Any]


class TraceError(Exception):
    """Raised on malformed trace text."""


_LINE_RE = re.compile(
    r"^\s*(?P<ts>-?\d+)\s*:\s*(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"\s*(?:=\s*(?P<value>.+?))?\s*$"
)

#: The dominant line shape, ``<ts>: <name> = <int>`` with ASCII digits
#: and space/tab padding (plus the ``\n`` file iteration leaves on).
#: Every line it matches parses to the same event on the general path;
#: anything else (comments, signs on the timestamp, ``+5``, other
#: literals, other whitespace) falls through to that path.
_FAST_LINE_RE = re.compile(
    r"([0-9]+):[ \t]*([A-Za-z_][A-Za-z0-9_]*)[ \t]*=[ \t]*(-?[0-9]+)[ \t]*\n?"
)

_INT_RE = re.compile(r"[+-]?\d+\Z")
_FLOAT_RE = re.compile(
    r"[+-]?(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?\Z|[+-]?\d+[eE][+-]?\d+\Z"
)
_ERROR_RE = re.compile(r'error\((".*")\)\Z', re.DOTALL)


def parse_value(text: str) -> Any:
    """Parse one value literal of the trace format.

    Only the trace format's own literals are accepted: integers,
    floats, ``true``/``false``, double-quoted (JSON-escaped) strings,
    ``()``, and ``error("...")``.  Arbitrary Python literals — lists,
    dicts, tuples, ``None`` — are rejected: aggregate values have no
    trace representation, and silently materializing them produced
    monitors fed with values no TeSSLa implementation could emit.
    """
    text = text.strip()
    if text == "()":
        return ()
    if text == "true":
        return True
    if text == "false":
        return False
    if _INT_RE.match(text):
        return int(text)
    if _FLOAT_RE.match(text):
        return float(text)
    if text.startswith('"'):
        try:
            value = json.loads(text)
        except ValueError:
            raise TraceError(
                f"cannot parse string literal {text!r}"
            ) from None
        if isinstance(value, str):
            return value
        raise TraceError(f"cannot parse string literal {text!r}")
    match = _ERROR_RE.match(text)
    if match is not None:
        try:
            message = json.loads(match.group(1))
        except ValueError:
            message = None
        if isinstance(message, str):
            return ErrorValue(message)
        raise TraceError(f"cannot parse error literal {text!r}")
    raise TraceError(
        f"cannot parse value {text!r}: expected an integer, float,"
        ' true/false, a double-quoted string, (), or error("...")'
    )


def format_value(value: Any) -> str:
    """Render one value as a trace literal."""
    if isinstance(value, ErrorValue):
        return repr(value)  # error("<json-escaped message>")
    if value == () and isinstance(value, tuple):
        return "()"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        # JSON string escaping is a subset of Python string literals,
        # so the result always round-trips through parse_value.
        return json.dumps(value)
    return repr(value)


def parse_line(raw: str, lineno: int = 0) -> Optional[TraceEvent]:
    """Parse one trace line into ``(ts, stream, value)``.

    Returns ``None`` for blank and comment lines; raises
    :class:`TraceError` naming *lineno* for anything malformed.
    """
    match = _FAST_LINE_RE.fullmatch(raw)
    if match is not None:
        ts, name, value = match.groups()
        return int(ts), name, int(value)
    return _parse_line_general(raw, lineno)


def _parse_line_general(raw: str, lineno: int) -> Optional[TraceEvent]:
    """:func:`parse_line` for every line shape (comments, units, any
    literal, surrounding whitespace)."""
    line = raw.split("--")[0].split("#")[0].strip()
    if not line:
        return None
    match = _LINE_RE.match(line)
    if match is None:
        raise TraceError(f"line {lineno}: cannot parse {raw!r}")
    ts = int(match.group("ts"))
    if ts < 0:
        raise TraceError(f"line {lineno}: negative timestamp {ts}")
    value_text = match.group("value")
    if value_text is None:
        return ts, match.group("name"), ()
    try:
        value = parse_value(value_text)
    except TraceError as err:
        raise TraceError(f"line {lineno}: {err}") from None
    return ts, match.group("name"), value


def read_trace(source: Union[str, TextIO]) -> Traces:
    """Parse trace text (or a file object) into per-stream event lists.

    Events may arrive in any order in the text; the result is sorted by
    timestamp per stream.  Two events on one stream at one timestamp
    are rejected.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = source
    traces: Traces = {}
    blocks = _strict_blocks(text.splitlines(), IngestStats(), ordered=False)
    for block in blocks:
        for ts, name, value in block:
            traces.setdefault(name, []).append((ts, value))
    for name, events in traces.items():
        events.sort(key=lambda e: e[0])
        for (t1, _), (t2, _) in zip(events, events[1:]):
            if t1 == t2:
                raise TraceError(
                    f"stream {name!r} has two events at timestamp {t1}"
                )
    return traces


def write_trace(traces: Mapping[str, Iterable[Event]]) -> str:
    """Render traces chronologically in the TeSSLa trace format."""
    merged: List[TraceEvent] = []
    for name, events in traces.items():
        for ts, value in events:
            merged.append((ts, name, value))
    merged.sort(key=lambda e: (e[0], e[1]))
    lines = []
    for ts, name, value in merged:
        if value == () and isinstance(value, tuple):
            lines.append(f"{ts}: {name}")
        else:
            lines.append(f"{ts}: {name} = {format_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- tolerant ingestion -------------------------------------------------------

#: Legal values for the per-fault :class:`IngestPolicy` fields.
RAISE = "raise"
SKIP = "skip"
BUFFER = "buffer"


@dataclass(frozen=True)
class IngestPolicy:
    """What a tolerant reader does with each kind of bad input.

    * ``on_malformed`` — a line (or CSV cell) that does not parse:
      ``"raise"`` or ``"skip"`` (skip records it and moves on).
    * ``on_unknown_stream`` — an event naming a stream the monitor does
      not declare (only checked when the reader knows the declared
      streams): ``"raise"`` or ``"skip"``.
    * ``on_out_of_order`` — an event with a timestamp behind the
      delivery frontier: ``"raise"``, ``"skip"`` (drop and record), or
      ``"buffer"`` (hold events back until they are ``max_skew`` ticks
      old, delivering late arrivals in order; events later than the
      window are dropped and recorded).
    * ``max_skew`` — the reorder window for ``"buffer"``: an event may
      arrive up to this many ticks after a later-stamped one and still
      be delivered in order.
    """

    on_malformed: str = RAISE
    on_unknown_stream: str = RAISE
    on_out_of_order: str = RAISE
    max_skew: int = 0

    def __post_init__(self) -> None:
        for field_name, allowed in (
            ("on_malformed", (RAISE, SKIP)),
            ("on_unknown_stream", (RAISE, SKIP)),
            ("on_out_of_order", (RAISE, SKIP, BUFFER)),
        ):
            value = getattr(self, field_name)
            if value not in allowed:
                raise ValueError(
                    f"{field_name} must be one of {allowed}, got {value!r}"
                )
        if self.max_skew < 0:
            raise ValueError("max_skew must be non-negative")


_STRICT = IngestPolicy()


@dataclass
class IngestStats:
    """Counters for one tolerant ingestion pass.

    Field names match :meth:`repro.compiler.runtime.RunReport.absorb_ingest`.
    """

    lines_read: int = 0
    events_ingested: int = 0
    malformed_lines: int = 0
    unknown_stream_events: int = 0
    out_of_order_dropped: int = 0
    #: Events that arrived behind a later-stamped one but were delivered
    #: in order thanks to the reorder buffer.
    reordered_events: int = 0
    #: Events flushed by the end-of-input drain rather than by the skew
    #: rule.  Drained deliveries are *not* replay-stable: re-reading a
    #: longer version of the same input interleaves them differently,
    #: which is why checkpoint cadences stop once draining begins.
    drained_events: int = 0


class TolerantReader:
    """Policy-driven event ingestion with bounded reordering.

    Format-agnostic: :meth:`events` takes any item iterable plus a
    parser mapping one item to ``(ts, stream, value)`` (or ``None`` to
    skip it, or raising :class:`TraceError` when malformed) — the same
    machinery serves the TeSSLa text format and the CLI's CSV reader.
    Counters accumulate in :attr:`stats` across calls.
    """

    def __init__(
        self,
        policy: Optional[IngestPolicy] = None,
        known_streams: Optional[Iterable[str]] = None,
    ) -> None:
        self.policy = policy if policy is not None else IngestPolicy()
        names = list(known_streams) if known_streams is not None else None
        self.known_streams = (
            frozenset(names) if names is not None else None
        )
        # Tie-break rank for equal-timestamp flushes: stream declaration
        # order when the caller passed an ordered iterable (FlatSpec
        # inputs are), lexicographic for unordered sets so delivery
        # never depends on hash seeds.
        if names is None:
            ordered: List[str] = []
        elif isinstance(known_streams, (set, frozenset)):
            ordered = sorted(names)
        else:
            ordered = names
        self._stream_rank = {name: i for i, name in enumerate(ordered)}
        self.stats = IngestStats()
        #: True once :meth:`events` has exhausted its input and started
        #: flushing whatever the reorder buffer still holds.  Deliveries
        #: from that point on are not replay-stable (see
        #: :attr:`IngestStats.drained_events`); checkpointing callers
        #: use this flag to stop writing checkpoints.
        self.draining = False

    def events(
        self,
        items: Iterable[Any],
        parse: Callable[[Any], Optional[TraceEvent]],
    ) -> Iterator[TraceEvent]:
        """Yield ``(ts, stream, value)`` in delivery order, per policy."""
        policy = self.policy
        stats = self.stats
        buffering = policy.on_out_of_order == BUFFER
        # Heap entries are (ts, rank, name, seq, value): equal-timestamp
        # events flush in stream-declaration order (matching a pre-sorted
        # run of the same trace), not buffer-arrival order; ``seq`` keeps
        # same-stream duplicates in arrival order and shields ``value``
        # from ever being compared.
        heap: List[Tuple[int, int, str, int, Any]] = []
        rank_of = self._stream_rank
        unknown_rank = len(rank_of)
        seq = 0
        frontier: Optional[int] = None  # highest ts already delivered
        max_seen: Optional[int] = None
        self.draining = False
        for item in items:
            stats.lines_read += 1
            try:
                parsed = parse(item)
            except TraceError:
                stats.malformed_lines += 1
                if policy.on_malformed == RAISE:
                    raise
                continue
            if parsed is None:
                continue
            ts, name, value = parsed
            if (
                self.known_streams is not None
                and name not in self.known_streams
            ):
                stats.unknown_stream_events += 1
                if policy.on_unknown_stream == RAISE:
                    raise _unknown_stream(name, ts)
                continue
            if not buffering:
                if frontier is not None and ts < frontier:
                    if policy.on_out_of_order == RAISE:
                        raise _out_of_order(name, ts, frontier)
                    stats.out_of_order_dropped += 1
                    continue
                frontier = ts
                stats.events_ingested += 1
                yield ts, name, value
                continue
            # bounded reorder buffer
            if frontier is not None and ts < frontier:
                # later than the skew window can repair: already behind
                # an event we were forced to deliver
                stats.out_of_order_dropped += 1
                continue
            if max_seen is not None and ts < max_seen:
                stats.reordered_events += 1
            heapq.heappush(
                heap, (ts, rank_of.get(name, unknown_rank), name, seq, value)
            )
            seq += 1
            if max_seen is None or ts > max_seen:
                max_seen = ts
            # everything at least max_skew ticks behind the newest
            # arrival can no longer be overtaken — deliver it
            while heap and heap[0][0] <= max_seen - policy.max_skew:
                ets, _, ename, _, evalue = heapq.heappop(heap)
                frontier = ets
                stats.events_ingested += 1
                yield ets, ename, evalue
        self.draining = True
        while heap:
            ets, _, ename, _, evalue = heapq.heappop(heap)
            stats.events_ingested += 1
            stats.drained_events += 1
            yield ets, ename, evalue


def _unknown_stream(name: str, ts: int) -> TraceError:
    return TraceError(f"unknown input stream {name!r} at t={ts}")


def _out_of_order(name: str, ts: int, frontier: int) -> TraceError:
    return TraceError(
        f"out-of-order event on {name!r}: t={ts} after t={frontier}"
    )


#: Lines the strict reader parses per block: enough to amortize the
#: per-block work, small enough that only one block is ever held.
_BLOCK_LINES = 256


def _block_columns(
    chunk: List[str],
) -> Optional[Tuple[List[int], List[str], List[int]]]:
    r"""``(timestamps, names, values)`` of a block whose every line has
    the dominant shape ``<ts>: <name> = <int>``, else ``None``.

    The whole block is tokenized with a few string-wide operations
    instead of one regex match per line.  Lines are joined with a
    `` ; `` marker and every ``:`` becomes a token of its own (every
    ``=`` too, when some ``=`` touches its neighbours), so a line of
    that shape is exactly the six tokens ``ts : name = value ;``.  The block is accepted only if its tokens
    are one such group per line: ``:`` and ``=`` in their slots, and
    timestamp, name and value tokens that are ``[0-9]+``,
    ``[A-Za-z_][A-Za-z0-9_]*`` and ``[+-]?[0-9]+``.  None of those five
    slots admits a ``;``, so the markers fill the sixth slot of every
    group, and each line holds exactly one group: no second event, no
    comment (``#`` and ``--`` fit no slot either).  Tokens split on
    whitespace exactly where the general parser's ``\s`` and ``strip``
    do, so every accepted line parses to the same event there.
    """
    lines = len(chunk)
    text = " ; ".join(chunk)
    if not text.isascii():  # str.isidentifier admits non-ASCII names
        return None
    text = (text + " ;").replace(":", " : ")
    tokens = text.split()
    if len(tokens) != 6 * lines:  # some "=" touches its neighbours
        tokens = text.replace("=", " = ").split()
    if (
        len(tokens) != 6 * lines
        or tokens[1::6].count(":") != lines
        or tokens[3::6].count("=") != lines
    ):
        return None
    stamps, names, values = tokens[0::6], tokens[2::6], tokens[4::6]
    if (
        not "".join(stamps).isdigit()
        or not all(map(str.isidentifier, set(names)))
        or "_" in "".join(values)  # int() takes "1_0"; the grammar does not
    ):
        return None
    try:
        return list(map(int, stamps)), names, list(map(int, values))
    except ValueError:  # not an integer, or a too-long one
        return None


def _strict_blocks(
    lines: Iterable[str],
    stats: IngestStats,
    known_streams: Optional[Iterable[str]] = None,
    ordered: bool = True,
) -> Iterator[List[TraceEvent]]:
    """Parse trace lines under the all-``raise`` policy, a block at a time.

    Yields lists of events.  A block of dominant-shape lines is parsed
    into columns (:func:`_block_columns`), and its timestamp order
    (when *ordered*) and stream names are checked over the whole
    block.  Any other block — comments, other literals, a fault — is
    read line by line (:func:`_strict_lines`), so the events before a
    faulty line are still yielded, the error is the one a
    line-at-a-time :class:`TolerantReader` raises, and *stats* read as
    they would after that reader raised.
    """
    known = frozenset(known_streams) if known_streams is not None else None
    lines = iter(lines)
    lineno = 0
    frontier = 0  # timestamps are non-negative: 0 admits any first event
    while True:
        chunk = list(islice(lines, _BLOCK_LINES))
        if not chunk:
            return
        block: Optional[List[TraceEvent]] = None
        columns = _block_columns(chunk)
        if columns is not None:
            stamps, names, values = columns
            in_order = not ordered or (
                frontier <= stamps[0] and stamps == sorted(stamps)
            )
            if in_order and (known is None or known.issuperset(names)):
                block = list(zip(stamps, names, values))
                stats.lines_read += len(chunk)
                stats.events_ingested += len(block)
        if block is None:
            block, error = _strict_lines(
                chunk, lineno, frontier, stats, known, ordered
            )
            if error is not None:
                if block:
                    yield block
                raise error
        lineno += len(chunk)
        if block:
            frontier = block[-1][0]
            yield block


def _strict_lines(
    chunk: List[str],
    lineno: int,
    frontier: int,
    stats: IngestStats,
    known: Optional[frozenset],
    ordered: bool,
) -> Tuple[List[TraceEvent], Optional[Exception]]:
    """Read one block line by line: ``(events, None)``, or ``(events
    before the fault, the fault's error)``, counting into *stats* like
    the all-``raise`` :class:`TolerantReader` does."""
    events: List[TraceEvent] = []
    for lineno, raw in enumerate(chunk, lineno + 1):
        stats.lines_read += 1
        try:
            parsed = parse_line(raw, lineno)
        except TraceError as err:
            stats.malformed_lines += 1
            return events, err
        except ValueError as err:  # int() refusing an over-long literal
            return events, err
        if parsed is None:
            continue
        ts, name, _ = parsed
        if known is not None and name not in known:
            stats.unknown_stream_events += 1
            return events, _unknown_stream(name, ts)
        if ordered and ts < frontier:
            return events, _out_of_order(name, ts, frontier)
        frontier = ts
        stats.events_ingested += 1
        events.append(parsed)
    return events, None


def iter_trace_events(
    source: Union[str, TextIO],
    policy: Optional[IngestPolicy] = None,
    known_streams: Optional[Iterable[str]] = None,
    stats: Optional[IngestStats] = None,
) -> Iterator[TraceEvent]:
    """Stream ``(ts, stream, value)`` events from TeSSLa trace text.

    With the default (all-``raise``) policy this is a streaming strict
    parse; pass an :class:`IngestPolicy` to survive bad input.  Pass a
    *stats* object to observe the counters after iteration.

    The default policy reads a block of lines at a time and yields
    exactly what :class:`TolerantReader` would: the same events, the
    same error after the same prefix, and the same counters once
    iteration ends or raises (mid-iteration they may run one block
    ahead of the consumer).
    """
    if hasattr(source, "read"):
        lines: Iterable[str] = source  # file objects iterate by line
    else:
        lines = source.splitlines()
    if policy is None or policy == _STRICT:
        return chain.from_iterable(
            _strict_blocks(
                lines,
                stats if stats is not None else IngestStats(),
                known_streams,
            )
        )
    reader = TolerantReader(policy, known_streams)
    if stats is not None:
        reader.stats = stats
    return reader.events(
        enumerate(lines, 1),
        lambda item: parse_line(item[1], item[0]),
    )


def batch_events(
    events: Iterable[TraceEvent], batch_size: int
) -> Iterator[List[TraceEvent]]:
    """Chunk a timestamp-sorted event stream into feedable batches.

    Batches hold roughly *batch_size* events, but one timestamp is
    never split across two batches: a monitor's ``feed_batch`` leaves
    its final timestamp pending, and closing a batch mid-timestamp
    would be correct but waste the amortization on the boundary.  A
    single timestamp with more than *batch_size* events yields one
    oversized batch.

    Batches are cut by slicing — list slices for in-memory sequences,
    :func:`itertools.islice` for iterators, each extended to the end
    of its last timestamp — rather than re-accumulated event by event.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if isinstance(events, (list, tuple)):
        start, total = 0, len(events)
        while start < total:
            cut = min(start + batch_size, total)
            while cut < total and events[cut][0] == events[cut - 1][0]:
                cut += 1
            yield list(events[start:cut])
            start = cut
        return
    events = iter(events)
    batch = list(islice(events, batch_size))
    while batch:
        last = batch[-1][0]
        for event in events:
            if event[0] != last:
                yield batch
                batch = [event]
                batch.extend(islice(events, batch_size - 1))
                break
            batch.append(event)
        else:
            yield batch
            return


def read_trace_tolerant(
    source: Union[str, TextIO],
    policy: Optional[IngestPolicy] = None,
    known_streams: Optional[Iterable[str]] = None,
) -> Tuple[Traces, IngestStats]:
    """Parse trace text under an :class:`IngestPolicy`.

    Returns ``(traces, stats)``; the traces map is shaped exactly like
    :func:`read_trace`'s result.
    """
    stats = IngestStats()
    traces: Traces = {}
    for ts, name, value in iter_trace_events(
        source, policy, known_streams, stats
    ):
        traces.setdefault(name, []).append((ts, value))
    return traces, stats
