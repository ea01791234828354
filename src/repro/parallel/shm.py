"""Zero-copy shared-memory trace transport for the supervised pool.

The supervised :class:`~repro.parallel.pool.MonitorPool` used to
pickle every trace's full event list over a worker pipe — once per
dispatch *and once per retry*.  That is exactly the copy discipline the
paper's mutability analysis eliminates inside a monitor, violated at
the process boundary.  This module lifts the same idea to the
inter-process data path:

* :class:`TraceArena` (parent side) packs each trace **once** into a
  ``multiprocessing.shared_memory`` segment.  By default the segment
  holds the trace's event list pickled once (the blob encoding): no
  per-event work in the parent, and the worker reads back the exact
  original rows.  Only when the worker will feed the trace zero-copy —
  the pool's resolved engine is vector, input validation is off and
  the trace is *dense* (every stream fires at every timestamp, with
  int/float/bool/unit values) — is it stored *columnar* instead: a
  shared int64 timestamp array plus one typed value column per stream,
  the vector engine's SoA layout.
* Only a tiny :class:`ArenaDescriptor` (segment name, offsets,
  dtypes, lengths) crosses the pipe; a re-dispatch after a crash
  re-sends the descriptor and the new worker re-reads the same bytes.
* Workers :func:`attach` read-only.  Columnar payloads are read only
  through :meth:`AttachedTrace.dense_block`, whose mapped arrays go
  straight into ``feed_columns``; blob payloads come back verbatim
  from :meth:`AttachedTrace.rows`.

Crash-safety contract (the hard part):

* Segments are **owned by the parent**: created in
  :meth:`TraceArena.pack`, unlinked exactly once in
  :meth:`TraceArena.release` when the trace resolves (success,
  quarantine, or pool abort via :meth:`TraceArena.close_all`).  A
  worker never unlinks; it only closes its mapping.
* Worker attachment is *untracked*: on Python < 3.13
  ``SharedMemory(name=...)`` registers the segment with the
  ``resource_tracker``, and a SIGKILLed worker never unregisters —
  the tracker would then report phantom leaks (or double-unlink) at
  interpreter exit.  :func:`attach` suppresses that registration
  (``track=False`` where available, a scoped no-op otherwise), so the
  kill/hang chaos matrix runs with zero tracked leaks.
* Unlinking while a worker still maps the segment is safe on POSIX:
  the mapping survives until the worker's ``close`` (or death), only
  the name disappears.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..compiler import kernels
from ..compiler.monitor import UNIT_VALUE
from ..obs.metrics import (
    DEFAULT_REGISTRY,
    POOL_ARENA_ATTACH,
    POOL_BYTES_PICKLED,
    POOL_BYTES_SHARED,
)

__all__ = [
    "ArenaDescriptor",
    "AttachedTrace",
    "TraceArena",
    "attach",
    "shm_available",
]

#: Buffer alignment inside a segment; generous enough for any dtype.
_ALIGN = 64


def shm_available() -> bool:
    """True when ``multiprocessing.shared_memory`` works on this host."""
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - exotic platforms only
        return False
    return True


@dataclass(frozen=True)
class ArenaDescriptor:
    """Everything a worker needs to re-read one packed trace.

    This is what crosses the pipe instead of the event list: a segment
    name plus offsets/lengths — a few hundred bytes regardless of trace
    size, identical on every retry.

    ``kind`` is ``"pickle"`` (the event list pickled into the first
    ``size`` bytes) or ``"columnar"`` (a dense trace: an int64 array of
    ``length`` timestamps at offset 0, then per stream — except for
    ``"unit"`` dtypes — a typed value column of ``length`` entries).
    ``count`` is the original row count.
    """

    name: str
    kind: str
    size: int
    count: int
    length: int = 0
    #: ``(stream, dtype_name, values_offset)`` per stream, sorted by name.
    streams: Tuple[Tuple[str, str, int], ...] = ()


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _column_dtype(values: Sequence[Any]) -> Optional[str]:
    """The homogeneous column dtype for a stream's values, or None.

    Exact-type matching, not ``isinstance``: a bool is not an int64
    here, because the columns must carry the original Python values
    bit-for-bit (``np.float64(1).item()`` of an int would come back as
    ``1.0`` and change downstream equality).
    """
    kind: Optional[str] = None
    for value in values:
        t = type(value)
        if t is int:
            k = "int64"
        elif t is bool:
            k = "bool"
        elif t is float:
            k = "float64"
        elif value == UNIT_VALUE and t is type(UNIT_VALUE):
            k = "unit"
        else:
            return None
        if kind is None:
            kind = k
        elif kind != k:
            return None
    return kind


def _dense_columns(events: List[Tuple[int, str, Any]]) -> Optional[Tuple]:
    """``(timestamps, [(stream, dtype_name, column)])`` or None.

    Only dense traces qualify: well-formed 3-tuples with string stream
    names, non-negative int timestamps sorted non-decreasing, every
    stream firing exactly once at every timestamp, and homogeneous
    int/float/bool/unit values per stream.  ``column`` is None for unit
    streams.  Everything else takes the blob encoding.
    """
    if not kernels.numpy_available() or len(events) < 2:
        return None  # a blob is smaller than the columnar scaffolding
    np = kernels.numpy_module()
    per_ts: Dict[str, List[int]] = {}
    per_values: Dict[str, List[Any]] = {}
    previous = None
    for event in events:
        if type(event) is not tuple or len(event) != 3:
            return None
        ts, name, value = event
        if type(ts) is not int or type(name) is not str:
            return None
        if previous is not None and ts < previous:
            return None
        previous = ts
        stamps = per_ts.get(name)
        if stamps is None:
            stamps = per_ts[name] = []
            per_values[name] = []
        stamps.append(ts)
        per_values[name].append(value)
    timestamps = next(iter(per_ts.values()))
    if timestamps[0] < 0 or any(
        stamps != timestamps for stamps in per_ts.values()
    ):
        return None
    if any(b <= a for a, b in zip(timestamps, timestamps[1:])):
        return None  # duplicate (ts, stream): last-write-wins rows
    try:
        ts_arr = np.asarray(timestamps, dtype=np.int64)
        streams = []
        for name in sorted(per_values):
            dtype_name = _column_dtype(per_values[name])
            if dtype_name is None:
                return None
            column = None
            if dtype_name != "unit":
                column = np.asarray(
                    per_values[name],
                    dtype=kernels.resolve_dtype(np, dtype_name),
                )
            streams.append((name, dtype_name, column))
    except (OverflowError, TypeError, ValueError):
        return None
    return ts_arr, streams


class TraceArena:
    """Parent-side owner of the per-trace shared-memory segments.

    One arena serves one supervised pool run.  Every segment it creates
    is unlinked exactly once: either in :meth:`release` when the trace
    resolves, or in :meth:`close_all` when the run ends (normally or by
    abort) — whichever comes first.  Both are idempotent, so a
    duplicate release (salvaged result racing a reap) is a no-op.
    """

    def __init__(self) -> None:
        self._segments: Dict[int, Any] = {}

    def __len__(self) -> int:
        return len(self._segments)

    def pack(
        self,
        index: int,
        events: List[Tuple[int, str, Any]],
        *,
        columnar: bool = False,
    ) -> ArenaDescriptor:
        """Pack one trace into a fresh segment; returns its descriptor.

        ``columnar=True`` (the worker runs the vector engine without
        input validation) stores a dense trace columnar for the
        zero-copy ``feed_columns`` path; every other trace is pickled
        once into the segment.  Raises on shm exhaustion (``/dev/shm``
        full, name collisions) — the caller falls back to the pipe for
        that trace.
        """
        from multiprocessing import shared_memory

        dense = _dense_columns(events) if columnar else None
        if dense is None:
            blob = pickle.dumps(events, protocol=pickle.HIGHEST_PROTOCOL)
            segment = shared_memory.SharedMemory(
                create=True, size=max(1, len(blob))
            )
            try:
                segment.buf[: len(blob)] = blob
            except BaseException:
                segment.close()
                segment.unlink()
                raise
            descriptor = ArenaDescriptor(
                name=segment.name,
                kind="pickle",
                size=len(blob),
                count=len(events),
            )
            DEFAULT_REGISTRY.inc(POOL_BYTES_PICKLED, len(blob))
        else:
            ts_arr, streams = dense
            layout = []
            offset = _align(ts_arr.nbytes)
            for name, dtype_name, column in streams:
                values_offset = 0
                if column is not None:
                    values_offset = offset
                    offset = _align(offset + column.nbytes)
                layout.append((name, dtype_name, values_offset))
            np = kernels.numpy_module()
            segment = shared_memory.SharedMemory(create=True, size=offset)
            try:
                np.frombuffer(
                    segment.buf, dtype=np.int64, count=len(ts_arr)
                )[:] = ts_arr
                for (_name, _dtype, column), entry in zip(streams, layout):
                    if column is not None:
                        np.frombuffer(
                            segment.buf,
                            dtype=column.dtype,
                            count=len(column),
                            offset=entry[2],
                        )[:] = column
            except BaseException:
                segment.close()
                segment.unlink()
                raise
            descriptor = ArenaDescriptor(
                name=segment.name,
                kind="columnar",
                size=offset,
                count=len(events),
                length=len(ts_arr),
                streams=tuple(layout),
            )
            DEFAULT_REGISTRY.inc(POOL_BYTES_SHARED, offset)
        self._segments[index] = segment
        return descriptor

    def release(self, index: int) -> None:
        """Unlink trace *index*'s segment (idempotent)."""
        segment = self._segments.pop(index, None)
        if segment is None:
            return
        try:
            segment.close()
        except OSError:  # pragma: no cover - buffer already gone
            pass
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - defensive
            pass

    def close_all(self) -> None:
        """Unlink every segment still owned (abort/shutdown path)."""
        for index in list(self._segments):
            self.release(index)


# -- the worker side ----------------------------------------------------------


def _attach_untracked(name: str) -> Any:
    """Attach to an existing segment without resource-tracker tracking.

    The parent owns the segment's lifetime; a worker registering it
    with the (shared, fork-inherited) resource tracker would leave a
    phantom registration behind every SIGKILL.  Python 3.13 grew
    ``track=False`` for exactly this; earlier versions get a scoped
    no-op over ``resource_tracker.register`` — safe here because the
    worker's task loop is single-threaded.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class AttachedTrace:
    """A worker's read-only view of one packed trace.

    A columnar payload is read through ``dense_block()`` (shared
    timestamps + per-stream value arrays, all marked non-writeable so a
    kernel bug can never corrupt the segment other attempts re-read); a
    blob payload through ``rows()``, which returns the exact original
    event tuples.  Call :meth:`close` when the attempt ends — it drops
    this mapping only, never the segment.
    """

    def __init__(self, descriptor: ArenaDescriptor, segment: Any) -> None:
        self.descriptor = descriptor
        self._segment = segment

    def close(self) -> None:
        try:
            self._segment.close()
        except (OSError, BufferError):  # pragma: no cover - defensive
            pass

    def _view(self, dtype_name: str, offset: int) -> Any:
        np = kernels.numpy_module()
        view = np.frombuffer(
            self._segment.buf,
            dtype=kernels.resolve_dtype(np, dtype_name),
            count=self.descriptor.length,
            offset=offset,
        )
        view.setflags(write=False)
        return view

    def dense_block(self) -> Optional[Tuple[Any, Dict[str, Any]]]:
        """``(timestamps, columns)`` for ``feed_columns``, or None.

        None for a blob payload.  Unit-valued streams come back as plain
        ``UNIT_VALUE`` lists; typed streams are read-only views straight
        over the segment.
        """
        d = self.descriptor
        if d.kind != "columnar":
            return None
        timestamps = self._view("int64", 0)
        columns: Dict[str, Any] = {}
        for name, dtype_name, values_offset in d.streams:
            if dtype_name == "unit":
                columns[name] = [UNIT_VALUE] * d.length
            else:
                columns[name] = self._view(dtype_name, values_offset)
        return timestamps, columns

    def rows(self) -> List[Tuple[int, str, Any]]:
        """A blob payload's ``(ts, stream, value)`` rows, verbatim."""
        d = self.descriptor
        if d.kind != "pickle":
            raise ValueError(
                "a columnar payload is read through dense_block()"
            )
        return pickle.loads(self._segment.buf[: d.size])


def attach(descriptor: ArenaDescriptor) -> AttachedTrace:
    """Worker-side attach: map the descriptor's segment read-only."""
    DEFAULT_REGISTRY.inc(POOL_ARENA_ATTACH)
    return AttachedTrace(descriptor, _attach_untracked(descriptor.name))
