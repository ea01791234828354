"""Process-local metrics registry and copy/in-place lift instrumentation.

Three primitive kinds, all held in plain dicts so a snapshot is just a
nested-dict copy:

- **counters** — monotonically increasing ints (``inc``);
- **gauges** — last-written floats (``gauge``);
- **histograms** — running ``count/sum/min/max`` summaries (``observe``).

On top of those, :class:`StreamStats` tracks the two numbers the paper
cares about per stream variable: ``copies_performed`` (an update
returned a structurally new collection) and ``inplace_updates`` (an
update landed on a mutable or guarded backend).

Classification rule
-------------------
A lift that writes a structure argument (first ``Access.WRITE`` slot in
its access tuple) is wrapped by :func:`instrument_lift`.  After the
call:

- if the written stream's backend updates in place (mutable, bare and
  guarded; the code generator passes the decision it made), the update
  counts as in-place — *regardless of result identity*, because guarded
  backends return a fresh generation handle over shared storage;
- otherwise, if the result is a different object than the argument, a
  structural copy was performed (persistent backends copy O(log n)
  spine nodes, copying backends copy everything — both count once);
- a persistent no-op that returns the argument unchanged (for example
  ``queue_deq`` on an empty queue) counts as neither.

The disabled fast path is "no wrapper exists at all": instrumentation
is applied per compiled monitor only when a registry is passed down the
bind chain, so uninstrumented runs execute the exact same bound
callables as before this module existed.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional

__all__ = [
    "DEFAULT_REGISTRY",
    "MetricsRegistry",
    "POOL_BYTES_PICKLED",
    "POOL_BYTES_SHARED",
    "POOL_HEARTBEATS",
    "POOL_MISSED_HEARTBEATS",
    "POOL_QUARANTINED",
    "POOL_RESTARTS",
    "POOL_RETRIES",
    "POOL_TASKS",
    "StreamStats",
    "diff_snapshots",
    "instrument_lift",
    "merge_snapshots",
]

#: Counter names bumped on :data:`DEFAULT_REGISTRY` by the supervised
#: worker pool (:mod:`repro.parallel.supervisor`).  Like the plan-cache
#: counters these are always-present call sites: writes are single-branch
#: no-ops until the registry is enabled (``repro profile``, the
#: Prometheus exporter, tests).
POOL_TASKS = "pool_tasks_dispatched"
POOL_RETRIES = "pool_retries"
POOL_RESTARTS = "pool_worker_restarts"
POOL_HEARTBEATS = "pool_heartbeats"
POOL_MISSED_HEARTBEATS = "pool_missed_heartbeats"
POOL_QUARANTINED = "pool_traces_quarantined"
#: Bytes of pickled task messages the pool sent to its workers (one
#: message per dispatched attempt).  ``POOL_BYTES_SHARED`` is no longer
#: bumped (no payload travels through shared memory); the name stays
#: for readers that still report it.
POOL_BYTES_PICKLED = "pool_bytes_pickled"
POOL_BYTES_SHARED = "pool_bytes_shared"
#: Windowing library (:mod:`repro.speclib.windows`): aggregate updates
#: served by the O(1) delta path vs. O(window) fold recomputations, and
#: events the bounded-skew reorder buffer dropped as too late for their
#: window.  The first two are bumped through ``metric_name``-tagged
#: lifts (see :func:`instrument_lift`); the drop counter is wired by
#: ``repro.api.run`` from the ingestion stats.
WINDOW_DELTA_UPDATES = "window.delta_updates"
WINDOW_RECOMPUTES = "window.recomputes"
WINDOW_LATE_DROPS = "window.late_drops"


class StreamStats:
    """Copy/in-place counters for one stream variable."""

    __slots__ = ("copies_performed", "inplace_updates")

    def __init__(self) -> None:
        self.copies_performed = 0
        self.inplace_updates = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "copies_performed": self.copies_performed,
            "inplace_updates": self.inplace_updates,
        }


class MetricsRegistry:
    """A process-local bag of counters, gauges, histograms and stream stats.

    ``enabled=False`` turns every write into a single-branch no-op; the
    default process registry starts disabled so plan-cache and other
    always-present call sites cost one attribute check when metrics are
    off.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Dict[str, float]] = {}
        self._streams: Dict[str, StreamStats] = {}

    # -- writes ---------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                self._histograms[name] = {
                    "count": 1,
                    "sum": value,
                    "min": value,
                    "max": value,
                }
            else:
                h["count"] += 1
                h["sum"] += value
                if value < h["min"]:
                    h["min"] = value
                if value > h["max"]:
                    h["max"] = value

    def stream(self, name: str) -> StreamStats:
        """Stats cell for *name*, created on first use.

        The cell is handed out once at bind time and then bumped without
        further dict lookups, so per-event overhead is two attribute
        increments.  Stream cells ignore ``enabled`` — a registry that
        was explicitly threaded into a compile is meant to count.
        """
        with self._lock:
            stats = self._streams.get(name)
            if stats is None:
                stats = self._streams[name] = StreamStats()
            return stats

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            for stats in self._streams.values():
                stats.copies_performed = 0
                stats.inplace_updates = 0

    # -- reads ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A point-in-time, JSON-ready copy of every metric."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {k: dict(v) for k, v in self._histograms.items()},
                "streams": {k: v.as_dict() for k, v in self._streams.items()},
            }


#: Process-wide registry for always-present call sites (plan cache).
#: Disabled by default; ``repro profile`` and tests flip it on.
DEFAULT_REGISTRY = MetricsRegistry(enabled=False)


def _empty_snapshot() -> Dict[str, Any]:
    return {"counters": {}, "gauges": {}, "histograms": {}, "streams": {}}


def diff_snapshots(before: Optional[Dict[str, Any]], after: Dict[str, Any]) -> Dict[str, Any]:
    """``after - before`` for monotone metrics; gauges keep the latest value.

    Used to attribute a shared registry's growth to one run.
    """
    if before is None:
        before = _empty_snapshot()
    out = _empty_snapshot()
    for name, value in after.get("counters", {}).items():
        delta = value - before.get("counters", {}).get(name, 0)
        if delta:
            out["counters"][name] = delta
    out["gauges"] = dict(after.get("gauges", {}))
    for name, h in after.get("histograms", {}).items():
        prev = before.get("histograms", {}).get(name)
        if prev is None:
            out["histograms"][name] = dict(h)
        elif h["count"] > prev["count"]:
            # min/max of just the delta window are not recoverable from
            # summaries; keep the cumulative extremes, which still bound
            # the window.
            out["histograms"][name] = {
                "count": h["count"] - prev["count"],
                "sum": h["sum"] - prev["sum"],
                "min": h["min"],
                "max": h["max"],
            }
    for name, s in after.get("streams", {}).items():
        prev = before.get("streams", {}).get(name, {})
        copies = s["copies_performed"] - prev.get("copies_performed", 0)
        inplace = s["inplace_updates"] - prev.get("inplace_updates", 0)
        if copies or inplace or name not in before.get("streams", {}):
            out["streams"][name] = {
                "copies_performed": copies,
                "inplace_updates": inplace,
            }
    return out


def merge_snapshots(a: Optional[Dict[str, Any]], b: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """Commutative, associative merge of two snapshots (either may be None).

    Counters and stream stats sum; histogram count/sum add with min/max
    combined; gauges take the max (the only associative choice without
    timestamps).  Returns a new dict — inputs are not mutated, so merged
    reports never alias a worker's snapshot.
    """
    if a is None and b is None:
        return None
    if a is None:
        a = _empty_snapshot()
    if b is None:
        b = _empty_snapshot()
    out = _empty_snapshot()
    for src in (a, b):
        for name, value in src.get("counters", {}).items():
            out["counters"][name] = out["counters"].get(name, 0) + value
        for name, value in src.get("gauges", {}).items():
            prev = out["gauges"].get(name)
            out["gauges"][name] = value if prev is None else max(prev, value)
        for name, h in src.get("histograms", {}).items():
            prev = out["histograms"].get(name)
            if prev is None:
                out["histograms"][name] = dict(h)
            else:
                prev["count"] += h["count"]
                prev["sum"] += h["sum"]
                prev["min"] = min(prev["min"], h["min"])
                prev["max"] = max(prev["max"], h["max"])
        for name, s in src.get("streams", {}).items():
            prev = out["streams"].get(name)
            if prev is None:
                out["streams"][name] = dict(s)
            else:
                prev["copies_performed"] += s["copies_performed"]
                prev["inplace_updates"] += s["inplace_updates"]
    return out


def instrument_lift(
    impl: Callable[..., Any],
    func: Any,
    stream: str,
    registry: MetricsRegistry,
    in_place: bool,
) -> Callable[..., Any]:
    """Wrap a bound lift with copy/in-place counting for *stream*.

    *in_place* is whether the stream's backend updates in place.

    *func* is the :class:`~repro.lang.builtins.LiftedFunction` the impl
    was bound from; lifts without a WRITE access slot (scalar lifts,
    constructors) are returned unwrapped — unless the lift carries a
    ``metric_name``, in which case a per-invocation counter of that name
    is bumped instead (how the windowing library separates delta updates
    from fold recomputations).  The stats cell is registered eagerly so
    ``repro profile`` tables list every write stream even when its count
    stayed zero.
    """
    from ..lang.builtins import Access

    metric = getattr(func, "metric_name", None)
    write_index = -1
    for i, access in enumerate(func.access):
        if access is Access.WRITE:
            write_index = i
            break
    if write_index < 0 and metric is None:
        return impl

    stats = registry.stream(stream) if write_index >= 0 else None

    def counted(*args: Any) -> Any:
        result = impl(*args)
        if metric is not None and result is not None:
            registry.inc(metric)
        if stats is not None:
            target = args[write_index]
            if target is not None and result is not None:
                if in_place:
                    stats.inplace_updates += 1
                elif result is not target:
                    stats.copies_performed += 1
        return result

    counted.__name__ = getattr(impl, "__name__", "lift") + "_counted"
    return counted
