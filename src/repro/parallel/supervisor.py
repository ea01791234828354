"""Supervised fault-tolerant process workers for the multi-trace pool.

Threads cannot beat the GIL (every engine is pure-Python bytecode),
so scaling the multi-trace :class:`~repro.parallel.pool.MonitorPool`
means moving workers into separate *processes* — and separate processes
introduce real distributed-systems failure modes: a worker can be
killed (-9, OOM), hang (a pathological trace, a deadlocked lift), or
fail the same trace deterministically forever.  Progress is only
trustworthy if none of those silently drops or duplicates a trace, so
this module makes the pool *supervised*:

* **Per-trace leases** — each dispatched trace is a lease held by
  exactly one worker: ``(trace index, attempt, deadline, last
  heartbeat)``.  Workers are fed one task at a time over per-worker
  duplex pipes (a bounded queue of depth one), so the supervisor always
  knows which worker owns which trace.
* **Heartbeats** — a daemon thread in every worker beats every
  ``heartbeat_interval`` seconds while a task is active.  A lease whose
  heartbeat goes silent for ``heartbeat_timeout`` seconds is declared
  hung; a lease that outlives ``trace_timeout`` is declared timed out.
  Either way the worker is killed (SIGKILL — it is not trusted to
  cooperate) and the trace is re-dispatched.
* **Death detection** — worker exit is observed through the process
  sentinel *and* pipe EOF; the pipe is drained first, so a result that
  raced the death is salvaged instead of re-computed.
* **Retries with backoff** — an interrupted or failed trace goes back
  to the pending queue governed by :class:`RetryPolicy`: capped
  exponential backoff with deterministic jitter (seeded per
  ``(jitter_seed, trace, attempt)``, so runs replay exactly).
* **Quarantine** — a trace that fails ``max_attempts`` times is a
  *poison trace*: under fail-fast the pool aborts with a
  :class:`~repro.errors.PoolError` naming the trace index, worker id
  and full attempt history; under ``propagate``/``substitute-default``
  the trace is quarantined on its ``TraceResult`` and the pool keeps
  draining.
* **Exactness** — results are delivered in submission order, at most
  once (late results from killed workers are dropped as duplicates),
  and every successful attempt computes the identical outputs, so the
  merged result is byte-identical to a fault-free serial run.

Deterministic fault injection lives in :class:`FaultPlan` (surfaced as
``repro.testing.kill_worker_after`` / ``hang_worker`` /
``poison_trace``), which workers consult per ``(trace, attempt)`` — the
whole kill/hang/poison matrix is testable without real flakiness.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
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

from ..errors import PoolError
from ..obs.metrics import (
    DEFAULT_REGISTRY,
    POOL_BYTES_PICKLED,
    POOL_HEARTBEATS,
    POOL_MISSED_HEARTBEATS,
    POOL_QUARANTINED,
    POOL_RESTARTS,
    POOL_RETRIES,
    POOL_TASKS,
)

__all__ = [
    "AttemptRecord",
    "FaultPlan",
    "PoisonTraceError",
    "RetryPolicy",
    "Supervisor",
    "SupervisorStats",
]


class PoisonTraceError(RuntimeError):
    """The exception a :class:`FaultPlan` poison entry injects per attempt."""


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``max_attempts`` bounds how often one trace may be tried in total
    (first attempt included).  The delay before attempt *n + 1* is
    ``min(max_delay, base_delay * 2**(n-1))``, jittered into
    ``[base/2, base)`` by a PRNG seeded from ``(jitter_seed, trace,
    attempt)`` — the same pool run always waits the same amounts, so
    chaos failures replay exactly.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0:
            raise ValueError(
                f"base_delay must be >= 0, got {self.base_delay}"
            )
        if self.max_delay < self.base_delay:
            raise ValueError(
                f"max_delay {self.max_delay} < base_delay {self.base_delay}"
            )

    def delay(self, trace_index: int, attempt: int) -> float:
        """Seconds to wait before re-dispatching *trace_index* after
        its *attempt*-th try failed."""
        import random

        base = min(
            self.max_delay, self.base_delay * (2 ** max(0, attempt - 1))
        )
        rng = random.Random(f"{self.jitter_seed}:{trace_index}:{attempt}")
        return base * (0.5 + rng.random() / 2.0)


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault injection for the supervised process pool.

    Workers consult the plan per ``(trace index, attempt)``:

    * ``kill[i] = n`` — the worker running trace *i* SIGKILLs itself
      mid-trace (after genuinely processing a prefix of the batch) on
      attempts ``1..n``; attempt ``n + 1`` runs clean.
    * ``hang[i] = n`` — the worker freezes on trace *i* (heartbeats
      suppressed, task never completes) on attempts ``1..n``.
    * ``poison`` — trace indexes whose *every* attempt raises
      :class:`PoisonTraceError`; the quarantine path.

    Plans compose with :meth:`merged`.  ``seed`` is provenance only: it
    rides along in every failure message (see :meth:`replay`) so a
    chaos failure names exactly the plan needed to reproduce it.
    """

    kill: Mapping[int, int] = field(default_factory=dict)
    hang: Mapping[int, int] = field(default_factory=dict)
    poison: Tuple[int, ...] = ()
    hang_seconds: float = 3600.0
    seed: int = 0

    def merged(self, other: "FaultPlan") -> "FaultPlan":
        """The union of two plans (per-trace attempt counts take max)."""
        kill = dict(self.kill)
        for index, attempts in other.kill.items():
            kill[index] = max(kill.get(index, 0), attempts)
        hang = dict(self.hang)
        for index, attempts in other.hang.items():
            hang[index] = max(hang.get(index, 0), attempts)
        return FaultPlan(
            kill=kill,
            hang=hang,
            poison=tuple(sorted(set(self.poison) | set(other.poison))),
            hang_seconds=max(self.hang_seconds, other.hang_seconds),
            seed=self.seed if self.seed else other.seed,
        )

    def replay(self) -> str:
        """The one-line ``(seed, plan)`` replay key for failure messages."""
        return f"seed={self.seed} plan={self!r}"


@dataclass
class AttemptRecord:
    """One try of one trace: who ran it and how it ended.

    ``outcome`` is one of ``"ok"`` (completed), ``"error"`` (the task
    raised inside the worker), ``"crash"`` (the worker process died),
    ``"hang"`` (missed heartbeats) or ``"timeout"`` (per-trace
    deadline exceeded).
    """

    attempt: int
    worker: str
    outcome: str
    detail: str = ""

    def __str__(self) -> str:
        text = f"attempt {self.attempt} [{self.worker}] {self.outcome}"
        if self.detail:
            text += f": {self.detail}"
        return text

    def as_dict(self) -> Dict[str, Any]:
        return {
            "attempt": self.attempt,
            "worker": self.worker,
            "outcome": self.outcome,
            "detail": self.detail,
        }


@dataclass
class SupervisorStats:
    """Everything abnormal one pool run absorbed (pooled or sequential)."""

    retries: int = 0
    worker_restarts: int = 0
    quarantined: List[int] = field(default_factory=list)
    workers_started: int = 0
    heartbeats: int = 0
    missed_heartbeats: int = 0
    duplicate_results_dropped: int = 0


# -- the worker side ----------------------------------------------------------


class _Heartbeat:
    """Worker-side daemon thread beating while a task is active.

    Sends share the task thread's pipe, serialized by *lock* (Connection
    objects are not thread-safe).  ``suppress()`` models a full process
    freeze for the hang injector — a hung worker would not beat.
    """

    def __init__(self, conn: Any, lock: threading.Lock, wid: str, interval: float) -> None:
        self._conn = conn
        self._lock = lock
        self._wid = wid
        self._interval = max(0.001, interval)
        self._task: Optional[Tuple[int, int]] = None
        self._suppressed = False
        self._thread = threading.Thread(
            target=self._loop, name=f"{wid}-heartbeat", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def begin(self, index: int, attempt: int) -> None:
        self._task = (index, attempt)

    def end(self) -> None:
        self._task = None

    def suppress(self) -> None:
        self._suppressed = True

    def resume(self) -> None:
        self._suppressed = False

    def _loop(self) -> None:
        while True:
            time.sleep(self._interval)
            task = self._task
            if task is None or self._suppressed:
                continue
            try:
                with self._lock:
                    self._conn.send(("hb", self._wid, task[0], task[1]))
            except (OSError, ValueError, BrokenPipeError):
                return


def _apply_fault(
    plan: Optional[FaultPlan],
    index: int,
    attempt: int,
    heartbeat: _Heartbeat,
    run_prefix: Callable[[], Any],
) -> None:
    """Worker-side fault hook, consulted once per dispatched task."""
    if plan is None:
        return
    if attempt <= plan.kill.get(index, 0):
        # Die genuinely mid-trace: half the batch has been processed,
        # state is live, nothing has been reported back.
        run_prefix()
        os.kill(os.getpid(), signal.SIGKILL)
    if attempt <= plan.hang.get(index, 0):
        # A hung process does not beat: suppress first, then freeze.
        heartbeat.suppress()
        time.sleep(plan.hang_seconds)
        heartbeat.resume()
    if index in plan.poison:
        raise PoisonTraceError(
            f"injected poison on trace {index} attempt {attempt}"
            f" (replay: {plan.replay()})"
        )


def _worker_main(
    wid: str,
    conn: Any,
    payload: Any,
    compile_options: Any,
    run_options: Any,
    fault_plan: Optional[FaultPlan],
    heartbeat_interval: float,
) -> None:
    """One worker process: compile once, then serve tasks until 'stop'.

    Every task produces exactly one ``done`` message; task exceptions
    are data, never worker deaths.  The monitor is obtained exactly as
    in the unsupervised pool: text payloads compile through
    ``repro.api`` (hitting the text-keyed on-disk plan cache), compiled
    payloads are inherited through ``fork``.

    A task's payload is the trace's event list or, for a dense trace
    bound for the vector engine, its ``(timestamps, columns)`` block
    (see :func:`~repro.parallel.pool._task_payload`).
    """
    from .pool import _run_payload

    send_lock = threading.Lock()

    def send(message: Tuple[Any, ...]) -> None:
        try:
            with send_lock:
                conn.send(message)
        except (OSError, ValueError, BrokenPipeError):
            # The supervisor is gone; nothing sensible left to do.
            os._exit(1)

    try:
        if isinstance(payload, str):
            from .. import api

            compiled = api.compile(payload, compile_options).compiled
        else:
            compiled = payload
    except Exception as exc:  # noqa: BLE001 - crossing a process boundary
        send(("fatal", wid, f"{type(exc).__name__}: {exc}"))
        return

    heartbeat = _Heartbeat(conn, send_lock, wid, heartbeat_interval)
    heartbeat.start()
    send(("ready", wid))

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        _, index, attempt, payload = message
        send(("start", wid, index, attempt))
        heartbeat.begin(index, attempt)
        outputs = report = error = None
        try:
            _apply_fault(
                fault_plan,
                index,
                attempt,
                heartbeat,
                lambda: _run_payload(
                    compiled, payload, run_options, prefix=True
                ),
            )
            outputs, report = _run_payload(compiled, payload, run_options)
        except Exception as exc:  # noqa: BLE001 - crossing a process boundary
            error = f"{type(exc).__name__}: {exc}"
        heartbeat.end()
        send(("done", wid, index, attempt, outputs, report, error))


# -- the supervisor side ------------------------------------------------------


class _Task:
    """One trace's supervision state: payload, attempts, backoff clock.

    ``payload`` is built once when the trace is pulled; every
    (re-)dispatch sends it again, so retries never re-iterate the
    caller's trace.
    """

    __slots__ = ("index", "payload", "attempts", "eligible_at", "resolved")

    def __init__(self, index: int, payload: Any) -> None:
        self.index = index
        self.payload = payload
        self.attempts: List[AttemptRecord] = []
        self.eligible_at = 0.0
        self.resolved = False

    @property
    def next_attempt(self) -> int:
        return len(self.attempts) + 1


class _WorkerHandle:
    """Supervisor-side view of one worker process and its lease."""

    __slots__ = (
        "wid",
        "process",
        "conn",
        "ready",
        "task_index",
        "attempt",
        "lease_started",
        "last_heartbeat",
        "alive",
    )

    def __init__(self, wid: str, process: Any, conn: Any) -> None:
        self.wid = wid
        self.process = process
        self.conn = conn
        self.ready = False
        self.task_index: Optional[int] = None
        self.attempt = 0
        self.lease_started: Optional[float] = None
        self.last_heartbeat: Optional[float] = None
        self.alive = True


class Supervisor:
    """Drives forked workers over traces with leases, retries, restarts.

    One :meth:`run` call is one supervised batch: traces are pulled
    lazily (at most ``max_in_flight`` materialized), dispatched
    one-per-worker, watched for death/hang/timeout, re-dispatched per
    *retry*, and delivered in submission order.  ``stats`` accumulates
    the run's supervision counters; the always-present observability
    counters (``pool_*`` on :data:`~repro.obs.metrics.DEFAULT_REGISTRY`)
    are bumped as events happen.
    """

    def __init__(
        self,
        payload: Any,
        compile_options: Any,
        run_options: Any,
        *,
        jobs: int,
        retry: Optional[RetryPolicy] = None,
        trace_timeout: Optional[float] = None,
        heartbeat_interval: float = 0.1,
        heartbeat_timeout: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        fail_fast: bool = True,
        max_in_flight: Optional[int] = None,
        columnar: bool = False,
    ) -> None:
        self.payload = payload
        self.compile_options = compile_options
        self.run_options = run_options
        self.jobs = max(1, int(jobs))
        self.retry = retry if retry is not None else RetryPolicy()
        self.trace_timeout = trace_timeout
        self.heartbeat_interval = max(0.001, heartbeat_interval)
        if heartbeat_timeout is None:
            heartbeat_timeout = max(1.0, 10 * self.heartbeat_interval)
        # A timeout tighter than ~3 beats would flag healthy workers.
        self.heartbeat_timeout = max(
            heartbeat_timeout, 3 * self.heartbeat_interval
        )
        self.fault_plan = fault_plan
        self.fail_fast = fail_fast
        #: Send dense traces as ``(timestamps, columns)`` blocks (the
        #: workers run the vector engine without input validation).
        self.columnar = columnar
        self.max_in_flight = (
            max(1, int(max_in_flight))
            if max_in_flight is not None
            else 2 * self.jobs
        )
        self.stats = SupervisorStats()

    # -- the run loop ----------------------------------------------------

    def run(
        self,
        traces: Iterable[Sequence[Any]],
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> List[Any]:
        """Run every trace; return ordered :class:`TraceResult` objects."""
        import multiprocessing
        from multiprocessing import connection as mp_connection
        from multiprocessing.reduction import ForkingPickler

        from .pool import TraceResult, _task_payload

        ctx = multiprocessing.get_context("fork")
        trace_iter = iter(enumerate(traces))
        tasks: Dict[int, _Task] = {}
        pending: deque = deque()
        workers: Dict[str, _WorkerHandle] = {}
        results: Dict[int, TraceResult] = {}
        ordered: List[TraceResult] = []
        state = {"delivered": 0, "input_done": False, "startup_failures": 0}

        def spawn() -> _WorkerHandle:
            wid = f"w{self.stats.workers_started}"
            self.stats.workers_started += 1
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_worker_main,
                args=(
                    wid,
                    child_conn,
                    self.payload,
                    self.compile_options,
                    self.run_options,
                    self.fault_plan,
                    self.heartbeat_interval,
                ),
                name=f"repro-pool-{wid}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            handle = _WorkerHandle(wid, process, parent_conn)
            workers[wid] = handle
            return handle

        def deliver() -> None:
            while state["delivered"] in results:
                result = results[state["delivered"]]
                ordered.append(result)
                if on_result is not None:
                    on_result(result)
                state["delivered"] += 1

        def finish_task(task: _Task, result: Any) -> None:
            task.resolved = True
            tasks.pop(task.index, None)
            try:
                pending.remove(task.index)
            except ValueError:
                pass
            results[task.index] = result
            deliver()

        def fail_attempt(task: _Task, record: AttemptRecord) -> None:
            task.attempts.append(record)
            if len(task.attempts) >= self.retry.max_attempts:
                headline = (
                    f"trace {task.index} failed after"
                    f" {len(task.attempts)} attempts"
                )
                if self.fault_plan is not None:
                    headline += f" (chaos replay: {self.fault_plan.replay()})"
                if self.fail_fast:
                    raise PoolError(
                        headline,
                        trace_index=task.index,
                        worker_id=record.worker,
                        attempts=task.attempts,
                    )
                self.stats.quarantined.append(task.index)
                DEFAULT_REGISTRY.inc(POOL_QUARANTINED)
                error = (
                    f"quarantined after {len(task.attempts)} attempts;"
                    f" last: {record}"
                )
                if self.fault_plan is not None:
                    error += f" (chaos replay: {self.fault_plan.replay()})"
                finish_task(
                    task,
                    TraceResult(
                        task.index,
                        None,
                        None,
                        error,
                        attempts=list(task.attempts),
                        worker=record.worker,
                    ),
                )
            else:
                self.stats.retries += 1
                DEFAULT_REGISTRY.inc(POOL_RETRIES)
                task.eligible_at = time.monotonic() + self.retry.delay(
                    task.index, len(task.attempts)
                )
                pending.append(task.index)

        def handle_message(handle: _WorkerHandle, message: Tuple[Any, ...]) -> None:
            kind = message[0]
            if kind == "ready":
                handle.ready = True
                state["startup_failures"] = 0
            elif kind == "start":
                _, _, index, _ = message
                if handle.task_index == index:
                    now = time.monotonic()
                    handle.lease_started = now
                    handle.last_heartbeat = now
            elif kind == "hb":
                _, _, index, _ = message
                self.stats.heartbeats += 1
                DEFAULT_REGISTRY.inc(POOL_HEARTBEATS)
                if handle.task_index == index:
                    handle.last_heartbeat = time.monotonic()
            elif kind == "done":
                _, wid, index, attempt, outputs, report, error = message
                if handle.task_index == index:
                    handle.task_index = None
                    handle.lease_started = None
                task = tasks.get(index)
                if task is None or task.resolved:
                    self.stats.duplicate_results_dropped += 1
                    return
                if error is None:
                    task.attempts.append(AttemptRecord(attempt, wid, "ok"))
                    finish_task(
                        task,
                        TraceResult(
                            index,
                            outputs,
                            report,
                            None,
                            attempts=list(task.attempts),
                            worker=wid,
                        ),
                    )
                else:
                    fail_attempt(
                        task, AttemptRecord(attempt, wid, "error", error)
                    )
            elif kind == "fatal":
                _, wid, detail = message
                # Compilation failed inside the worker: deterministic,
                # restarting cannot help — surface it immediately.
                raise PoolError(
                    f"worker {wid} failed to initialize: {detail}",
                    worker_id=wid,
                )

        def pump(handle: _WorkerHandle) -> bool:
            """Drain every available message; False once the pipe is dead.

            A SIGKILL mid-send leaves a truncated pickle in the pipe —
            any unpickling garbage is treated as pipe death, never
            propagated.
            """
            while True:
                try:
                    if not handle.conn.poll(0):
                        return True
                    message = handle.conn.recv()
                except (EOFError, OSError):
                    return False
                except Exception:  # noqa: BLE001 - truncated/corrupt frame
                    return False
                handle_message(handle, message)

        def reap(handle: _WorkerHandle, outcome: str, detail: str) -> None:
            """A worker is dead or condemned: salvage, kill, refail, restart."""
            if not handle.alive:
                return
            handle.alive = False
            # Salvage first: a 'done' that raced the death/kill is a
            # completed trace, not an interrupted one.
            pump(handle)
            if handle.process.is_alive():
                try:
                    handle.process.kill()
                except Exception:  # noqa: BLE001 - already gone
                    pass
            handle.process.join(timeout=5)
            try:
                handle.conn.close()
            except OSError:
                pass
            exitcode = handle.process.exitcode
            was_ready = handle.ready
            index = handle.task_index
            handle.task_index = None
            workers.pop(handle.wid, None)

            task = tasks.get(index) if index is not None else None
            interrupted = task is not None and not task.resolved
            if interrupted:
                fail_attempt(
                    task,
                    AttemptRecord(
                        handle.attempt,
                        handle.wid,
                        outcome,
                        detail or f"worker exited with code {exitcode}",
                    ),
                )
            elif not was_ready:
                # Died before serving anything: likely a startup failure.
                state["startup_failures"] += 1
                if state["startup_failures"] > self.jobs + 2:
                    raise PoolError(
                        "worker pool cannot start:"
                        f" {state['startup_failures']} consecutive worker"
                        f" startup deaths (last exit code {exitcode})",
                        worker_id=handle.wid,
                    )
            live = sum(1 for h in workers.values() if h.alive)
            if (tasks or not state["input_done"]) and live < self.jobs:
                self.stats.worker_restarts += 1
                DEFAULT_REGISTRY.inc(POOL_RESTARTS)
                spawn()

        def refill() -> None:
            while not state["input_done"] and len(tasks) < self.max_in_flight:
                try:
                    index, events = next(trace_iter)
                except StopIteration:
                    state["input_done"] = True
                    return
                task = _Task(index, _task_payload(list(events), self.columnar))
                tasks[index] = task
                pending.append(index)

        def pop_eligible(now: float) -> Optional[int]:
            for position, index in enumerate(pending):
                task = tasks.get(index)
                if task is None or task.resolved:
                    continue
                if task.eligible_at <= now:
                    del pending[position]
                    return index
            return None

        def dispatch() -> None:
            now = time.monotonic()
            for handle in list(workers.values()):
                if not (handle.alive and handle.ready):
                    continue
                if handle.task_index is not None:
                    continue
                index = pop_eligible(now)
                if index is None:
                    return
                task = tasks[index]
                # What Connection.send does, with the size kept for
                # pool_bytes_pickled; the worker's recv() is unchanged.
                message = ForkingPickler.dumps(
                    ("task", index, task.next_attempt, task.payload)
                )
                try:
                    handle.conn.send_bytes(message)
                except (OSError, ValueError, BrokenPipeError):
                    pending.appendleft(index)
                    reap(handle, "crash", "pipe closed at dispatch")
                    continue
                handle.task_index = index
                handle.attempt = task.next_attempt
                handle.lease_started = now
                handle.last_heartbeat = now
                DEFAULT_REGISTRY.inc(POOL_TASKS)
                DEFAULT_REGISTRY.inc(POOL_BYTES_PICKLED, len(message))

        def check_leases(now: float) -> None:
            for handle in list(workers.values()):
                if not handle.alive or handle.task_index is None:
                    continue
                started = handle.lease_started or now
                beaten = handle.last_heartbeat or started
                if (
                    self.trace_timeout is not None
                    and now - started > self.trace_timeout
                ):
                    reap(
                        handle,
                        "timeout",
                        f"trace exceeded its {self.trace_timeout:g}s"
                        " deadline",
                    )
                elif now - beaten > self.heartbeat_timeout:
                    self.stats.missed_heartbeats += 1
                    DEFAULT_REGISTRY.inc(POOL_MISSED_HEARTBEATS)
                    reap(
                        handle,
                        "hang",
                        f"no heartbeat for {now - beaten:.2f}s"
                        f" (limit {self.heartbeat_timeout:g}s)",
                    )

        def tick(now: float) -> float:
            timeout = self.heartbeat_timeout / 4
            if self.trace_timeout is not None:
                timeout = min(timeout, self.trace_timeout / 4)
            for index in pending:
                task = tasks.get(index)
                if task is None or task.resolved:
                    continue
                delta = task.eligible_at - now
                if delta > 0:
                    timeout = min(timeout, delta)
            return min(max(timeout, 0.005), 1.0)

        try:
            for _ in range(self.jobs):
                spawn()
            while True:
                # Idle workers take already-built tasks first, so none
                # waits while refill() builds the next payloads.
                dispatch()
                refill()
                dispatch()
                if state["input_done"] and not tasks:
                    break
                waitables: Dict[Any, _WorkerHandle] = {}
                for handle in workers.values():
                    if not handle.alive:
                        continue
                    waitables[handle.conn] = handle
                    waitables[handle.process.sentinel] = handle
                now = time.monotonic()
                if waitables:
                    ready = mp_connection.wait(
                        list(waitables), timeout=tick(now)
                    )
                else:
                    ready = []
                seen = set()
                for waitable in ready:
                    handle = waitables[waitable]
                    if handle.wid in seen or not handle.alive:
                        continue
                    seen.add(handle.wid)
                    pipe_ok = pump(handle)
                    if not pipe_ok or not handle.process.is_alive():
                        reap(handle, "crash", "")
                check_leases(time.monotonic())
        except BaseException:
            self._shutdown(workers, graceful=False)
            raise
        self._shutdown(workers, graceful=True)
        return ordered

    @staticmethod
    def _shutdown(workers: Dict[str, _WorkerHandle], graceful: bool) -> None:
        handles = list(workers.values())
        if graceful:
            for handle in handles:
                try:
                    handle.conn.send(("stop",))
                except (OSError, ValueError, BrokenPipeError):
                    pass
            deadline = time.monotonic() + 2.0
            for handle in handles:
                handle.process.join(
                    timeout=max(0.0, deadline - time.monotonic())
                )
        for handle in handles:
            if handle.process.is_alive():
                try:
                    handle.process.kill()
                except Exception:  # noqa: BLE001 - already gone
                    pass
                handle.process.join(timeout=5)
            try:
                handle.conn.close()
            except OSError:
                pass
        workers.clear()
