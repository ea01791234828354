"""Differential-testing and fault-injection utilities (public API).

The library's correctness story is that the optimized monitor, the
persistent baseline, the naive-copy monitor and the reference
interpreter agree on every output event of every specification.  This
module packages that check for downstream users extending the language
(custom lifted functions are exactly the place to get access metadata
wrong — and wrong metadata shows up as divergence between backends).

::

    from repro.testing import assert_equivalent
    assert_equivalent(my_spec, {"x": [(1, 3), (2, 5)]})

It also hosts the chaos harness for the hardened runtime: seeded event
perturbation (drop / duplicate / corrupt / reorder), deterministic
flaky-lift injection, and a mid-run crash-plus-recovery driver — the
executable form of the robustness claims in ``docs/runtime.md``::

    from repro.testing import ChaosPlan, chaos_run
    result = chaos_run(my_spec, events, ChaosPlan(seed=7, corrupt_rate=0.1))
    assert result.report.faults_absorbed() > 0
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .compiler import (
    CompiledSpec,
    MonitorRunner,
    RunReport,
    build_compiled_spec,
    freeze,
)
from .lang.flatten import flatten
from .lang.spec import FlatSpec, Specification
from .semantics import IngestPolicy, IngestStats, Stream, TolerantReader, interpret
from .structures import Backend

OutputTraces = Dict[str, List[Tuple[int, Any]]]


class EquivalenceError(AssertionError):
    """Raised when two evaluation strategies disagree."""


def reference_outputs(
    spec: Union[Specification, FlatSpec],
    inputs: Mapping[str, Iterable],
    end_time: Optional[int] = None,
) -> OutputTraces:
    """Output traces per the reference interpreter (frozen values)."""
    flat = spec if isinstance(spec, FlatSpec) else flatten(spec)
    streams = {name: Stream(list(trace)) for name, trace in inputs.items()}
    results = interpret(flat, streams, end_time=end_time)
    return {
        name: [(ts, freeze(value)) for ts, value in results[name]]
        for name in flat.outputs
    }


def compiled_outputs(
    spec: Union[Specification, FlatSpec],
    inputs: Mapping[str, Iterable],
    end_time: Optional[int] = None,
    **compile_kwargs: Any,
) -> OutputTraces:
    """Output traces of a compiled monitor (frozen values)."""
    compiled = build_compiled_spec(spec, **compile_kwargs)
    results = compiled.run_traces(inputs, end_time=end_time)
    return {name: stream.events for name, stream in results.items()}


#: The three compilation strategies checked by default.
DEFAULT_STRATEGIES: Dict[str, dict] = {
    "optimized": {"optimize": True},
    "persistent": {"optimize": False},
    "copying": {"backend_override": Backend.COPYING},
}


def assert_equivalent(
    spec: Union[Specification, FlatSpec],
    inputs: Mapping[str, Iterable],
    end_time: Optional[int] = None,
    strategies: Optional[Mapping[str, dict]] = None,
) -> OutputTraces:
    """Check that all strategies match the reference interpreter.

    Returns the agreed output traces; raises :class:`EquivalenceError`
    naming the diverging strategy and output stream otherwise.  Note
    that specifications must be *re-flattened* per strategy internally,
    which this function handles (compiled monitors may share a FlatSpec
    safely; monitors never mutate it).
    """
    flat = spec if isinstance(spec, FlatSpec) else flatten(spec)
    reference = reference_outputs(flat, inputs, end_time)
    for name, kwargs in (strategies or DEFAULT_STRATEGIES).items():
        candidate = compiled_outputs(flat, inputs, end_time, **kwargs)
        if candidate != reference:
            detail = _first_difference(reference, candidate)
            raise EquivalenceError(
                f"strategy {name!r} diverges from the reference"
                f" interpreter: {detail}"
            )
    return reference


# -- fault injection (chaos harness) -----------------------------------------


class ChaosFault(Exception):
    """The exception deterministically injected into flaky lifts."""


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded description of how to perturb an event sequence.

    Rates are independent per-event probabilities; the same seed always
    produces the same perturbation, so every chaos failure reproduces.
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    corrupt_rate: float = 0.0
    reorder_rate: float = 0.0

    def replay(self) -> str:
        """The ``(seed, plan)`` replay key stamped into failure messages."""
        return f"seed={self.seed} plan={self!r}"


@dataclass
class FaultLog:
    """What :func:`perturb_events` actually did to a sequence."""

    dropped: int = 0
    duplicated: int = 0
    corrupted: int = 0
    reordered: int = 0

    def total(self) -> int:
        return self.dropped + self.duplicated + self.corrupted + self.reordered


#: Junk values substituted for corrupted events: wrong types, extreme
#: magnitudes, NaN — each should fail input validation or make a lift
#: raise, never crash a hardened monitor.
CORRUPTION_PALETTE: Tuple[Any, ...] = (
    "☠corrupted☠",
    float("nan"),
    -(2**63),
    (),
    [1, 2],
)


def perturb_events(
    events: Iterable[Tuple[int, str, Any]],
    plan: ChaosPlan,
) -> Tuple[List[Tuple[int, str, Any]], FaultLog]:
    """Apply *plan* to ``(ts, stream, value)`` events, deterministically.

    Reordering swaps adjacent events; only swaps that change the
    timestamp order count as faults (same-timestamp swaps are
    semantically invisible).
    """
    rng = random.Random(plan.seed)
    log = FaultLog()
    out: List[Tuple[int, str, Any]] = []
    for ts, name, value in events:
        if rng.random() < plan.drop_rate:
            log.dropped += 1
            continue
        if rng.random() < plan.corrupt_rate:
            value = rng.choice(CORRUPTION_PALETTE)
            log.corrupted += 1
        out.append((ts, name, value))
        if rng.random() < plan.duplicate_rate:
            out.append((ts, name, value))
            log.duplicated += 1
    for index in range(len(out) - 1):
        if rng.random() < plan.reorder_rate:
            if out[index][0] != out[index + 1][0]:
                log.reordered += 1
            out[index], out[index + 1] = out[index + 1], out[index]
    return out, log


def flaky(impl, failure_rate: float, seed: int = 0, exception=ChaosFault):
    """Wrap a lift implementation to raise deterministically at random.

    Use inside a custom :class:`~repro.lang.builtins.LiftedFunction`'s
    ``make_impl`` to inject lift exceptions into a compiled monitor.
    The injected message carries the ``(seed, failure_rate)`` pair, so
    any failure it surfaces names its own replay.
    """
    rng = random.Random(seed)

    def wrapped(*args):
        if rng.random() < failure_rate:
            raise exception(
                f"injected fault in {getattr(impl, '__name__', 'lift')}"
                f" (replay: seed={seed} failure_rate={failure_rate})"
            )
        return impl(*args)

    return wrapped


class ChaosReplayError(Exception):
    """A chaos-induced failure, stamped with its replay key.

    Raised (chained from the original exception) when a
    :func:`chaos_run` escapes its never-raise contract: the message
    always carries the ``(seed, plan)`` pair, so the exact perturbation
    can be replayed deterministically.
    """


@dataclass
class ChaosResult:
    """Everything a chaos run produced, for assertions."""

    outputs: List[Tuple[str, int, Any]]
    report: RunReport
    faults: FaultLog
    ingest: IngestStats
    #: The plan that produced this run (replay with ``plan.replay()``).
    plan: Optional[ChaosPlan] = None


#: Ingestion policy used by :func:`chaos_run`: swallow every bad-input
#: category, record everything.
CHAOS_INGEST = IngestPolicy(
    on_malformed="skip", on_unknown_stream="skip", on_out_of_order="skip"
)


def chaos_run(
    spec: Union[Specification, FlatSpec, CompiledSpec],
    events: Iterable[Tuple[int, str, Any]],
    plan: Optional[ChaosPlan] = None,
    *,
    error_policy: str = "propagate",
    validate_inputs: bool = True,
    ingest: Optional[IngestPolicy] = None,
    end_time: Optional[int] = None,
    **runner_kwargs: Any,
) -> ChaosResult:
    """Perturb *events* per *plan* and run a hardened monitor over them.

    The acceptance property for the hardened runtime: under the default
    ``propagate`` + skip-everything configuration this never raises, no
    matter the plan, and every absorbed fault is accounted in the
    returned report.
    """
    if isinstance(spec, CompiledSpec):
        compiled = spec
    else:
        compiled = build_compiled_spec(spec, error_policy=error_policy)
    plan = plan if plan is not None else ChaosPlan()
    perturbed, fault_log = perturb_events(events, plan)
    reader = TolerantReader(
        ingest if ingest is not None else CHAOS_INGEST,
        known_streams=compiled.flat.inputs,
    )
    outputs: List[Tuple[str, int, Any]] = []
    runner = MonitorRunner(
        compiled,
        lambda name, ts, value: outputs.append((name, ts, value)),
        validate_inputs=validate_inputs,
        **runner_kwargs,
    )
    try:
        runner.feed(reader.events(perturbed, lambda event: event))
        runner.finish(end_time=end_time)
    except Exception as exc:
        # The hardened runtime's contract is that this never happens
        # under the default configuration; when it does, the failure
        # must name its own reproduction.
        raise ChaosReplayError(
            f"{type(exc).__name__}: {exc} (chaos replay: {plan.replay()})"
        ) from exc
    runner.report.absorb_ingest(reader.stats)
    return ChaosResult(
        outputs=outputs,
        report=runner.report,
        faults=fault_log,
        ingest=reader.stats,
        plan=plan,
    )


def crash_and_resume(
    spec: Union[Specification, FlatSpec, CompiledSpec],
    events: Iterable[Tuple[int, str, Any]],
    *,
    crash_after: int,
    checkpoint_dir: str,
    checkpoint_every: int = 1,
    end_time: Optional[int] = None,
    **compile_kwargs: Any,
) -> Tuple[List[Tuple[str, int, Any]], List[Tuple[str, int, Any]]]:
    """Simulate a mid-run crash and recovery; return both output lists.

    Runs the full trace uninterrupted, then replays it with a simulated
    crash after *crash_after* input events (the runner is simply
    abandoned — no finish, no flush) followed by a resume from the
    newest checkpoint.  Returns ``(expected, recovered)``; the hardened
    runtime's durability guarantee is that they are equal.
    """
    if isinstance(spec, CompiledSpec):
        compiled = spec
    else:
        compiled = build_compiled_spec(spec, **compile_kwargs)
    events = list(events)

    expected: List[Tuple[str, int, Any]] = []
    full = MonitorRunner(
        compiled, lambda name, ts, value: expected.append((name, ts, value))
    )
    full.feed(events)
    full.finish(end_time=end_time)

    pre_crash: List[Tuple[str, int, Any]] = []
    crashed = MonitorRunner(
        compiled,
        lambda name, ts, value: pre_crash.append((name, ts, value)),
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
    )
    crashed.feed(events[:crash_after])
    # ... and the process dies here: no finish(), state abandoned.

    post_crash: List[Tuple[str, int, Any]] = []
    resumed, meta = MonitorRunner.resume(
        compiled,
        checkpoint_dir,
        on_output=lambda name, ts, value: post_crash.append((name, ts, value)),
    )
    kept = meta["outputs_emitted"] if meta else 0
    resumed.feed_from_start(events)
    resumed.finish(end_time=end_time)
    recovered = pre_crash[:kept] + post_crash
    return expected, recovered


# -- worker-pool fault injection ----------------------------------------------
#
# The MonitorPool's worker processes are supervised (heartbeats, retries,
# quarantine — see repro.parallel.supervisor); these constructors build
# the deterministic FaultPlans its tests and chaos CI run under.  They
# re-export the plan type from the supervisor so test code needs only
# repro.testing.

from .parallel.supervisor import FaultPlan, PoisonTraceError  # noqa: E402


def kill_worker_after(
    trace_index: int, attempts: int = 1, *, seed: int = 0
) -> FaultPlan:
    """A plan under which the worker running *trace_index* SIGKILLs
    itself mid-trace on its first *attempts* tries (later tries run
    clean) — the supervisor must detect the death, restart a worker,
    and re-dispatch the trace."""
    return FaultPlan(kill={trace_index: attempts}, seed=seed)


def hang_worker(
    trace_index: int,
    attempts: int = 1,
    *,
    hang_seconds: float = 3600.0,
    seed: int = 0,
) -> FaultPlan:
    """A plan under which the worker running *trace_index* freezes
    (heartbeats stop) on its first *attempts* tries — the supervisor
    must detect the missed heartbeats, kill the worker, and re-dispatch
    the trace."""
    return FaultPlan(
        hang={trace_index: attempts}, hang_seconds=hang_seconds, seed=seed
    )


def poison_trace(*trace_indexes: int, seed: int = 0) -> FaultPlan:
    """A plan under which every attempt of the given traces raises
    :class:`~repro.parallel.supervisor.PoisonTraceError` — the
    supervisor must exhaust the retry budget and quarantine (or, under
    fail-fast, abort naming the trace)."""
    return FaultPlan(poison=tuple(sorted(trace_indexes)), seed=seed)


def chaos_pool_run(
    spec: Any,
    traces: Iterable[Iterable[Tuple[int, str, Any]]],
    fault_plan: FaultPlan,
    *,
    compile_options: Any = None,
    jobs: int = 2,
    max_attempts: int = 4,
    heartbeat_interval: float = 0.02,
    heartbeat_timeout: float = 0.3,
    trace_timeout: Optional[float] = None,
    **run_kwargs: Any,
):
    """Run the supervised process pool under *fault_plan* with fast
    supervision clocks (tight heartbeats, small backoff) — the chaos
    matrix in one call.  Returns the
    :class:`~repro.parallel.pool.PoolResult`; the acceptance property
    is that its outputs are byte-identical to a fault-free sequential
    run whenever every trace survives its retry budget.
    """
    from .parallel.pool import MonitorPool
    from .parallel.supervisor import RetryPolicy

    pool = MonitorPool(
        spec,
        compile_options=compile_options,
        jobs=jobs,
        retry=RetryPolicy(
            max_attempts=max_attempts, base_delay=0.01, max_delay=0.05
        ),
        heartbeat_interval=heartbeat_interval,
        heartbeat_timeout=heartbeat_timeout,
        trace_timeout=trace_timeout,
        fault_plan=fault_plan,
    )
    return pool.run_many(traces, **run_kwargs)


def _first_difference(reference: OutputTraces, candidate: OutputTraces) -> str:
    for stream in sorted(set(reference) | set(candidate)):
        expected = reference.get(stream, [])
        actual = candidate.get(stream, [])
        if expected == actual:
            continue
        for index in range(max(len(expected), len(actual))):
            want = expected[index] if index < len(expected) else "<no event>"
            got = actual[index] if index < len(actual) else "<no event>"
            if want != got:
                return (
                    f"output {stream!r}, event #{index}:"
                    f" expected {want}, got {got}"
                )
    return "traces differ"  # pragma: no cover - defensive
