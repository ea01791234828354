"""The supervised process pool: kill/hang/poison chaos matrix.

Acceptance property for every fault scenario: the pool loses zero
traces, duplicates zero results, keeps submission order, and its
outputs are byte-identical to a fault-free sequential run.
"""

import pytest

from repro import api
from repro.compiler import kernels
from repro.errors import PoolError
from repro.obs.metrics import DEFAULT_REGISTRY
from repro.parallel import MonitorPool, RetryPolicy
from repro.parallel.supervisor import AttemptRecord, FaultPlan
from repro.testing import (
    chaos_pool_run,
    hang_worker,
    kill_worker_after,
    poison_trace,
)

from .util import random_trace, to_events

needs_numpy = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy not installed"
)

SEEN_SET_TEXT = """\
in i: Int

def m  := merge(y, set_empty(unit))
def yl := last(m, i)
def y  := set_add(yl, i)
def s  := set_contains(yl, i)

out s
"""


def make_traces(count, length=40, domain=7):
    return [
        to_events(random_trace(["i"], length, domain, seed))
        for seed in range(count)
    ]


def serial_baseline(traces, compile_options=None):
    pool = MonitorPool(
        SEEN_SET_TEXT, compile_options=compile_options, jobs=1
    )
    return pool.run_many(traces)


class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        policy = RetryPolicy(jitter_seed=42)
        assert policy.delay(3, 1) == policy.delay(3, 1)
        assert policy.delay(3, 1) != policy.delay(4, 1)
        assert policy.delay(3, 1) != policy.delay(3, 2)

    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.4, jitter_seed=0)
        # Jitter scales into [base/2, base): the un-jittered bases are
        # 0.1, 0.2, 0.4, 0.4 (capped), ...
        for attempt, ceiling in ((1, 0.1), (2, 0.2), (3, 0.4), (9, 0.4)):
            delay = policy.delay(0, attempt)
            assert ceiling / 2 <= delay < ceiling

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=1.0, max_delay=0.5)


class TestFaultPlan:
    def test_merged_takes_union(self):
        merged = kill_worker_after(1, 2).merged(
            hang_worker(3).merged(poison_trace(5, 2))
        )
        assert merged.kill == {1: 2}
        assert merged.hang == {3: 1}
        assert merged.poison == (2, 5)

    def test_replay_names_seed_and_plan(self):
        plan = poison_trace(4, seed=99)
        assert "seed=99" in plan.replay()
        assert "poison=(4,)" in plan.replay()

    def test_attempt_record_str(self):
        record = AttemptRecord(2, "w1", "crash", "exited with code -9")
        assert str(record) == "attempt 2 [w1] crash: exited with code -9"


class TestKillMatrix:
    def test_killed_worker_trace_is_redispatched(self):
        traces = make_traces(6)
        baseline = serial_baseline(traces)
        result = chaos_pool_run(
            SEEN_SET_TEXT, traces, kill_worker_after(2, seed=7)
        )
        assert result.outputs() == baseline.outputs()
        assert [r.index for r in result.results] == list(range(6))
        assert result.failures == 0
        assert result.report.retries >= 1
        assert result.report.worker_restarts >= 1
        outcomes = [a.outcome for a in result.results[2].attempts]
        assert outcomes[0] == "crash"
        assert outcomes[-1] == "ok"

    def test_repeated_kills_exhaust_into_quarantine(self):
        options = api.CompileOptions(error_policy="propagate")
        traces = make_traces(5)
        baseline = serial_baseline(traces, options)
        result = chaos_pool_run(
            SEEN_SET_TEXT,
            traces,
            kill_worker_after(1, attempts=10, seed=3),
            compile_options=options,
            max_attempts=3,
        )
        assert result.failures == 1
        assert result.quarantined == [1]
        assert result.report.traces_quarantined == 1
        quarantined = result.results[1]
        assert quarantined.error.startswith("quarantined after 3 attempts")
        assert "crash" in quarantined.error
        assert "seed=3" in quarantined.error  # chaos replay key
        # Every other trace is complete, ordered, byte-identical.
        for index in (0, 2, 3, 4):
            assert (
                result.results[index].outputs
                == baseline.results[index].outputs
            )

    def test_multiple_kills_across_traces(self):
        traces = make_traces(8)
        baseline = serial_baseline(traces)
        plan = (
            kill_worker_after(0, seed=5)
            .merged(kill_worker_after(3))
            .merged(kill_worker_after(6))
        )
        result = chaos_pool_run(SEEN_SET_TEXT, traces, plan, jobs=3)
        assert result.outputs() == baseline.outputs()
        assert result.failures == 0
        assert result.report.retries >= 3
        assert result.report.worker_restarts >= 3


class TestHangMatrix:
    def test_hung_worker_is_killed_and_trace_redispatched(self):
        traces = make_traces(5)
        baseline = serial_baseline(traces)
        result = chaos_pool_run(
            SEEN_SET_TEXT, traces, hang_worker(1, seed=11)
        )
        assert result.outputs() == baseline.outputs()
        assert result.failures == 0
        outcomes = [a.outcome for a in result.results[1].attempts]
        assert outcomes[0] == "hang"
        assert outcomes[-1] == "ok"
        assert result.report.worker_restarts >= 1

    def test_trace_timeout_deadline(self):
        traces = make_traces(4)
        baseline = serial_baseline(traces)
        # Generous heartbeat limit so the per-trace deadline, not the
        # heartbeat monitor, is what catches the hang.
        result = chaos_pool_run(
            SEEN_SET_TEXT,
            traces,
            hang_worker(2, seed=13),
            heartbeat_timeout=30.0,
            trace_timeout=0.3,
        )
        assert result.outputs() == baseline.outputs()
        outcomes = [a.outcome for a in result.results[2].attempts]
        assert outcomes[0] == "timeout"
        assert outcomes[-1] == "ok"


class TestPoisonMatrix:
    def test_fail_fast_aborts_naming_trace_worker_attempts(self):
        traces = make_traces(5)
        with pytest.raises(PoolError) as excinfo:
            chaos_pool_run(
                SEEN_SET_TEXT,
                traces,
                poison_trace(3, seed=21),
                max_attempts=2,
            )
        error = excinfo.value
        assert error.trace_index == 3
        assert error.worker_id is not None
        assert len(error.attempts) == 2
        message = str(error)
        assert "trace 3 failed after 2 attempts" in message
        assert "PoisonTraceError" in message
        assert "seed=21" in message  # chaos replay key

    def test_propagate_quarantines_and_drains(self):
        options = api.CompileOptions(error_policy="propagate")
        traces = make_traces(6)
        baseline = serial_baseline(traces, options)
        result = chaos_pool_run(
            SEEN_SET_TEXT,
            traces,
            poison_trace(0, 4, seed=17),
            compile_options=options,
            max_attempts=2,
        )
        assert result.failures == 2
        assert result.quarantined == [0, 4]
        assert result.report.traces_quarantined == 2
        for index in (1, 2, 3, 5):
            assert (
                result.results[index].outputs
                == baseline.results[index].outputs
            )
        for index in (0, 4):
            assert "PoisonTraceError" in result.results[index].error
            assert "seed=17" in result.results[index].error


class TestCombinedChaos:
    def test_kill_hang_and_poison_together(self):
        options = api.CompileOptions(error_policy="propagate")
        traces = make_traces(8)
        baseline = serial_baseline(traces, options)
        plan = (
            kill_worker_after(1, seed=31)
            .merged(hang_worker(4))
            .merged(poison_trace(6))
        )
        result = chaos_pool_run(
            SEEN_SET_TEXT,
            traces,
            plan,
            compile_options=options,
            jobs=3,
            max_attempts=2,
        )
        # Exactly the poison trace is lost; everything else survives
        # its injected crash/hang and matches the serial run.
        assert result.failures == 1
        assert result.quarantined == [6]
        assert [r.index for r in result.results] == list(range(8))
        for index in range(8):
            if index == 6:
                continue
            assert (
                result.results[index].outputs
                == baseline.results[index].outputs
            )

    def test_on_result_streams_in_order_under_faults(self):
        traces = make_traces(6)
        seen = []
        result = chaos_pool_run(
            SEEN_SET_TEXT,
            traces,
            kill_worker_after(0, seed=41).merged(hang_worker(3)),
            jobs=3,
            on_result=lambda r: seen.append(r.index),
        )
        assert seen == list(range(6))
        assert result.failures == 0


class TestObservability:
    def test_pool_counters_on_default_registry(self):
        was_enabled = DEFAULT_REGISTRY.enabled
        DEFAULT_REGISTRY.enabled = True
        before = DEFAULT_REGISTRY.snapshot()["counters"]
        try:
            chaos_pool_run(
                SEEN_SET_TEXT,
                make_traces(4),
                kill_worker_after(1, seed=51),
            )
        finally:
            after = DEFAULT_REGISTRY.snapshot()["counters"]
            DEFAULT_REGISTRY.enabled = was_enabled

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        assert delta("pool_tasks_dispatched") >= 4
        assert delta("pool_retries") >= 1
        assert delta("pool_worker_restarts") >= 1

    def test_merged_report_surfaces_supervision_counters(self):
        result = chaos_pool_run(
            SEEN_SET_TEXT, make_traces(4), kill_worker_after(2, seed=61)
        )
        as_dict = result.report.as_dict()
        assert as_dict["retries"] == result.report.retries >= 1
        assert (
            as_dict["worker_restarts"] == result.report.worker_restarts >= 1
        )
        assert as_dict["traces_quarantined"] == 0


class TestSequentialRetryLoop:
    """``jobs=1`` runs the in-process retry loop: same retry,
    quarantine and fail-fast semantics as the supervised pool."""

    def test_sequential_quarantines_bad_trace(self):
        options = api.CompileOptions(error_policy="propagate")
        pool = MonitorPool(
            SEEN_SET_TEXT,
            compile_options=options,
            jobs=1,
            retry=RetryPolicy(max_attempts=2, base_delay=0.001),
        )
        bad = [(5, "i", 1), (2, "i", 2)]  # out of order -> MonitorError
        traces = make_traces(2) + [bad]
        result = pool.run_many(traces)
        assert result.backend == "sequential"
        assert result.failures == 1
        assert result.quarantined == [2]
        assert "MonitorError" in result.results[2].error
        assert len(result.results[2].attempts) == 2
        assert result.report.retries >= 1

    def test_sequential_fail_fast_carries_attempt_history(self):
        pool = MonitorPool(
            SEEN_SET_TEXT,
            jobs=1,
            retry=RetryPolicy(max_attempts=2, base_delay=0.001),
        )
        bad = [(5, "i", 1), (2, "i", 2)]
        with pytest.raises(PoolError) as excinfo:
            pool.run_many(make_traces(1) + [bad])
        assert excinfo.value.trace_index == 1
        assert len(excinfo.value.attempts) == 2
        assert "MonitorError" in str(excinfo.value)


class TestBackendEquivalence:
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_process_pool_agrees_with_sequential(self, jobs):
        monitor = api.compile(SEEN_SET_TEXT)
        traces = make_traces(5)
        seq = api.run_many(monitor, traces, api.RunOptions(jobs=1))
        par = api.run_many(monitor, traces, api.RunOptions(jobs=jobs))
        assert seq.backend == "sequential"
        assert par.backend == "process"
        assert par.outputs() == seq.outputs()
        assert par.report.events_in == seq.report.events_in

    def test_run_options_validation(self):
        with pytest.raises(ValueError):
            api.RunOptions(jobs=0)
        with pytest.raises(ValueError):
            api.RunOptions(trace_timeout=0)
        with pytest.raises(ValueError):
            api.RunOptions(max_retries=-1)


VECTOR_TEXT = """\
in i: Int
def dbl := add(i, i)
out dbl
"""


def dense_traces(count, length=50):
    return [
        [(t, "i", (t * seed) % 7) for t in range(length)]
        for seed in range(count)
    ]


@needs_numpy
class TestColumnarChaos:
    """The kill/hang/poison/fail-fast matrix over columnar payloads."""

    @pytest.fixture
    def baseline(self):
        traces = dense_traces(6)
        return traces, MonitorPool(VECTOR_TEXT, jobs=1).run_many(traces)

    def test_killed_worker_redispatches_columns(self, baseline):
        traces, serial = baseline
        assert api.compile(VECTOR_TEXT).engine_resolved == "vector"
        result = chaos_pool_run(
            VECTOR_TEXT, traces, kill_worker_after(2, seed=7)
        )
        assert result.outputs() == serial.outputs()
        assert result.report.events_in == serial.report.events_in
        assert result.failures == 0
        assert result.report.retries >= 1
        assert result.results[2].attempts[0].outcome == "crash"

    def test_hung_worker_redispatches_columns(self, baseline):
        traces, serial = baseline
        result = chaos_pool_run(VECTOR_TEXT, traces, hang_worker(1))
        assert result.outputs() == serial.outputs()
        assert result.failures == 0
        assert result.results[1].attempts[0].outcome == "hang"

    def test_poison_quarantines_columns(self, baseline):
        traces, serial = baseline
        options = api.CompileOptions(error_policy="propagate")
        result = chaos_pool_run(
            VECTOR_TEXT,
            traces,
            poison_trace(2),
            compile_options=options,
            max_attempts=2,
        )
        assert result.failures == 1
        assert result.results[2].quarantined
        kept = [r.outputs for r in result.results if r.index != 2]
        assert kept == [o for i, o in enumerate(serial.outputs()) if i != 2]

    def test_fail_fast_aborts_on_columns(self, baseline):
        traces, _serial = baseline
        with pytest.raises(PoolError) as excinfo:
            chaos_pool_run(
                VECTOR_TEXT, traces, poison_trace(1), max_attempts=2
            )
        assert excinfo.value.trace_index == 1
        assert len(excinfo.value.attempts) == 2


class _OneShotTrace:
    """An iterable that counts (and permits) a single materialization."""

    def __init__(self, events):
        self.events = list(events)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return iter(list(self.events))


class TestParseOnce:
    @pytest.mark.parametrize(
        "spec, raw",
        [
            (SEEN_SET_TEXT, make_traces(5)),
            pytest.param(VECTOR_TEXT, dense_traces(5), marks=needs_numpy),
        ],
        ids=["rows", "columns"],
    )
    def test_retries_do_not_reiterate_traces(self, spec, raw):
        # Supervision re-dispatches trace 2 after a worker kill; the
        # parent must resend the built payload, never re-pull the
        # source iterable.
        traces = [_OneShotTrace(events) for events in raw]
        baseline = MonitorPool(spec, jobs=1).run_many(raw)
        result = chaos_pool_run(spec, traces, kill_worker_after(2, seed=7))
        assert result.outputs() == baseline.outputs()
        assert result.report.retries >= 1
        assert [t.iterations for t in traces] == [1] * len(traces)
