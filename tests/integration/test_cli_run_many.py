"""The ``run-many`` subcommand: multi-trace runs over the worker pool.

Asserts the CSV output shape (``trace,ts,stream,value`` in submission
order), the quarantine warnings under a tolerant error policy, and the
satellite regression: a fail-fast abort is exactly one ``error:`` line
on stderr — naming the trace index, worker and attempt history — with
exit code 1 and no traceback.
"""

import json

import pytest

from repro.cli import main

SEEN_SET_SPEC = """\
in i: Int

def m  := merge(y, set_empty(unit))
def yl := last(m, i)
def y  := set_add(yl, i)
def s  := set_contains(yl, i)

out s
"""

# div(a, a) raises ZeroDivisionError on a == 0: a deterministic poison
# trace for the retry/fail-fast machinery, no chaos plan needed.
DIV_SPEC = """\
in a: Int
def q := div(a, a)
out q
"""

# A self-re-arming delay loop, gated on the input value: any event with
# a in {0, 1} arms a timer that re-arms itself forever, so the monitor
# never terminates.  Unlike a lift error this survives *every* error
# policy — the deterministic "worker wedged on one trace" shape for
# exercising --trace-timeout quarantine through the CLI.
LOOP_SPEC = """\
in a: Int
def q   := add(a, a)
def z   := filter(a, eq(a, mul(a, a)))
def one := div(time(d), time(d))
def amt := merge(one, time(z))
def d   := delay(amt, a)
out q
out d
"""


@pytest.fixture
def seen_spec(tmp_path):
    path = tmp_path / "seen.tessla"
    path.write_text(SEEN_SET_SPEC)
    return str(path)


@pytest.fixture
def div_spec(tmp_path):
    path = tmp_path / "div.tessla"
    path.write_text(DIV_SPEC)
    return str(path)


@pytest.fixture
def loop_spec(tmp_path):
    path = tmp_path / "loop.tessla"
    path.write_text(LOOP_SPEC)
    return str(path)


def write_traces(tmp_path, stream, rows_per_trace):
    paths = []
    for index, rows in enumerate(rows_per_trace):
        path = tmp_path / f"trace{index}.csv"
        path.write_text(
            "".join(f"{ts},{stream},{value}\n" for ts, value in rows)
        )
        paths.append(str(path))
    return paths


class TestRunMany:
    def test_outputs_are_ordered_and_trace_prefixed(
        self, tmp_path, seen_spec, capsys
    ):
        traces = write_traces(
            tmp_path,
            "i",
            [[(1, 3), (2, 3)], [(1, 5), (2, 6)], [(1, 7), (2, 7)]],
        )
        rc = main(
            ["run-many", seen_spec, "--traces", *traces, "--jobs", "2"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        lines = captured.out.strip().splitlines()
        # trace 0 and 2 repeat a value (seen -> True), trace 1 does not
        assert lines == [
            "0,1,s,False",
            "0,2,s,True",
            "1,1,s,False",
            "1,2,s,False",
            "2,1,s,False",
            "2,2,s,True",
        ]

    @pytest.mark.parametrize("jobs", ["2", "3"])
    def test_pool_matches_sequential_output(
        self, tmp_path, seen_spec, capsys, jobs
    ):
        traces = write_traces(
            tmp_path, "i", [[(t, t % 3) for t in range(1, 8)]] * 3
        )
        rc = main(
            ["run-many", seen_spec, "--traces", *traces, "--jobs", jobs]
        )
        pooled = capsys.readouterr().out
        assert rc == 0
        rc = main(
            ["run-many", seen_spec, "--traces", *traces, "--jobs", "1"]
        )
        serial = capsys.readouterr().out
        assert rc == 0
        assert pooled == serial

    def test_report_includes_supervision_counters(
        self, tmp_path, seen_spec, capsys
    ):
        traces = write_traces(tmp_path, "i", [[(1, 1)], [(1, 2)]])
        rc = main(
            [
                "run-many",
                seen_spec,
                "--traces",
                *traces,
                "--jobs",
                "2",
                "--report",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        report = json.loads(captured.err)
        assert report["retries"] == 0
        assert report["worker_restarts"] == 0
        assert report["traces_quarantined"] == 0

    def test_output_file(self, tmp_path, seen_spec, capsys):
        traces = write_traces(tmp_path, "i", [[(1, 4)], [(1, 4)]])
        out = tmp_path / "out.csv"
        rc = main(
            [
                "run-many",
                seen_spec,
                "--traces",
                *traces,
                "--jobs",
                "2",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == "0,1,s,False\n1,1,s,False\n"

    def test_requires_traces(self, seen_spec, capsys):
        rc = main(["run-many", seen_spec])
        captured = capsys.readouterr()
        assert rc == 1
        assert "requires --traces" in captured.err


class TestFailFastDiagnostic:
    def test_one_line_exit_1_names_trace_worker_attempts(
        self, tmp_path, div_spec, capsys
    ):
        traces = write_traces(tmp_path, "a", [[(1, 5)], [(1, 0)]])
        rc = main(
            [
                "run-many",
                div_spec,
                "--traces",
                *traces,
                "--jobs",
                "2",
                "--max-retries",
                "1",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        err_lines = captured.err.strip().splitlines()
        assert len(err_lines) == 1
        line = err_lines[0]
        assert line.startswith("error: trace 1 failed after 2 attempts")
        assert "attempt 1 [" in line
        assert "attempt 2 [" in line
        assert "ZeroDivisionError" in line
        assert "Traceback" not in captured.err

    def test_zero_retries_is_a_single_attempt(
        self, tmp_path, div_spec, capsys
    ):
        traces = write_traces(tmp_path, "a", [[(1, 0)]])
        rc = main(
            [
                "run-many",
                div_spec,
                "--traces",
                *traces,
                "--jobs",
                "2",
                "--max-retries",
                "0",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "failed after 1 attempts" in captured.err

    def test_propagate_emits_error_values_across_processes(
        self, tmp_path, div_spec, capsys
    ):
        # Under the propagate policy a lift failure is not a trace
        # failure: the event's value becomes a first-class error that
        # must survive the worker pipe (ErrorValue pickling regression).
        traces = write_traces(tmp_path, "a", [[(1, 5)], [(1, 0)]])
        rc = main(
            [
                "run-many",
                div_spec,
                "--traces",
                *traces,
                "--jobs",
                "2",
                "--error-policy",
                "propagate",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        assert "0,1,q,1" in captured.out
        assert '1,1,q,error("div: ZeroDivisionError' in captured.out

    def test_propagate_policy_warns_and_drains(
        self, tmp_path, loop_spec, capsys
    ):
        # Trace 1 wedges its worker in an infinite delay loop; the
        # per-trace deadline condemns it on every attempt, so after the
        # retry budget it is quarantined while the healthy traces drain.
        traces = write_traces(tmp_path, "a", [[(1, 5)], [(1, 0)], [(1, 3)]])
        rc = main(
            [
                "run-many",
                loop_spec,
                "--traces",
                *traces,
                "--jobs",
                "2",
                "--max-retries",
                "1",
                "--trace-timeout",
                "0.3",
                "--error-policy",
                "propagate",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        # Healthy traces still emit; the poison trace warns on stderr.
        assert "0,1,q,10" in captured.out
        assert "2,1,q,6" in captured.out
        warnings = captured.err.strip().splitlines()
        assert len(warnings) == 1
        assert warnings[0].startswith("warning: trace 1")
        assert "quarantined after 2 attempts" in warnings[0]
        assert "timeout" in warnings[0]


class TestParseOnce:
    def test_each_trace_file_is_read_exactly_once(
        self, tmp_path, loop_spec, capsys, monkeypatch
    ):
        # Trace 1 wedges its worker until the per-trace deadline kills
        # it; the supervisor re-dispatches it once before quarantining.
        # Every re-dispatch must reuse the already-parsed payload — the
        # CSV file is read exactly once per trace regardless of attempt
        # count.
        import repro.cli as cli

        calls = []
        original = cli._read_trace

        def counting(path, flat):
            calls.append(path)
            return original(path, flat)

        monkeypatch.setattr(cli, "_read_trace", counting)
        traces = write_traces(
            tmp_path, "a", [[(1, 5)], [(1, 0)], [(1, 3)]]
        )
        rc = main(
            [
                "run-many",
                loop_spec,
                "--traces",
                *traces,
                "--jobs",
                "2",
                "--max-retries",
                "1",
                "--trace-timeout",
                "0.3",
                "--error-policy",
                "propagate",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        # The retry path ran (two attempts on the wedged trace) ...
        assert "quarantined after 2 attempts" in captured.err
        # ... and still, one parse per file.
        assert sorted(calls) == sorted(traces)

    def test_pool_transport_flag_is_gone(self, tmp_path, seen_spec, capsys):
        traces = write_traces(tmp_path, "i", [[(1, 3), (2, 3)]])
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "run-many",
                    seen_spec,
                    "--traces",
                    *traces,
                    "--jobs",
                    "2",
                    "--pool-transport",
                    "pipe",
                ]
            )
        assert excinfo.value.code == 2
        assert "--pool-transport" in capsys.readouterr().err
