"""CLI exit codes for the parallel execution paths.

A worker failure under ``run-many --jobs N`` must surface as a nonzero
exit with a single diagnostic line on stderr — never a raw
traceback, and never a silent success.  These tests drive
``repro.cli.main`` in-process so the return code and the exact stderr
shape are asserted, not just eyeballed.
"""

import pytest

from repro.cli import main
from repro.parallel.pool import PoolError

TWO_FAMILY_SPEC = """\
in a_i: Int
in b_i: Int

def a_m := merge(a_y, set_empty(unit))
def a_l := last(a_m, a_i)
def a_y := set_toggle(a_l, a_i)
def a_was := set_contains(a_l, a_i)
def a_div := div(a_i, a_i)

def b_m := merge(b_y, set_empty(unit))
def b_l := last(b_m, b_i)
def b_y := set_toggle(b_l, b_i)
def b_was := set_contains(b_l, b_i)

out a_was
out b_was
out a_div
"""


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "two.tessla"
    path.write_text(TWO_FAMILY_SPEC)
    return str(path)


def write_trace(tmp_path, lines):
    path = tmp_path / "trace.csv"
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


class TestParallelExitCodes:
    def test_clean_run_exits_zero(self, tmp_path, spec_path, capsys):
        trace = write_trace(tmp_path, ["1,a_i,3", "2,b_i,4", "3,a_i,5"])
        rc = main(
            ["run-many", spec_path, "--traces", trace, trace, "--jobs", "2"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        assert "a_was" in captured.out

    def test_crashing_lift_fails_fast_with_one_line(
        self, tmp_path, spec_path, capsys
    ):
        # a_i == 0 makes a_div raise inside a pool worker; the
        # fail-fast policy must abort the whole run.
        trace = write_trace(tmp_path, ["1,a_i,3", "2,b_i,4", "3,a_i,0"])
        rc = main(
            ["run-many", spec_path, "--traces", trace, "--jobs", "2",
             "--max-retries", "0"]
        )
        captured = capsys.readouterr()
        assert rc == 1
        err_lines = captured.err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error:")
        assert "Traceback" not in captured.err

    def test_pool_error_reported_without_traceback(
        self, tmp_path, spec_path, capsys, monkeypatch
    ):
        # The multiprocessing path reports worker death as PoolError;
        # the CLI must translate it, whatever the pool was doing.
        import repro.cli as cli_mod

        def explode(*args, **kwargs):
            raise PoolError("trace 2 failed: worker died")

        monkeypatch.setattr(cli_mod.api, "run_many", explode)
        trace = write_trace(tmp_path, ["1,a_i,3"])
        rc = main(
            ["run-many", spec_path, "--traces", trace, "--jobs", "2"]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: trace 2 failed: worker died\n"

    def test_profile_subcommand_shares_parallel_error_handling(
        self, tmp_path, spec_path, capsys, monkeypatch
    ):
        import repro.cli as cli_mod

        def explode(*args, **kwargs):
            raise PoolError("worker lost")

        monkeypatch.setattr(cli_mod.api, "run", explode)
        trace = write_trace(tmp_path, ["1,a_i,3"])
        rc = main(["profile", spec_path, "--trace", trace])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: worker lost\n"
