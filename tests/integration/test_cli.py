"""Tests for the repro-compile command-line driver."""

import pytest

from repro.cli import main

SPEC_TEXT = """
in i: Int
def m := merge(y, set_empty(unit))
def yl := last(m, i)
def y := set_add(yl, i)
def s := set_contains(yl, i)
out s
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "seen.tessla"
    path.write_text(SPEC_TEXT)
    return str(path)


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("# comment\n1,i,4\n2,i,7\n3,i,4\n\n")
    return str(path)


class TestCommands:
    def test_analyze(self, spec_file, capsys):
        assert main(["analyze", spec_file]) == 0
        out = capsys.readouterr().out
        assert "mutable" in out
        assert "translation order" in out

    def test_dot(self, spec_file, capsys):
        assert main(["dot", spec_file]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_emit(self, spec_file, capsys):
        assert main(["emit", spec_file]) == 0
        out = capsys.readouterr().out
        assert "def _calc_rows(self, rows," in out

    def test_emit_no_optimize(self, spec_file, capsys):
        assert main(["emit", "--no-optimize", spec_file]) == 0
        assert "def _calc_rows(self, rows," in capsys.readouterr().out

    def test_run(self, spec_file, trace_file, capsys):
        assert main(["run", spec_file, "--trace", trace_file]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["1,s,False", "2,s,False", "3,s,True"]


class TestErrors:
    def test_run_without_trace(self, spec_file, capsys):
        assert main(["run", spec_file]) == 1
        assert "requires --trace" in capsys.readouterr().err

    def test_missing_spec_file(self, capsys):
        assert main(["analyze", "/nonexistent.tessla"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_spec_reports_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.tessla"
        path.write_text("def x := unknown_fn(1)")
        assert main(["analyze", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_stream_in_trace(self, spec_file, tmp_path, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text("1,ghost,4\n")
        assert main(["run", spec_file, "--trace", str(trace)]) == 1
        assert "unknown input" in capsys.readouterr().err

    def test_malformed_trace_line(self, spec_file, tmp_path, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text("justonefield\n")
        assert main(["run", spec_file, "--trace", str(trace)]) == 1
        assert "expected" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["analyze", "lint", "dot", "optimize"]
    )
    def test_engine_flag_rejected_on_engineless_command(
        self, spec_file, command, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main([command, spec_file, "--engine", "codegen"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--engine does not apply to '{command}'" in err


class TestValueParsing:
    def test_bool_and_float_inputs(self, tmp_path, capsys):
        spec = tmp_path / "s.tessla"
        spec.write_text(
            "in b: Bool\nin x: Float\n"
            "def nx := slift(fsub, 0.0, x)\n"  # signal-lift: the constant holds
            "def o := slift(ite, b, x, nx)\nout o\n"
        )
        trace = tmp_path / "t.csv"
        trace.write_text("1,b,true\n2,x,1.5\n3,b,false\n")
        assert main(["run", str(spec), "--trace", str(trace)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["2,o,1.5", "3,o,-1.5"]

    def test_unit_input(self, tmp_path, capsys):
        spec = tmp_path / "s.tessla"
        spec.write_text("in u: Unit\ndef t := time(u)\nout t\n")
        trace = tmp_path / "t.csv"
        trace.write_text("5,u\n9,u,\n")
        assert main(["run", str(spec), "--trace", str(trace)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["5,t,5", "9,t,9"]


WARNING_SPEC = """
in i: Int
in ghost: Int
def t := time(i)
out t
"""

PERSISTENT_SPEC = """
in i1: Int
in i2: Int
def m  := merge(y, set_empty(unit))
def yl := last(m, i1)
def y  := set_add(yl, i1)
def yp := last(y, i2)
def s  := set_add(yp, i2)
out s
"""


class TestLintCommand:
    def test_clean_spec_no_diagnostics(self, spec_file, capsys):
        assert main(["lint", spec_file]) == 0
        assert "no diagnostics" in capsys.readouterr().out

    def test_human_output_has_codes(self, tmp_path, capsys):
        spec = tmp_path / "w.tessla"
        spec.write_text(WARNING_SPEC)
        assert main(["lint", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "[LINT003:unused-input] warning ghost:" in out

    def test_json_round_trips(self, tmp_path, capsys):
        import json

        spec = tmp_path / "w.tessla"
        spec.write_text(PERSISTENT_SPEC)
        assert main(["lint", str(spec), "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records
        assert {r["code"] for r in records} == {"MUT001"}
        for record in records:
            assert record["witness"]["rule"] == "no-double-write"
            assert len(record["witness"]["edge"]) == 2

    def test_json_empty_array_for_clean_spec(self, spec_file, capsys):
        import json

        assert main(["lint", spec_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_sarif_output(self, tmp_path, capsys):
        import json

        spec = tmp_path / "w.tessla"
        spec.write_text(PERSISTENT_SPEC)
        assert main(["lint", str(spec), "--sarif"]) == 0
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["version"] == "2.1.0"
        [run] = sarif["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert run["results"]
        [artifact] = run["results"][0]["locations"]
        uri = artifact["physicalLocation"]["artifactLocation"]["uri"]
        assert uri == "w.tessla"

    def test_json_and_sarif_exclusive(self, spec_file, capsys):
        assert main(["lint", spec_file, "--json", "--sarif"]) == 1
        assert "mutually exclusive" in capsys.readouterr().err


class TestStrictFlag:
    def test_strict_clean_spec_passes(self, spec_file):
        assert main(["lint", spec_file, "--strict"]) == 0
        assert main(["analyze", spec_file, "--strict"]) == 0

    def test_strict_fails_on_warning(self, tmp_path, capsys):
        spec = tmp_path / "w.tessla"
        spec.write_text(WARNING_SPEC)
        assert main(["lint", str(spec), "--strict"]) == 1
        assert main(["analyze", str(spec), "--strict"]) == 1

    def test_strict_tolerates_persistence_notes(self, tmp_path, capsys):
        # forced-persistent streams are provenance notes, not errors:
        # a correct spec must not fail CI for needing persistent trees
        spec = tmp_path / "p.tessla"
        spec.write_text(PERSISTENT_SPEC)
        assert main(["lint", str(spec), "--strict"]) == 0
        assert "[MUT001:no-double-write]" in capsys.readouterr().out

    def test_non_strict_never_gates(self, tmp_path):
        spec = tmp_path / "w.tessla"
        spec.write_text(WARNING_SPEC)
        assert main(["lint", str(spec)]) == 0


#: perfbench's ``uncertified`` spec: Fig. 4 (lower) with only the fork's
#: size emitted, so the default compile fuses ``n`` with the write ``s``.
FUSED_SPEC = PERSISTENT_SPEC.replace("out s", "def n  := set_size(s)\nout n")


def _dot_fills(dot):
    """Node name → fill colour of a ``dot`` rendering (filled nodes)."""
    import re

    return dict(re.findall(r'"(\w+)" \[shape=\w+, style=filled, fillcolor="(\w+)"\]', dot))


class TestReportsTheCompiledSpec:
    """``analyze``, ``lint`` and ``dot`` report the spec ``run``
    compiles: after write-then-read fusion (OPT008), with the fusion as
    a note."""

    def test_analyze_shows_fused_family_mutable(self, tmp_path, capsys):
        spec = tmp_path / "u.tessla"
        spec.write_text(FUSED_SPEC)
        assert main(["analyze", str(spec), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "mutable    (5): _s0, m, y, yl, yp" in out
        assert "persistent (0): ∅" in out
        assert "[OPT008:write-read-fusion] note n:" in out
        assert "MUT001" not in out

    def test_lint_notes_the_fusion_only(self, tmp_path, capsys):
        import json

        spec = tmp_path / "u.tessla"
        spec.write_text(FUSED_SPEC)
        assert main(["lint", str(spec), "--json"]) == 0
        [record] = json.loads(capsys.readouterr().out)
        assert record["code"] == "OPT008"
        assert record["severity"] == "note"
        assert record["witness"]["detail"] == {
            "write": "s",
            "read": "n",
            "fused": "set_size_after_add",
        }

    def test_dot_colours_fused_family_mutable(self, tmp_path, capsys):
        spec = tmp_path / "u.tessla"
        spec.write_text(FUSED_SPEC)
        assert main(["dot", str(spec)]) == 0
        fills = _dot_fills(capsys.readouterr().out)
        assert fills == {
            name: "palegreen" for name in ("_s0", "m", "y", "yl", "yp")
        }

    def test_dot_keeps_fig4_lower_persistent(self, tmp_path, capsys):
        from repro.frontend import unparse
        from repro.speclib import fig4_lower_spec

        spec = tmp_path / "f.tessla"
        spec.write_text(unparse(fig4_lower_spec()))
        assert main(["dot", str(spec)]) == 0
        fills = _dot_fills(capsys.readouterr().out)
        assert fills and set(fills.values()) == {"lightcoral"}

    def test_fig4_lower_keeps_its_witnesses(self, tmp_path, capsys):
        from repro.frontend import unparse
        from repro.speclib import fig4_lower_spec

        spec = tmp_path / "f.tessla"
        spec.write_text(unparse(fig4_lower_spec()))
        assert main(["analyze", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "mutable    (0): ∅" in out
        assert "[MUT001:no-double-write]" in out
        assert "OPT008" not in out
        assert main(["lint", str(spec)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        assert all("[MUT001:no-double-write]" in line for line in lines)


DIV_SPEC = """
in a: Int
in b: Int
def q := slift(div, a, b)
out q
"""


class TestHardenedRun:
    @pytest.fixture
    def div_spec(self, tmp_path):
        path = tmp_path / "div.tessla"
        path.write_text(DIV_SPEC)
        return str(path)

    def test_tolerant_ingestion_with_report(
        self, spec_file, tmp_path, capsys
    ):
        trace = tmp_path / "messy.csv"
        trace.write_text(
            "1,i,4\n"
            "garbage\n"          # malformed
            "2,ghost,1\n"        # unknown stream
            "4,i,7\n"
            "3,i,4\n"            # out of order, within skew
            "5,i,4\n"
        )
        assert main([
            "run", spec_file, "--trace", str(trace),
            "--on-malformed", "skip", "--on-unknown-stream", "skip",
            "--on-out-of-order", "buffer", "--max-skew", "2",
            "--report",
        ]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip().splitlines() == [
            "1,s,False", "3,s,True", "4,s,False", "5,s,True"
        ]
        import json

        report = json.loads(captured.err)
        assert report["malformed_lines"] == 1
        assert report["unknown_stream_events"] == 1
        assert report["reordered_events"] == 1
        # repaired reorders are not lost, so only the malformed line and
        # the unknown-stream event count as absorbed faults
        assert report["faults_absorbed"] == 2

    def test_strict_run_still_rejects_bad_lines(self, spec_file, tmp_path, capsys):
        trace = tmp_path / "messy.csv"
        trace.write_text("1,i,4\ngarbage\n")
        assert main(["run", spec_file, "--trace", str(trace)]) == 1
        assert "messy.csv:2" in capsys.readouterr().err

    def test_error_policy_propagate_emits_error_literal(
        self, div_spec, tmp_path, capsys
    ):
        trace = tmp_path / "t.csv"
        trace.write_text("1,a,6\n1,b,2\n2,b,0\n3,b,3\n")
        assert main([
            "run", div_spec, "--trace", str(trace),
            "--error-policy", "propagate",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "1,q,3"
        assert lines[1].startswith('2,q,error(')
        assert "ZeroDivisionError" in lines[1]
        assert lines[2] == "3,q,2"

    def test_error_policy_fail_fast_exits_with_context(
        self, div_spec, tmp_path, capsys
    ):
        trace = tmp_path / "t.csv"
        trace.write_text("1,a,6\n1,b,0\n")
        assert main([
            "run", div_spec, "--trace", str(trace),
            "--error-policy", "fail-fast",
        ]) == 1
        err = capsys.readouterr().err
        assert "ZeroDivisionError" in err

    def test_alias_guard_run_matches_plain(
        self, spec_file, trace_file, capsys
    ):
        assert main(["run", spec_file, "--trace", trace_file]) == 0
        plain = capsys.readouterr().out
        assert main([
            "run", spec_file, "--trace", trace_file, "--alias-guard"
        ]) == 0
        assert capsys.readouterr().out == plain

    def test_resume_requires_checkpoint_dir(self, spec_file, trace_file, capsys):
        assert main([
            "run", spec_file, "--trace", trace_file, "--resume"
        ]) == 1
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_resume_requires_output(self, spec_file, trace_file, tmp_path, capsys):
        assert main([
            "run", spec_file, "--trace", trace_file,
            "--resume", "--checkpoint-dir", str(tmp_path),
        ]) == 1
        assert "--output" in capsys.readouterr().err

    def test_crash_resume_is_byte_identical(self, spec_file, tmp_path):
        lines = [f"{t},i,{(t * 7) % 13}" for t in range(1, 25)]
        full_trace = tmp_path / "full.csv"
        full_trace.write_text("\n".join(lines) + "\n")
        partial_trace = tmp_path / "partial.csv"
        partial_trace.write_text("\n".join(lines[:13]) + "\n")

        reference = tmp_path / "reference.out"
        assert main([
            "run", spec_file, "--trace", str(full_trace),
            "--output", str(reference),
        ]) == 0

        # "crash": the first run only ever sees a prefix of the trace
        ckpt_dir = tmp_path / "ckpt"
        recovered = tmp_path / "recovered.out"
        assert main([
            "run", spec_file, "--trace", str(partial_trace),
            "--checkpoint-dir", str(ckpt_dir), "--checkpoint-every", "4",
            "--output", str(recovered),
        ]) == 0
        assert list(ckpt_dir.glob("*.rckpt"))

        assert main([
            "run", spec_file, "--trace", str(full_trace),
            "--checkpoint-dir", str(ckpt_dir), "--checkpoint-every", "4",
            "--resume", "--output", str(recovered),
        ]) == 0
        assert recovered.read_bytes() == reference.read_bytes()


class TestShippedSpecsStrict:
    def test_every_example_spec_is_strict_clean(self, capsys):
        import pathlib

        spec_dir = (
            pathlib.Path(__file__).resolve().parents[2]
            / "examples"
            / "specs"
        )
        specs = sorted(spec_dir.glob("*.tessla"))
        assert specs
        for path in specs:
            assert main(["lint", str(path), "--strict"]) == 0, path.name
