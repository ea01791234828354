"""Tests for the ``repro optimize`` subcommand."""

import json

import pytest

from repro.cli import main
from repro.frontend import parse_spec
from repro.lang import check_types, flatten
from repro.testing import reference_outputs

# the duplicate-writer fixture in concrete syntax: y2 duplicates y,
# forcing the family persistent until OPT001 merges them.
SPEC_TEXT = """
in i: Int
def m := merge(y, set_empty(unit))
def yl := last(m, i)
def y := set_add(yl, i)
def y2 := set_add(yl, i)
def s := set_contains(y2, i)
out s
"""

NORMALIZED_TEXT = """
in i: Int
def m := merge(y, set_empty(unit))
def yl := last(m, i)
def y := set_add(yl, i)
def s := set_contains(yl, i)
out s
"""


DEAD_WRITER_TEXT = """
in i: Int
in j: Int
def m := merge(y, set_empty(unit))
def yl := last(m, i)
def y := set_add(yl, i)
def y2 := set_add(yl, j)
def s := set_contains(yl, i)
out s
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "dup.tessla"
    path.write_text(SPEC_TEXT)
    return str(path)


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("1,i,4\n2,i,7\n3,i,4\n5,i,9\n")
    return str(path)


class TestHumanOutput:
    def test_reports_counts_and_rules(self, spec_file, capsys):
        assert main(["optimize", spec_file]) == 0
        out = capsys.readouterr().out
        assert "streams:" in out
        assert "mutable variables:" in out
        assert "OPT001" in out

    def test_normalized_spec_reports_nothing_to_do(self, tmp_path, capsys):
        path = tmp_path / "clean.tessla"
        path.write_text(NORMALIZED_TEXT)
        assert main(["optimize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "nothing to rewrite" in out


class TestJsonOutput:
    def test_json_parses_and_carries_provenance(self, spec_file, capsys):
        assert main(["optimize", "--json", spec_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["applied"] >= 1
        assert payload["mutable_after"] > payload["mutable_before"]
        assert payload["fired"].get("OPT001", 0) >= 1
        codes = {d["code"] for d in payload["diagnostics"]}
        assert "OPT001" in codes
        for record in payload["records"]:
            assert {"code", "rule", "stream", "description"} <= set(record)

    def test_trace_adds_copy_counts(self, spec_file, trace_file, capsys):
        # The default compile already fuses ``s := set_contains(y2, i)``
        # with the write ``y2`` (OPT008), so the duplicate writer forces
        # no copy even before the rewrite pass runs.
        assert (
            main(["optimize", "--json", "--trace", trace_file, spec_file])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        copies = payload["copies_performed"]
        assert copies == {"before": 0, "after": 0}

    def test_trace_counts_copies_the_rewrite_removes(
        self, tmp_path, capsys
    ):
        # A dead second writer is not fused (nothing reads it); it
        # forces copies until OPT005 removes it.
        spec = tmp_path / "dead.tessla"
        spec.write_text(DEAD_WRITER_TEXT)
        trace = tmp_path / "trace.csv"
        trace.write_text("1,i,4\n2,j,7\n3,i,4\n4,j,1\n5,i,9\n")
        assert (
            main(["optimize", "--json", "--trace", str(trace), str(spec)])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        copies = payload["copies_performed"]
        assert copies["before"] > 0
        assert copies["after"] < copies["before"]


class TestEmitSpec:
    def test_emitted_spec_reparses_and_agrees(self, spec_file, capsys):
        assert main(["optimize", "--emit-spec", spec_file]) == 0
        emitted = capsys.readouterr().out
        original = flatten(parse_spec(SPEC_TEXT))
        rewritten = flatten(parse_spec(emitted))
        check_types(rewritten)
        trace = {"i": [(1, 4), (2, 7), (3, 4), (5, 9)]}
        assert reference_outputs(rewritten, trace) == reference_outputs(
            original, trace
        )
        # the duplicate writer is really gone from the surface text
        assert emitted.count("set_add") == 1

    def test_trace_plus_human_reports_copies(
        self, spec_file, trace_file, capsys
    ):
        assert main(["optimize", "--trace", trace_file, spec_file]) == 0
        out = capsys.readouterr().out
        assert "copies_performed" in out
