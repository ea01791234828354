"""Tests for the specification linter."""

from repro.frontend import parse_spec
from repro.lang import check_types, flatten
from repro.lang.lint import lint, zero_only_streams
from repro.speclib import fig1_spec, seen_set


def lint_text(text):
    flat = flatten(parse_spec(text))
    check_types(flat)
    return lint(flat)


def codes(warnings):
    return [w.code for w in warnings]


class TestZeroOnly:
    def test_constants_and_unit(self):
        flat = flatten(parse_spec("in i: Int\ndef c := 5\ndef t := time(c)\nout c, t"))
        zero = zero_only_streams(flat)
        assert any(n in zero for n in flat.definitions if n.startswith("_s"))
        assert "c" in zero
        assert "t" in zero

    def test_inputs_not_zero_only(self):
        flat = flatten(parse_spec("in i: Int\ndef t := time(i)\nout t"))
        assert "t" not in zero_only_streams(flat)

    def test_merge_with_live_not_zero_only(self):
        flat = flatten(parse_spec("in i: Int\ndef d := default(i, 0)\nout d"))
        assert "d" not in zero_only_streams(flat)


class TestStarvedLift:
    def test_classic_counter_mistake_flagged(self):
        warnings = lint_text(
            "in x: Int\ndef cnt := default(last(cnt, x) + 1, 0)\nout cnt"
        )
        assert "starved-lift" in codes(warnings)
        [starved] = [w for w in warnings if w.code == "starved-lift"]
        assert "slift" in starved.message

    def test_slift_version_clean(self):
        warnings = lint_text(
            "in x: Int\ndef cnt := default(slift(add, last(cnt, x), 0), 0)\nout cnt"
        )
        assert "starved-lift" not in codes(warnings)

    def test_macro_count_clean(self):
        warnings = lint_text("in x: Int\ndef cnt := count(x)\nout cnt")
        assert "starved-lift" not in codes(warnings)

    def test_fig1_clean(self):
        flat = flatten(fig1_spec())
        check_types(flat)
        assert lint(flat) == []

    def test_seen_set_clean(self):
        flat = flatten(seen_set())
        check_types(flat)
        assert lint(flat) == []


class TestOtherChecks:
    def test_dead_stream(self):
        warnings = lint_text(
            "in i: Int\ndef used := time(i)\ndef dead := time(i)\nout used"
        )
        assert ("dead-stream", "dead") in [(w.code, w.stream) for w in warnings]
        (dead,) = [w for w in warnings if w.code == "dead-stream"]
        assert "rewrite=True" in dead.message

    def test_unused_input(self):
        warnings = lint_text("in i: Int\nin ghost: Int\ndef t := time(i)\nout t")
        assert ("unused-input", "ghost") in [(w.code, w.stream) for w in warnings]

    def test_constant_output(self):
        warnings = lint_text("in i: Int\ndef c := 42\ndef t := time(i)\nout c, t")
        assert ("constant-output", "c") in [(w.code, w.stream) for w in warnings]

    def test_warning_str(self):
        [warning] = [
            w
            for w in lint_text("in i: Int\nin g: Int\ndef t := time(i)\nout t")
            if w.code == "unused-input"
        ]
        assert str(warning).startswith("[unused-input] g:")

    def test_cli_prints_warnings(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "s.tessla"
        spec.write_text("in i: Int\nin g: Int\ndef t := time(i)\nout t\n")
        assert main(["analyze", str(spec)]) == 0
        assert "unused-input" in capsys.readouterr().out


class TestZeroOnlyFixpointEdges:
    """Edge cases of the greatest-fixpoint ``zero_only_streams``."""

    def test_delay_fed_stream_not_zero_only(self):
        # a delay can fire strictly after 0 even when fed by constants
        flat = flatten(
            parse_spec(
                "in i: Int\n"
                "def c := 5\n"
                "def a := delay(c, i)\n"
                "def t := time(a)\n"
                "out t"
            )
        )
        zero = zero_only_streams(flat)
        assert "a" not in zero
        assert "t" not in zero

    def test_strict_lift_starved_by_one_zero_only_arg(self):
        # strict (ALL) lifts need every argument: one zero-only input
        # pins the result to timestamp 0 even if the other is live
        flat = flatten(
            parse_spec("in i: Int\ndef c := 1\ndef s := i + c\nout s")
        )
        assert "s" in zero_only_streams(flat)

    def test_lenient_lift_escapes_via_live_arg(self):
        # merge (ANY) fires whenever either side does
        flat = flatten(
            parse_spec("in i: Int\ndef c := 1\ndef m := merge(i, c)\nout m")
        )
        assert "m" not in zero_only_streams(flat)

    def test_nested_strict_inside_lenient(self):
        # s := i + c is zero-only; merging it with another zero-only
        # constant keeps the merge zero-only, transitively
        flat = flatten(
            parse_spec(
                "in i: Int\n"
                "def c := 1\n"
                "def s := i + c\n"
                "def m := merge(s, c)\n"
                "out m"
            )
        )
        zero = zero_only_streams(flat)
        assert "s" in zero
        assert "m" in zero

    def test_last_inherits_trigger_zero_onlyness(self):
        flat = flatten(
            parse_spec(
                "in i: Int\n"
                "def c := 1\n"
                "def lz := last(i, c)\n"
                "def ll := last(c, i)\n"
                "out lz, ll"
            )
        )
        zero = zero_only_streams(flat)
        assert "lz" in zero  # trigger c is zero-only
        assert "ll" not in zero  # trigger i is a live input

    def test_zero_only_stable_under_pruning(self):
        # projection drops dead streams; the fixpoint over the projected
        # spec must agree with the original on every surviving stream
        from repro.opt import project_live

        flat = flatten(
            parse_spec(
                "in i: Int\n"
                "def c := 1\n"
                "def s := i + c\n"
                "def dead_const := c + 1\n"
                "def dead_live := time(i)\n"
                "out s"
            )
        )
        check_types(flat)
        before = zero_only_streams(flat)
        assert {"s", "dead_const"} <= before
        pruned = project_live(flat)
        assert "dead_const" not in pruned.definitions
        after = zero_only_streams(pruned)
        assert after == {n for n in before if n in pruned.definitions}
        assert "s" in after

    def test_mutual_zero_only_cycle(self):
        # a last/merge cycle fed only by constants stays zero-only
        flat = flatten(
            parse_spec(
                "in i: Int\n"
                "def c := 1\n"
                "def m := merge(l, c)\n"
                "def l := last(m, c)\n"
                "out m"
            )
        )
        zero = zero_only_streams(flat)
        assert "m" in zero
        assert "l" in zero


class TestMayFireAndNeverFires:
    def test_nil_fed_strict_lift_never_fires(self):
        from repro.lang.lint import may_fire_streams

        flat = flatten(
            parse_spec(
                "in i: Int\n"
                "def n := nil<Int>\n"
                "def s := i + n\n"
                "def t := time(i)\n"
                "out s, t"
            )
        )
        check_types(flat)
        may = may_fire_streams(flat)
        assert "s" not in may
        assert "t" in may
        assert ("never-fires", "s") in [
            (w.code, w.stream) for w in lint(flat)
        ]

    def test_nil_itself_not_flagged(self):
        flat = flatten(
            parse_spec(
                "in i: Int\n"
                "def n := nil<Int>\n"
                "def d := default(n, 0)\n"
                "out d"
            )
        )
        check_types(flat)
        assert "never-fires" not in codes(lint(flat))

    def test_last_with_dead_trigger_never_fires(self):
        flat = flatten(
            parse_spec(
                "in i: Int\n"
                "def n := nil<Int>\n"
                "def l := last(i, n)\n"
                "def t := time(i)\n"
                "out l, t"
            )
        )
        check_types(flat)
        assert ("never-fires", "l") in [
            (w.code, w.stream) for w in lint(flat)
        ]

    def test_live_specs_unflagged(self):
        for factory in (fig1_spec, seen_set):
            flat = flatten(factory())
            check_types(flat)
            assert "never-fires" not in codes(lint(flat))
