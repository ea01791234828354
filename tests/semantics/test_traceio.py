"""Tests for the TeSSLa trace format reader/writer."""

import dataclasses
import io
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ErrorValue
from repro.semantics.traceio import (
    _BLOCK_LINES,
    _block_columns,
    _FAST_LINE_RE,
    IngestPolicy,
    IngestStats,
    TolerantReader,
    TraceError,
    _parse_line_general,
    batch_events,
    format_value,
    iter_trace_events,
    parse_line,
    parse_value,
    read_trace,
    read_trace_tolerant,
    write_trace,
)


class TestValues:
    def test_parse(self):
        assert parse_value("42") == 42
        assert parse_value("-7") == -7
        assert parse_value("3.5") == 3.5
        assert parse_value("true") is True
        assert parse_value("false") is False
        assert parse_value('"hi"') == "hi"
        assert parse_value("()") == ()

    def test_parse_error(self):
        with pytest.raises(TraceError, match="cannot parse value"):
            parse_value("not a literal!!")

    def test_scientific_notation(self):
        assert parse_value("1e5") == 1e5
        assert parse_value("-2.5e-3") == -2.5e-3
        assert parse_value(".5") == 0.5

    @pytest.mark.parametrize(
        "text",
        ["[1, 2]", "{'a': 1}", "(1, 2)", "None", "1 + 1", "{1}", "b'x'",
         "0x10", "1_000"],
        ids=repr,
    )
    def test_arbitrary_python_literals_rejected(self, text):
        """The trace format has no aggregate/None literals; accepting
        Python literal syntax fed monitors values no TeSSLa
        implementation could produce."""
        with pytest.raises(TraceError):
            parse_value(text)

    def test_single_quoted_strings_rejected(self):
        with pytest.raises(TraceError):
            parse_value("'hi'")

    def test_error_literal(self):
        value = parse_value('error("boom")')
        assert isinstance(value, ErrorValue)
        assert value.message == "boom"

    def test_error_literal_roundtrip(self):
        err = ErrorValue('tricky "quoted" message')
        assert parse_value(format_value(err)).message == err.message

    def test_malformed_error_literal(self):
        with pytest.raises(TraceError):
            parse_value("error(boom)")

    def test_format(self):
        assert format_value(42) == "42"
        assert format_value(True) == "true"
        assert format_value(False) == "false"
        assert format_value(3.5) == "3.5"
        assert format_value("hi") == '"hi"'
        assert format_value(()) == "()"

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            st.integers(),
            st.booleans(),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(alphabet=st.characters(blacklist_characters='"\\', min_codepoint=32, max_codepoint=126)),
        )
    )
    def test_roundtrip(self, value):
        assert parse_value(format_value(value)) == value


class TestReadTrace:
    def test_basic(self):
        traces = read_trace("1: x = 5\n3: y = true\n2: x = 7\n")
        assert traces == {"x": [(1, 5), (2, 7)], "y": [(3, True)]}

    def test_unit_events(self):
        traces = read_trace("4: tick\n9: tick = ()\n")
        assert traces == {"tick": [(4, ()), (9, ())]}

    def test_comments_and_blanks(self):
        text = """
        -- a comment
        1: x = 5  # trailing
        # full line
        """
        assert read_trace(text) == {"x": [(1, 5)]}

    def test_file_object(self):
        assert read_trace(io.StringIO("1: x = 1\n")) == {"x": [(1, 1)]}

    def test_malformed_line(self):
        with pytest.raises(TraceError, match="line 1"):
            read_trace("one: x = 5")

    def test_negative_timestamp(self):
        with pytest.raises(TraceError, match="negative"):
            read_trace("-1: x = 5")

    def test_duplicate_timestamp(self):
        with pytest.raises(TraceError, match="two events"):
            read_trace("1: x = 5\n1: x = 6")

    def test_strings_with_spaces(self):
        assert read_trace('1: s = "a b c"') == {"s": [(1, "a b c")]}

    def test_bad_value_names_the_line(self):
        with pytest.raises(TraceError, match="line 2"):
            read_trace("1: x = 5\n2: x = [1, 2]\n")


class TestTolerantIngestion:
    BAD_TRACE = (
        "1: x = 5\n"
        "garbage garbage\n"        # malformed
        "2: x = [1, 2]\n"          # malformed value
        "3: zz = 1\n"              # unknown stream
        "5: x = 50\n"
        "4: x = 40\n"              # out of order (skew 1)
        "6: x = 60\n"
    )

    def test_default_policy_is_strict(self):
        with pytest.raises(TraceError, match="line 2"):
            list(iter_trace_events(self.BAD_TRACE, known_streams=["x"]))

    def test_skip_everything(self):
        policy = IngestPolicy(
            on_malformed="skip", on_unknown_stream="skip",
            on_out_of_order="skip",
        )
        traces, stats = read_trace_tolerant(
            self.BAD_TRACE, policy, known_streams=["x"]
        )
        assert traces == {"x": [(1, 5), (5, 50), (6, 60)]}
        assert stats.malformed_lines == 2
        assert stats.unknown_stream_events == 1
        assert stats.out_of_order_dropped == 1
        assert stats.events_ingested == 3

    def test_buffer_repairs_within_skew(self):
        policy = IngestPolicy(
            on_malformed="skip", on_unknown_stream="skip",
            on_out_of_order="buffer", max_skew=1,
        )
        traces, stats = read_trace_tolerant(
            self.BAD_TRACE, policy, known_streams=["x"]
        )
        assert traces == {"x": [(1, 5), (4, 40), (5, 50), (6, 60)]}
        assert stats.reordered_events == 1
        assert stats.out_of_order_dropped == 0

    def test_buffer_drops_beyond_skew(self):
        text = "1: x = 1\n10: x = 10\n13: x = 13\n2: x = 2\n"
        policy = IngestPolicy(on_out_of_order="buffer", max_skew=3)
        traces, stats = read_trace_tolerant(text, policy)
        # t=13 forces t=10 out of the buffer (skew 3); t=2 then arrives
        # behind the delivery frontier and can no longer be repaired
        assert traces == {"x": [(1, 1), (10, 10), (13, 13)]}
        assert stats.out_of_order_dropped == 1

    def test_buffer_flushes_tail_on_end(self):
        text = "1: x = 1\n3: x = 3\n2: x = 2\n"
        policy = IngestPolicy(on_out_of_order="buffer", max_skew=10)
        traces, _ = read_trace_tolerant(text, policy)
        assert traces == {"x": [(1, 1), (2, 2), (3, 3)]}

    def test_unknown_stream_raise_names_stream(self):
        with pytest.raises(TraceError, match="unknown input stream 'zz'"):
            list(iter_trace_events("1: zz = 1\n", known_streams=["x"]))

    def test_out_of_order_raise(self):
        with pytest.raises(TraceError, match="out-of-order"):
            list(iter_trace_events("5: x = 1\n4: x = 2\n"))

    def test_stats_object_threading(self):
        stats = IngestStats()
        events = list(
            iter_trace_events("1: x = 1\n2: x = 2\n", stats=stats)
        )
        assert events == [(1, "x", 1), (2, "x", 2)]
        assert stats.lines_read == 2
        assert stats.events_ingested == 2

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            IngestPolicy(on_malformed="buffer")
        with pytest.raises(ValueError):
            IngestPolicy(max_skew=-1)

    def test_reader_is_format_agnostic(self):
        reader = TolerantReader(
            IngestPolicy(on_malformed="skip"), known_streams=["x"]
        )

        def parse(pair):
            if pair is None:
                raise TraceError("injected")
            return pair

        items = [(1, "x", 10), None, (2, "x", 20)]
        assert list(reader.events(items, parse)) == [(1, "x", 10), (2, "x", 20)]
        assert reader.stats.malformed_lines == 1


class TestEqualTimestampTieBreak:
    """Equal-timestamp events must flush in stream-declaration order.

    Regression: the reorder buffer used to emit equal-timestamp events
    in buffer-arrival order when they flushed at the skew boundary, so
    the output differed from a pre-sorted run of the same trace.
    """

    POLICY = IngestPolicy(on_out_of_order="buffer", max_skew=2)

    def test_skew_boundary_flush_uses_declaration_order(self):
        reader = TolerantReader(self.POLICY, known_streams=["a", "b"])
        # b's event *arrives* first; the t=8 arrival forces both t=5
        # events out at the skew boundary (mid-stream, not end-drain).
        arrivals = [(5, "b", 1), (5, "a", 2), (8, "a", 3)]
        delivered = list(reader.events(arrivals, lambda item: item))
        assert delivered == [(5, "a", 2), (5, "b", 1), (8, "a", 3)]

    def test_matches_pre_sorted_run(self):
        streams = ["a", "b"]
        arrivals = [
            (2, "b", 20), (1, "a", 1), (2, "a", 2),
            (1, "b", 10), (3, "b", 30), (3, "a", 3),
        ]
        shuffled = TolerantReader(
            IngestPolicy(on_out_of_order="buffer", max_skew=5),
            known_streams=streams,
        )
        delivered = list(shuffled.events(arrivals, lambda item: item))
        assert delivered == sorted(arrivals)

    def test_unordered_known_streams_sort_lexicographically(self):
        # A set carries no declaration order; the tie-break must still
        # be deterministic (never hash-seed dependent).
        reader = TolerantReader(
            self.POLICY, known_streams={"b", "a"}
        )
        arrivals = [(5, "b", 1), (5, "a", 2), (8, "a", 3)]
        delivered = list(reader.events(arrivals, lambda item: item))
        assert delivered == [(5, "a", 2), (5, "b", 1), (8, "a", 3)]

    def test_same_stream_duplicates_keep_arrival_order(self):
        reader = TolerantReader(self.POLICY, known_streams=["a"])
        arrivals = [(5, "a", "first"), (5, "a", "second"), (8, "a", 3)]
        delivered = list(reader.events(arrivals, lambda item: item))
        assert delivered == [
            (5, "a", "first"), (5, "a", "second"), (8, "a", 3)
        ]


class TestDrainTracking:
    """The reader marks its end-of-input drain (checkpoint gating)."""

    def test_draining_flag_and_drained_count(self):
        policy = IngestPolicy(on_out_of_order="buffer", max_skew=1)
        reader = TolerantReader(policy, known_streams=["x"])
        arrivals = [(1, "x", 1), (3, "x", 3), (2, "x", 2)]
        seen = []
        for event in reader.events(arrivals, lambda item: item):
            seen.append((event, reader.draining))
        # t=1 and t=2 flush at the skew boundary while input is still
        # arriving; t=3 only flushes once the input ends — it drains.
        assert seen == [
            ((1, "x", 1), False),
            ((2, "x", 2), False),
            ((3, "x", 3), True),
        ]
        assert reader.stats.drained_events == 1

    def test_no_drain_without_buffering(self):
        policy = IngestPolicy(on_out_of_order="buffer", max_skew=2)
        reader = TolerantReader(policy, known_streams=["x"])
        arrivals = [(1, "x", 1), (2, "x", 2), (10, "x", 10)]
        delivered = list(reader.events(arrivals, lambda item: item))
        assert delivered == arrivals
        # t=10 never left the buffer until end-of-input: it drains.
        assert reader.stats.drained_events == 1


class TestWriteTrace:
    def test_chronological_merge(self):
        text = write_trace({"b": [(2, True)], "a": [(1, 5), (3, 7)]})
        assert text == "1: a = 5\n2: b = true\n3: a = 7\n"

    def test_unit_written_bare(self):
        assert write_trace({"t": [(1, ())]}) == "1: t\n"

    def test_empty(self):
        assert write_trace({}) == ""

    def test_roundtrip(self):
        traces = {"x": [(1, 5), (9, -2)], "ok": [(3, False)], "u": [(4, ())]}
        assert read_trace(write_trace(traces)) == traces

    def test_roundtrip_through_monitor(self, tmp_path):
        from repro.cli import main

        spec = tmp_path / "s.tessla"
        spec.write_text(
            "in i: Int\n"
            "def m := merge(y, set_empty(unit))\n"
            "def yl := last(m, i)\n"
            "def y := set_add(yl, i)\n"
            "def s := set_contains(yl, i)\nout s\n"
        )
        trace = tmp_path / "t.trace"
        trace.write_text("1: i = 4\n2: i = 4\n")
        import contextlib
        import io as io_

        buffer = io_.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(
                ["run", str(spec), "--trace", str(trace), "--format", "tessla"]
            ) == 0
        assert buffer.getvalue() == "1: s = false\n2: s = true\n"


def _outcome(fn, *args):
    """A call's result, or its exception's type and message."""
    try:
        return ("ok", fn(*args))
    except Exception as err:  # noqa: BLE001 - compared, not handled
        return ("raised", type(err), str(err))


_DIGIT_TEXT = st.text(alphabet="0123456789", min_size=1, max_size=4)
#: (on-grammar, off-grammar) choices for each field of a line.
_NEAR_FIELDS = {
    "pad": (st.sampled_from(["", " ", "\t", "  "]),
            st.sampled_from(["\x0b", "\x1f", "\r", "\n", "\r\n", "\xa0"])),
    "ts": (_DIGIT_TEXT,
           st.sampled_from(["-1", "-0", "+1", "٣", "1;", "1 2", "1_0", ""])),
    "colon": (st.just(":"), st.sampled_from(["::", ";", "", "="])),
    "name": (st.sampled_from(["a", "b_2", "_", "if"]),
             st.sampled_from(["9x", "a-b", "a:b", "a=b", "a;", "é", ""])),
    "equals": (st.just("="), st.sampled_from(["==", ":", "", " -- c"])),
    "value": (st.builds("{}{}".format, st.sampled_from(["", "-"]),
                        _DIGIT_TEXT),
              st.sampled_from(["+5", "1_0", "--5", "5-", "-", "1.5", "true",
                               "()", "0x1", "5 6", "5 = 6", "5:", "5;",
                               "5#", "٣", ""])),
    "tail": (st.just(""), st.sampled_from([" -- c", "# c", " ;"])),
}
_NEAR_ORDER = ["pad", "ts", "pad", "colon", "pad", "name", "pad", "equals",
               "pad", "value", "pad", "tail"]


@st.composite
def _near_fast_lines(draw):
    """Dominant-shape lines; in half of them one field is off the
    grammar."""
    off = draw(st.sampled_from([None] * 6 + sorted(_NEAR_FIELDS)))
    if off == "pad":
        off = draw(st.sampled_from([0, 2, 4, 6, 8, 10]))
    return "".join(
        draw(_NEAR_FIELDS[field][field == off or position == off])
        for position, field in enumerate(_NEAR_ORDER)
    )


class TestFastLinePath:
    """``parse_line``'s one-pattern fast path agrees with the general
    path on every line: same event, or same error type and message."""

    @pytest.mark.parametrize(
        "line",
        ["1: x = 5", "007:\tx1=-0042", "3:i =  12 \n", "10: _s\t=\t-3"],
    )
    def test_dominant_shape_takes_the_fast_path(self, line):
        assert _FAST_LINE_RE.fullmatch(line) is not None
        assert parse_line(line, 4) == _parse_line_general(line, 4)

    @pytest.mark.parametrize(
        "line",
        ["-1: x = 5", "+1: x = 5", "1: x = +5", "1: x = 5 -- c",
         "1: x = 5 # c", "1: x = 1.5", '1: x = "s"', "1: x", "1: x = ()",
         '1: x = error("e")', " 1: x = 5", "1: x = 5\r\n", "١: x = 5",
         "1: 9x = 5", "1: x = 5;"],
        ids=repr,
    )
    def test_other_shapes_fall_through(self, line):
        assert _FAST_LINE_RE.fullmatch(line) is None

    @settings(max_examples=1000, deadline=None)
    @given(
        st.one_of(_near_fast_lines(), st.text(max_size=20)),
        st.integers(0, 99),
    )
    def test_matches_general_path(self, line, lineno):
        assert _outcome(parse_line, line, lineno) == _outcome(
            _parse_line_general, line, lineno
        )


def _reference_events(source, known_streams, stats):
    """The line-at-a-time strict reader: every event delivered before
    the fault, then the fault (``None`` when the trace is clean)."""
    lines = source if hasattr(source, "read") else source.splitlines()
    reader = TolerantReader(None, known_streams)
    reader.stats = stats
    delivered = []
    try:
        for event in reader.events(
            enumerate(lines, 1), lambda item: parse_line(item[1], item[0])
        ):
            delivered.append(event)
    except TraceError as err:
        return delivered, str(err)
    return delivered, None


def _block_events(source, known_streams, stats):
    delivered = []
    try:
        for event in iter_trace_events(source, None, known_streams, stats):
            delivered.append(event)
    except TraceError as err:
        return delivered, str(err)
    return delivered, None


_FAULTS = ["none", "malformed", "negative", "out_of_order", "unknown"]


def _faulty_trace(seed, fault, at, noise):
    """A random strict trace over streams a/b with one injected fault
    at line *at* (clamped).  A share *noise* of the lines are comments,
    blank lines or non-integer literals; the rest have the dominant
    ``<ts>: <name> = <int>`` shape with varied padding."""
    rng = random.Random(seed)
    length = rng.randint(at + 1, at + 600)
    lines = []
    ts = 0
    for _ in range(length):
        ts += rng.choice([0, 1, 1, 2, 7])
        name = rng.choice("ab")
        roll = rng.random()
        if roll < noise / 2:
            lines.append(rng.choice(["", "  -- comment", "# note"]))
        elif roll < noise:
            lines.append(rng.choice([f"{ts}: {name}", f"{ts}: {name} = true",
                                     f"{ts}: {name} = 2.5",
                                     f' {ts} : {name} = "s" -- c']))
        else:
            pad = [rng.choice(["", " ", "\t", "  "]) for _ in range(4)]
            lines.append(f"{pad[0]}{ts}:{pad[1]}{name}{pad[2]}={pad[3]}"
                         f"{rng.randint(-50, 10**6)}")
    at = min(at, len(lines) - 1)
    if fault == "malformed":
        lines[at] = "garbage garbage"
    elif fault == "negative":
        lines[at] = "-3: a = 1"
    elif fault == "out_of_order":
        lines[at:at] = [f"{ts + 10}: a = 1", "0: b = 2"]
    elif fault == "unknown":
        lines[at] = f"{ts}: zz = 1"
    return "\n".join(lines) + "\n"


class TestStrictBlockReader:
    """The default-policy block reader delivers the same prefix, raises
    the same error and leaves the same ``IngestStats`` as the
    line-at-a-time reader, wherever the fault falls in a block."""

    @pytest.mark.parametrize("fault", _FAULTS)
    @pytest.mark.parametrize(
        "at", [0, 1, _BLOCK_LINES - 1, _BLOCK_LINES, _BLOCK_LINES + 1, 700]
    )
    @pytest.mark.parametrize("as_file", [False, True], ids=["str", "file"])
    def test_matches_line_reader(self, fault, at, as_file):
        for seed, noise in enumerate([0.0, 0.002, 0.1]):
            text = _faulty_trace(seed * 31 + at, fault, at, noise)
            source = (lambda: io.StringIO(text)) if as_file else (lambda: text)
            known = ["a", "b"] if fault == "unknown" or seed == 1 else None
            ref_stats, got_stats = IngestStats(), IngestStats()
            expected = _reference_events(source(), known, ref_stats)
            got = _block_events(source(), known, got_stats)
            assert got == expected
            assert dataclasses.asdict(got_stats) == dataclasses.asdict(ref_stats)
            assert (expected[1] is None) == (fault == "none")

    @settings(max_examples=500, deadline=None)
    @given(st.lists(_near_fast_lines(), min_size=1, max_size=5))
    def test_accepted_blocks_parse_like_the_line_parser(self, chunk):
        columns = _block_columns(chunk)
        if columns is not None:
            assert [_parse_line_general(raw, 0) for raw in chunk] == list(
                zip(*columns)
            )

    @pytest.mark.parametrize(
        "chunk",
        [["1: a = 5"], ["1:a=5", "007:\tb_2 =\t-0042 ", " 9 : c = 0"],
         ["1: a = 5\n", "2: a = 6\n"], ["1:\x0ba\x1f=\r5"], ["1: a = +5"]],
        ids=repr,
    )
    def test_dominant_blocks_take_the_column_path(self, chunk):
        columns = _block_columns(chunk)
        assert columns is not None
        assert [parse_line(raw) for raw in chunk] == list(zip(*columns))

    @pytest.mark.parametrize(
        "chunk",
        [["1: é = 5"], ["1: a = 1_0"], ["1: a = 5 ; 2: b = 6", ""],
         ["1: a = 5 -- c"], ["1: a = 5 # c"], ["1: a = 5;"], ["1:: a = 5"],
         ["1: a = = 5"], ["1: a == 5"], ["1: a = --5"], ["1: a"], [""],
         ["1: a = 1.5"], ["-1: a = 5"], ["1: a = 5 6"], ["1: a = 5 ; 7"],
         ["1: a b 5"], ["1: a = 5 ; 2", "3: b ="]],
        ids=repr,
    )
    def test_other_blocks_are_refused(self, chunk):
        assert _block_columns(chunk) is None
        assert _block_columns(chunk + ["2: a = 7"]) is None

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="int() has no digit limit on this Python",
    )
    def test_overlong_literal_raises_after_the_prefix(self):
        # int() refuses a literal past sys.get_int_max_str_digits(); the
        # events before it are still delivered, as the line reader does.
        digits = sys.get_int_max_str_digits() + 1
        text = "1: a = 1\n2: a = " + "9" * digits + "\n"
        ref_stats, got_stats = IngestStats(), IngestStats()
        delivered = []
        with pytest.raises(ValueError) as expected:
            _reference_events(text, None, ref_stats)
        with pytest.raises(ValueError) as got:
            for event in iter_trace_events(text, stats=got_stats):
                delivered.append(event)
        assert delivered == [(1, "a", 1)]
        assert str(got.value) == str(expected.value)
        assert got_stats == ref_stats

    def test_stats_count_every_line(self):
        stats = IngestStats()
        text = "-- header\n\n1: a = 1\n2: a = 2\n"
        assert list(iter_trace_events(text, stats=stats)) == [
            (1, "a", 1), (2, "a", 2)
        ]
        assert stats == IngestStats(lines_read=4, events_ingested=2)

    @pytest.mark.parametrize("fault", ["malformed", "negative"])
    def test_read_trace_raises_the_line_error(self, fault):
        text = _faulty_trace(5, fault, _BLOCK_LINES + 3, 0.01)
        expected = None
        for lineno, raw in enumerate(text.splitlines(), 1):
            try:
                parse_line(raw, lineno)
            except TraceError as err:
                expected = str(err)
                break
        with pytest.raises(TraceError) as info:
            read_trace(text)
        assert str(info.value) == expected

    def test_non_default_policy_uses_tolerant_reader(self, monkeypatch):
        calls = []
        original = TolerantReader.events

        def spy(self, items, parse):
            calls.append(self.policy)
            return original(self, items, parse)

        monkeypatch.setattr(TolerantReader, "events", spy)
        policy = IngestPolicy(max_skew=3)
        assert list(iter_trace_events("1: a = 1\n", policy)) == [(1, "a", 1)]
        assert list(iter_trace_events("1: a = 1\n")) == [(1, "a", 1)]
        assert calls == [policy]


def _sorted_events(seed):
    rng = random.Random(seed)
    events, ts = [], 0
    for _ in range(rng.randint(0, 300)):
        ts += rng.choice([0, 0, 1, 3])
        events.append((ts, rng.choice("ab"), rng.randint(0, 9)))
    return events


class TestBatchEvents:
    """Iterator input is cut by slices into exactly the list path's
    batches."""

    @pytest.mark.parametrize("batch_size", [1, 2, 7, 64, 512])
    @pytest.mark.parametrize("seed", range(6))
    def test_generator_matches_list(self, seed, batch_size):
        events = _sorted_events(seed)
        from_list = list(batch_events(events, batch_size))
        assert list(batch_events(iter(events), batch_size)) == from_list
        assert [e for batch in from_list for e in batch] == events
        for batch, following in zip(from_list, from_list[1:]):
            assert len(batch) >= batch_size
            assert batch[-1][0] != following[0][0]

    @pytest.mark.parametrize("make", [list, iter], ids=["list", "iter"])
    def test_one_timestamp_larger_than_the_batch(self, make):
        events = [(1, "a", 0)] + [(2, "a", k) for k in range(10)] + [(3, "a", 0)]
        assert list(batch_events(make(events), 4)) == [events[:11], events[11:]]

    @pytest.mark.parametrize("make", [list, iter], ids=["list", "iter"])
    def test_empty_input(self, make):
        assert list(batch_events(make([]), 3)) == []

    def test_upstream_error_propagates(self):
        def events():
            yield (1, "a", 0)
            raise TraceError("boom")

        with pytest.raises(TraceError, match="boom"):
            list(batch_events(events(), 4))
