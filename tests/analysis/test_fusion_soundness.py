"""Soundness edges of write-then-read fusion (OPT008) against Def. 7.

Fusion only removes a write whose result is never observed as an
aggregate.  The paper's Fig. 4 (lower) outputs the forked set itself,
so it must stay persistent with its rule-1 witness.  The ``uncertified``
shape (only the fork's size is read) is certified after fusion; the
alias guard checks that certification at runtime, on traces where
``i1`` and ``i2`` fire at the same timestamps.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.analysis.mutability import Rule1Violation
from repro.compiler import build_compiled_spec
from repro.frontend import parse_spec
from repro.speclib import fig4_lower_spec
from repro.structures import Backend
from repro.testing import reference_outputs

UNCERTIFIED_TEXT = """\
in i1: Int
in i2: Int
def m := merge(y, set_empty(unit))
def yl := last(m, i1)
def y := set_add(yl, i1)
def yp := last(y, i2)
def s := set_add(yp, i2)
def n := set_size(s)
out n
"""

CERTIFIED = ["_s0", "m", "y", "yl", "yp"]


def test_fig4_lower_is_not_fused_and_stays_persistent():
    compiled = build_compiled_spec(fig4_lower_spec())
    assert compiled.fusions == ()
    assert "s" in compiled.flat.definitions
    assert compiled.mutable_streams == frozenset()
    assert set(compiled.backends.values()) == {Backend.PERSISTENT}
    witnesses = compiled.persistence_witnesses()
    assert witnesses
    assert any(
        isinstance(w, Rule1Violation)
        for ws in witnesses.values()
        for w in ws
    )
    assert not any(d.code == "OPT008" for d in compiled.diagnostics())


def _guarded():
    monitor = api.compile(
        UNCERTIFIED_TEXT, api.CompileOptions(alias_guard=True)
    )
    compiled = monitor.compiled
    assert sorted(compiled.mutable_streams) == CERTIFIED
    for name in CERTIFIED:
        assert compiled.backends[name] is Backend.GUARDED
    return compiled


def _outputs(compiled, inputs):
    results = compiled.run_traces(inputs)
    return {name: stream.events for name, stream in results.items()}


def test_alias_guard_never_fires_on_shared_timestamps():
    compiled = _guarded()
    # i1 and i2 share every third timestamp; values repeat so set_add
    # hits both present and absent elements.
    inputs = {
        "i1": [(t, t % 5) for t in range(0, 90, 2)],
        "i2": [(t, t % 4) for t in range(0, 90, 3)],
    }
    expected = reference_outputs(parse_spec(UNCERTIFIED_TEXT), inputs)
    assert _outputs(compiled, inputs) == expected
    assert len(expected["n"]) == len(inputs["i2"]) - 1  # no set before i1


@settings(max_examples=40, deadline=None)
@given(
    stamps=st.dictionaries(
        st.integers(0, 30),
        st.tuples(
            st.booleans(), st.booleans(), st.integers(0, 5), st.integers(0, 5)
        ),
        max_size=30,
    )
)
def test_alias_guard_agrees_with_the_interpreter(stamps):
    """Random traces where ``i1`` and ``i2`` often share a timestamp."""
    inputs = {"i1": [], "i2": []}
    for ts in sorted(stamps):
        one, two, first, second = stamps[ts]
        if one:
            inputs["i1"].append((ts, first))
        if two:
            inputs["i2"].append((ts, second))
    expected = reference_outputs(parse_spec(UNCERTIFIED_TEXT), inputs)
    assert _outputs(_guarded(), inputs) == expected
