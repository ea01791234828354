"""Random specification and trace generators for differential testing.

The generator builds well-formed specifications around the patterns the
analysis cares about: aggregate accumulator chains (Fig. 1 shape, with
optional extra reads, extra replicating lasts and extra writes that
force persistence), scalar dataflow around them, and multi-input
triggering.  Some generated specs are fully optimizable, others are
provably not — differential tests must agree in both cases.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.lang import (
    Const,
    Delay,
    INT,
    Last,
    Lift,
    Merge,
    SLift,
    Specification,
    TimeExpr,
    UnitExpr,
    Var,
)
from repro.lang.builtins import builtin, pointwise


@st.composite
def scalar_layers(draw, sources, prefix, max_layers=3):
    """Derive a few scalar INT streams from the *sources* names."""
    definitions = {}
    available = list(sources)
    for index in range(draw(st.integers(0, max_layers))):
        name = f"{prefix}{index}"
        kind = draw(st.integers(0, 3))
        a = draw(st.sampled_from(available))
        if kind == 0:
            definitions[name] = TimeExpr(Var(a))
        elif kind == 1:
            b = draw(st.sampled_from(available))
            definitions[name] = Merge(Var(a), Var(b))
        elif kind == 2:
            b = draw(st.sampled_from(available))
            definitions[name] = Lift(builtin("add"), (Var(a), Var(b)))
        else:
            b = draw(st.sampled_from(available))
            definitions[name] = Last(Var(a), Var(b))
        available.append(name)
    return definitions, available


@st.composite
def aggregate_chain(draw, tag, triggers):
    """One accumulator family in the Fig. 1 shape, with variations.

    Returns (definitions, scalar_outputs).  Variations:
    * write op: set_add / set_toggle / set_remove
    * 0-2 reads of the sampled value (contains / size)
    * optionally a second last over the written stream on another
      trigger with a read (Fig. 4 upper shape) or a WRITE (Fig. 4 lower
      shape).  Only the second write's size is read in ``write_again``,
      so write-then-read fusion (OPT008) removes it; ``write_out``
      outputs the forked set itself, which cannot fuse and keeps the
      family persistent.
    * optionally a ``peek``: a second write on the sampled set whose
      result is only read (fusible)
    """
    trigger = draw(st.sampled_from(triggers))
    m, last, acc = f"{tag}_m", f"{tag}_l", f"{tag}"
    write_op = draw(st.sampled_from(["set_add", "set_toggle", "set_remove"]))
    definitions = {
        m: Merge(Var(acc), Lift(builtin("set_empty"), (UnitExpr(),))),
        last: Last(Var(m), Var(trigger)),
        acc: Lift(builtin(write_op), (Var(last), Var(trigger))),
    }
    outputs = []
    for index in range(draw(st.integers(0, 2))):
        read = f"{tag}_r{index}"
        if draw(st.booleans()):
            definitions[read] = Lift(
                builtin("set_contains"), (Var(last), Var(trigger))
            )
        else:
            definitions[read] = Lift(builtin("set_size"), (Var(last),))
        outputs.append(read)
    if draw(st.booleans()):
        definitions.update(_peek(draw, tag, "set_add", last, triggers))
        outputs.append(f"{tag}_pr")
    shape = draw(
        st.sampled_from(["none", "read_again", "write_again", "write_out"])
    )
    if shape != "none" and len(triggers) > 1:
        other = draw(st.sampled_from(triggers))
        second = f"{tag}_p"
        definitions[second] = Last(Var(acc), Var(other))
        if shape == "read_again":
            read = f"{tag}_rp"
            definitions[read] = Lift(
                builtin("set_contains"), (Var(second), Var(other))
            )
            outputs.append(read)
        else:  # a second write: the Fig. 4 lower pattern
            write2 = f"{tag}_w2"
            definitions[write2] = Lift(
                builtin("set_add"), (Var(second), Var(other))
            )
            if shape == "write_out":
                outputs.append(write2)
            else:
                size2 = f"{tag}_rw"
                definitions[size2] = Lift(
                    builtin("set_size"), (Var(write2),)
                )
                outputs.append(size2)
    return definitions, outputs


def _peek(draw, tag, write_op, last, triggers):
    """``{tag}_pk := write(last, ...)`` read once by ``{tag}_pr``: a
    write-then-read pair from the fusion table (OPT008)."""
    x = Var(draw(st.sampled_from(triggers)))
    y = Var(draw(st.sampled_from(triggers)))
    peek = Var(f"{tag}_pk")
    if write_op == "map_put":
        write = Lift(builtin("map_put"), (Var(last), x, TimeExpr(y)))
        read = Lift(builtin("map_get_or"), (peek, y, x))
    elif write_op == "queue_enq":
        write = Lift(builtin("queue_enq"), (Var(last), x))
        read = Lift(builtin("queue_size"), (peek,))
    elif draw(st.booleans()):
        write = Lift(builtin("set_add"), (Var(last), x))
        read = Lift(builtin("set_contains"), (peek, y))
    else:
        write = Lift(builtin("set_add"), (Var(last), x))
        read = Lift(builtin("set_size"), (peek,))
    return {f"{tag}_pk": write, f"{tag}_pr": read}


@st.composite
def map_chain(draw, tag, triggers):
    """A map accumulator family: put/remove writes, get/size reads,
    optionally a ``peek``."""
    trigger = draw(st.sampled_from(triggers))
    key_src = draw(st.sampled_from(triggers))
    m, last, acc = f"{tag}_m", f"{tag}_l", f"{tag}"
    definitions = {
        m: Merge(Var(acc), Lift(builtin("map_empty"), (UnitExpr(),))),
        last: Last(Var(m), Var(trigger)),
    }
    if draw(st.booleans()):
        definitions[acc] = Lift(
            builtin("map_put"),
            (Var(last), Var(key_src), TimeExpr(Var(trigger))),
        )
    else:
        # a sequential write chain: put then remove at one timestamp
        definitions[f"{tag}_w1"] = Lift(
            builtin("map_put"),
            (Var(last), Var(key_src), TimeExpr(Var(trigger))),
        )
        definitions[acc] = Lift(
            builtin("map_remove"), (Var(f"{tag}_w1"), Var(trigger))
        )
    outputs = []
    if draw(st.booleans()):
        read = f"{tag}_r"
        definitions[read] = Lift(
            builtin("map_contains"), (Var(last), Var(key_src))
        )
        outputs.append(read)
    if draw(st.booleans()):
        size = f"{tag}_sz"
        definitions[size] = Lift(builtin("map_size"), (Var(last),))
        outputs.append(size)
    if draw(st.booleans()):
        definitions.update(_peek(draw, tag, "map_put", last, triggers))
        outputs.append(f"{tag}_pr")
    return definitions, outputs


@st.composite
def queue_chain(draw, tag, triggers):
    """A queue family: enqueue, conditional dequeue, front/size reads,
    optionally a ``peek``."""
    trigger = draw(st.sampled_from(triggers))
    limit = draw(st.integers(1, 5))
    m, last, q1, acc = f"{tag}_m", f"{tag}_l", f"{tag}_e", f"{tag}"
    is_full = pointwise(
        f"geq{limit}", lambda n, _n=limit: n >= _n, (INT,), __import__(
            "repro.lang.types", fromlist=["BOOL"]
        ).BOOL
    )
    definitions = {
        m: Merge(Var(acc), Lift(builtin("queue_empty"), (UnitExpr(),))),
        last: Last(Var(m), Var(trigger)),
        q1: Lift(builtin("queue_enq"), (Var(last), Var(trigger))),
        f"{tag}_sz": Lift(builtin("queue_size"), (Var(q1),)),
        f"{tag}_full": Lift(is_full, (Var(f"{tag}_sz"),)),
        f"{tag}_hd": Lift(
            builtin("queue_front_or"), (Var(q1), Var(trigger))
        ),
        acc: Lift(builtin("queue_deq_if"), (Var(q1), Var(f"{tag}_full"))),
    }
    outputs = [f"{tag}_sz", f"{tag}_hd"]
    if draw(st.booleans()):
        definitions.update(_peek(draw, tag, "queue_enq", last, triggers))
        outputs.append(f"{tag}_pr")
    return definitions, outputs


@st.composite
def delay_layer(draw, tag, triggers):
    """A delay stream resetting on an input, with a sampled period."""
    reset = draw(st.sampled_from(triggers))
    period = draw(st.integers(1, 7))
    const_period = pointwise(
        f"period{period}", lambda _v, _p=period: _p, (INT,), INT
    )
    definitions = {
        f"{tag}_d": Lift(const_period, (Var(reset),)),
        tag: Delay(Var(f"{tag}_d"), Var(reset)),
        f"{tag}_t": TimeExpr(Var(tag)),
    }
    return definitions, [f"{tag}_t"]


@st.composite
def specifications(draw, allow_delays=False):
    """A random well-formed specification plus suggested outputs."""
    n_inputs = draw(st.integers(1, 3))
    inputs = {f"in{k}": INT for k in range(n_inputs)}
    input_names = list(inputs)
    definitions = {}
    outputs = []

    scalar_defs, scalars = draw(scalar_layers(input_names, "sc"))
    definitions.update(scalar_defs)

    chain_strategies = {
        "set": aggregate_chain,
        "map": map_chain,
        "queue": queue_chain,
    }
    for tag_index in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(sorted(chain_strategies)))
        chain_defs, chain_outputs = draw(
            chain_strategies[kind](f"{kind}{tag_index}", input_names)
        )
        definitions.update(chain_defs)
        outputs.extend(chain_outputs)

    if draw(st.booleans()):
        a, b = draw(st.sampled_from(input_names)), draw(
            st.sampled_from(input_names)
        )
        definitions["sl"] = SLift(builtin("add"), (Var(a), Var(b)))
        outputs.append("sl")

    if allow_delays and draw(st.booleans()):
        delay_defs, delay_outputs = draw(delay_layer("dl", input_names))
        definitions.update(delay_defs)
        outputs.extend(delay_outputs)

    # a couple of scalar outputs too
    for name in scalars[len(input_names):][:2]:
        outputs.append(name)
    if not outputs:
        outputs = [next(iter(definitions))]
    # constant stream to exercise timestamp 0
    definitions["k0"] = Const(draw(st.integers(-3, 3)))
    outputs.append("k0")
    return Specification(inputs, definitions, outputs)


@st.composite
def vector_specifications(draw):
    """A wholly vector-eligible Int spec (see ``compiler.vector``).

    Scalar ``last``/``add``/``sub``/``gt``/``filter``/``merge``/
    ``time``/``at`` chains over one or two Int inputs, optionally a
    running-sum feedback triple (lowered to a prefix scan), and a
    unit-typed stream.  Two or three outputs: one or two value streams
    plus the unit stream.
    """
    inputs = {f"x{k}": INT for k in range(draw(st.integers(1, 2)))}
    ints = list(inputs)
    values = []
    definitions = {}

    def add_stream(name, expr, pool):
        definitions[name] = expr
        pool.append(name)
        values.append(name)

    if draw(st.booleans()):
        x = draw(st.sampled_from(ints))
        definitions["rh"] = Last(Var("rs"), Var(x))
        definitions["rk"] = Lift(builtin("add"), (Var("rh"), Var(x)))
        add_stream("rs", Merge(Var("rk"), Var(x)), ints)
    for index in range(draw(st.integers(1, 5))):
        name = f"v{index}"
        kind = draw(
            st.sampled_from(
                ["last", "add", "sub", "gt", "filter", "merge", "time", "at"]
            )
        )
        a, b = draw(st.sampled_from(ints)), draw(st.sampled_from(ints))
        if kind == "last":
            add_stream(name, Last(Var(a), Var(b)), ints)
        elif kind in ("add", "sub"):
            add_stream(name, Lift(builtin(kind), (Var(a), Var(b))), ints)
        elif kind == "gt":
            add_stream(name, Lift(builtin("gt"), (Var(a), Var(b))), [])
        elif kind == "filter":
            c = draw(st.sampled_from(ints))
            definitions[f"{name}_c"] = Lift(builtin("gt"), (Var(b), Var(c)))
            add_stream(
                name,
                Lift(builtin("filter"), (Var(a), Var(f"{name}_c"))),
                ints,
            )
        elif kind == "merge":
            add_stream(name, Merge(Var(a), Var(b)), ints)
        elif kind == "time":
            add_stream(name, TimeExpr(Var(a)), ints)
        else:
            add_stream(name, Lift(builtin("at"), (Var(a), Var(b))), ints)

    # Unit: fires at t=0, then on every event of a trigger after it.
    definitions["u0"] = UnitExpr()
    definitions["u1"] = Last(Var("u0"), Var(draw(st.sampled_from(ints))))
    unit_out = draw(st.sampled_from(["u0", "u1", "u2"]))
    if unit_out == "u2":
        other = draw(st.sampled_from(ints))
        definitions["u2"] = draw(
            st.sampled_from(
                [
                    Lift(builtin("at"), (Var("u1"), Var(other))),
                    Merge(Var("u1"), Var("u0")),
                ]
            )
        )
    outputs = draw(
        st.lists(st.sampled_from(values), min_size=1, max_size=2, unique=True)
    )
    return Specification(inputs, definitions, outputs + [unit_out])


@st.composite
def dense_columns(draw, input_names, max_rows=150):
    """Dense columnar input cut into chunks, for ``feed_columns``.

    Returns ``(timestamps, values, chunks)``: strictly increasing
    timestamps (possibly starting at 0), one value list per input, and
    ``(lo, hi, names)`` chunks covering the rows in order, where each
    chunk carries the columns of a random subset of the inputs.
    """
    rows = draw(st.integers(1, max_rows))
    ts = [draw(st.integers(0, 2))]
    gaps = st.lists(st.integers(1, 3), min_size=rows - 1, max_size=rows - 1)
    for gap in draw(gaps):
        ts.append(ts[-1] + gap)
    column = st.lists(st.integers(-6, 6), min_size=rows, max_size=rows)
    values = {name: draw(column) for name in input_names}
    cut = st.integers(1, rows)
    cuts = sorted(set(draw(st.lists(cut, max_size=6))) - {rows})
    chunks = []
    for lo, hi in zip([0] + cuts, cuts + [rows]):
        names = draw(
            st.lists(st.sampled_from(list(input_names)), unique=True)
        )
        chunks.append((lo, hi, tuple(sorted(names))))
    return ts, values, chunks


@st.composite
def traces(draw, input_names, max_events=25, max_time=40, max_value=8):
    """Random input traces: strictly increasing timestamps per stream.

    Small value domains make set toggles and contains-hits likely.
    """
    result = {}
    for name in input_names:
        timestamps = sorted(
            set(
                draw(
                    st.lists(
                        st.integers(0, max_time), max_size=max_events
                    )
                )
            )
        )
        result[name] = [
            (t, draw(st.integers(0, max_value))) for t in timestamps
        ]
    return result
