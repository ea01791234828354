#!/usr/bin/env python3
"""Extending the language: user-defined lifted functions.

Shows the extension surface a downstream user needs: define your own
lifted function with access-class and event-pattern metadata (so the
analysis can reason about it), plug it into a specification, and let
the compiler decide mutability.  The example maintains a sliding
top-score table in a Vector with a custom in-place `bump` operation.
"""

from repro import INT, Last, Lift, Merge, Specification, UnitExpr, Var, api
from repro.lang.builtins import Access, EventPattern, LiftedFunction, builtin, pointwise
from repro.lang.types import VectorType


def make_bump():
    """bump(v, i): increment slot ``i % len`` of the score vector, or
    append a new slot while the vector is short.  WRITE access on the
    vector, strict (ALL) event pattern."""

    def bump(vector, index):
        if len(vector) < 8:
            return vector.append(1)
        slot = index % len(vector)
        return vector.set(slot, vector.get(slot) + 1)

    return LiftedFunction(
        "bump",
        EventPattern.ALL,
        (Access.WRITE, Access.NONE),
        (VectorType(INT), INT),
        VectorType(INT),
        lambda backend: bump,
    )


def main() -> None:
    bump = make_bump()
    best_of = pointwise(
        "best_of",
        lambda v: max(v) if len(v) else 0,
        (VectorType(INT),),
        INT,
        access=(Access.READ,),
    )

    spec = Specification(
        inputs={"hit": INT},
        definitions={
            "scores_m": Merge(
                Var("scores"), Lift(builtin("vec_empty"), (UnitExpr(),))
            ),
            "scores_l": Last(Var("scores_m"), Var("hit")),
            "best": Lift(best_of, (Var("scores_l"),)),
            "scores": Lift(bump, (Var("scores_l"), Var("hit"))),
        },
        outputs=["best"],
        type_annotations={"scores": VectorType(INT)},
    )

    monitor = api.compile(spec)
    print("mutability analysis for the custom operator:")
    print(monitor.compiled.analysis.summary())
    print()

    trace = {"hit": [(t, t * 13 % 31) for t in range(1, 40)]}
    out = monitor.run_traces(trace)
    print("best-score stream (last 5 events):", out["best"].events[-5:])
    print(
        "\nThe custom `bump` writes its vector in place:",
        sorted(monitor.mutable_streams),
    )


if __name__ == "__main__":
    main()
