#!/usr/bin/env python3
"""Quickstart: write a spec, compile it, run it, inspect the optimization.

The specification is the paper's Figure 1: accumulate input values in a
set and report whether the current value was seen before.  We compile
it twice — optimized (mutable set, in-place updates) and non-optimized
(persistent HAMT set) — run both on the same trace, and show that they
agree while the optimized monitor updates one single object in place.
"""

from repro import api, parse_spec

SPEC = """
-- Figure 1 of the paper: "was this value seen before?"
in i: Int

def m  := merge(y, set_empty(unit))   -- the set, initialized empty at t=0
def yl := last(m, i)                  -- its previous version, sampled at i
def y  := set_add(yl, i)              -- the next version
def s  := set_contains(yl, i)         -- the check (reads the OLD version)

out s
"""


def main() -> None:
    spec = parse_spec(SPEC)

    # engine="codegen" so there is generated Python source to print.
    optimized = api.compile(spec, api.CompileOptions(engine="codegen"))
    baseline = api.compile(spec, api.CompileOptions(optimize=False))

    print("=== mutability analysis ===")
    print(optimized.compiled.analysis.summary())
    print()
    print("=== generated calculation section (optimized) ===")
    print(optimized.source)

    trace = {"i": [(1, 4), (2, 7), (3, 4), (5, 9), (8, 7)]}
    out_opt = optimized.run_traces(trace)
    out_base = baseline.run_traces(trace)

    print("=== outputs ===")
    print("optimized:    ", out_opt["s"].events)
    print("non-optimized:", out_base["s"].events)
    assert out_opt["s"] == out_base["s"], "both variants must agree"
    print("\nBoth monitors agree; the optimized one performed every set")
    print("update in place (streams", sorted(optimized.mutable_streams),
          "are mutable).")


if __name__ == "__main__":
    main()
