#!/usr/bin/env python3
"""The textual frontend end to end: parse, analyze, emit, run.

A spec written in the concrete syntax (with derived-operator macros and
signal-semantics ``slift``) is compiled to a Python monitor, whose
generated calculation section is printed, and run on a trace in the
TeSSLa trace format.
"""

from repro import analyze_mutability, api, flatten, parse_spec
from repro.semantics import read_trace, write_trace

SPEC = """
-- Sensor health monitor:
--  * how many samples arrived, and their running sum (macros)
--  * the gap since the previous sample (timestamp arithmetic)
--  * flag gaps longer than 10 time units
in sample: Int

def n      := count(sample)
def total  := sum(sample)
def gap    := time_since_last(sample)
def stale  := gap > 10

out n, total, gap, stale
"""

TRACE = """
1:  sample = 100
4:  sample = 103
18: sample = 90   -- a 14-unit gap: stale
20: sample = 95
"""


def main() -> None:
    spec = parse_spec(SPEC)
    flat = flatten(spec)
    monitor = api.compile(flat)

    print("=== analysis ===")
    print(analyze_mutability(flat).summary())

    inputs = read_trace(TRACE)
    outputs = monitor.run_traces(inputs)
    print("\n=== outputs (TeSSLa trace format) ===")
    print(write_trace({name: s.events for name, s in outputs.items()}), end="")

    print("\n=== generated calculation section (first lines) ===")
    print("\n".join(monitor.compiled.source.splitlines()[:12]))


if __name__ == "__main__":
    main()
