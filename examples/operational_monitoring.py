#!/usr/bin/env python3
"""Operational features for long-running monitors.

Combines several library facilities around one scenario — a service
emitting request events, monitored for (a) duplicate request ids,
(b) silence (watchdog timeout), with:

* **composition** — the two properties are written as separate specs
  and merged into ONE compiled monitor (one analysis, one event loop);
* **advance()** — a wall-clock driver lets the delay-based watchdog
  fire while the input is silent;
* **checkpoint/restore** — the monitor state is snapshotted mid-run and
  resumed in a fresh process-like monitor, with identical results.
"""

from repro import api
from repro.compiler import collecting_callback
from repro.lang import INT, Specification
from repro.lang.compose import compose, substitute_inputs
from repro.speclib import seen_set, watchdog


def duplicate_detector() -> Specification:
    """seen_set over request ids, renamed to read naturally."""
    spec = seen_set()
    spec.inputs = {"i": INT}
    return spec


def main() -> None:
    # one monitor, two properties over the same input stream "i"; the
    # watchdog spec is written against "hb", so rewire its input first
    wd_over_i = substitute_inputs(watchdog(timeout=25), {"hb": "i"})
    combined = compose(duplicate_detector(), wd_over_i)
    compiled = api.compile(combined)
    print("combined monitor:")
    print("  outputs:", compiled.outputs)
    print("  mutable:", sorted(compiled.mutable_streams))

    on_output, collected = collecting_callback()
    monitor = compiled.new_instance(on_output)

    # phase 1: requests flow
    for ts, request_id in [(1, 101), (4, 102), (7, 101)]:
        monitor.push("i", ts, request_id)
    monitor.advance(8)
    checkpoint = monitor.snapshot()
    print("\nafter phase 1:", dict(collected))

    # phase 2a: the service goes silent; the wall clock advances
    monitor.advance(60)
    print("after silence :", collected.get("alarm_at"))

    # phase 2b: alternative future from the checkpoint — requests resume
    on2, collected2 = collecting_callback()
    resumed = compiled.new_instance(on2)
    resumed.restore(checkpoint)
    resumed.push("i", 20, 103)
    resumed.push("i", 30, 102)
    resumed.finish(end_time=40)
    print("resumed future:", dict(collected2))


if __name__ == "__main__":
    main()
