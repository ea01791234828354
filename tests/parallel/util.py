"""Shared helpers for the parallel-subsystem tests."""

from __future__ import annotations

import random


def random_trace(names, length, domain, seed, start=1):
    """The differential-test trace idiom: random stream, random gaps."""
    rng = random.Random(seed)
    traces = {name: [] for name in names}
    t = start
    for _ in range(length):
        name = rng.choice(names)
        traces[name].append((t, rng.randrange(domain)))
        t += rng.randint(1, 3)
    return traces


def to_events(traces):
    """Merge per-stream traces into one timestamp-sorted event list."""
    events = [
        (ts, name, value)
        for name, stream in traces.items()
        for ts, value in stream
    ]
    events.sort(key=lambda event: event[0])
    return events
