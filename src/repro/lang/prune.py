"""Dead-stream liveness.

A monitor only needs the streams its outputs (transitively) depend on —
including ``last``/``delay`` dependencies, which carry state across
timestamps, and ``delay`` reset inputs.  Everything else is dead code:
it can never influence an output event.  :func:`live_streams` computes
that set; :func:`repro.lint` reports the dead rest and the rewrite
optimizer's dead-stream rule (``OPT005``, :func:`repro.opt.project_live`)
removes it.
"""

from __future__ import annotations

from typing import Set

from .ast import free_vars
from .spec import FlatSpec


def live_streams(flat: FlatSpec) -> Set[str]:
    """Streams reachable from the outputs through any dependency."""
    live: Set[str] = set()
    stack = [name for name in flat.outputs]
    while stack:
        name = stack.pop()
        if name in live:
            continue
        live.add(name)
        if name in flat.definitions:
            stack.extend(free_vars(flat.definitions[name]))
    return live
