"""Structure cloning for monitor checkpoints.

Persistent and copying collections are immutable — sharing them is
safe.  Mutable collections (the wrappers and the bare ``set``/``dict``/
``deque``/``list`` of certified-mutable families) must be duplicated,
otherwise a checkpoint would alias live monitor state and be corrupted
by subsequent in-place updates.  Guarded collections (the alias-guard
sanitizer) are cloned into a fresh structure with its own generation
cell, so restoring a checkpoint never resurrects stale handles.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from .guard import GuardedMap, GuardedQueue, GuardedSet, GuardedVector
from .mutable import MutableMap, MutableQueue, MutableSet, MutableVector


def clone_value(value: Any) -> Any:
    """A snapshot-safe copy of a stream value.

    Mutable aggregates are duplicated (shallowly — element values are
    scalars by the type system's no-nesting rule); lists (bare vectors,
    and the vector engine's ``last`` cells) are cloned element-wise;
    everything else is returned as-is.
    """
    if isinstance(value, list):
        return [clone_value(v) for v in value]
    if isinstance(value, set):
        return set(value)
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, deque):
        return deque(value)
    if isinstance(value, MutableSet):
        return MutableSet(value)
    if isinstance(value, MutableMap):
        return MutableMap(value.items())
    if isinstance(value, MutableQueue):
        return MutableQueue(value)
    if isinstance(value, MutableVector):
        return MutableVector(value)
    if isinstance(value, GuardedSet):
        return GuardedSet(value)
    if isinstance(value, GuardedMap):
        return GuardedMap(value.items())
    if isinstance(value, GuardedQueue):
        return GuardedQueue(value)
    if isinstance(value, GuardedVector):
        return GuardedVector(value)
    return value
