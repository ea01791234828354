"""Mutable wrappers for in-place families the code generator cannot
hold bare.

Optimized monitors keep a certified-mutable family as Python's own
``set``/``dict``/``collections.deque``/``list`` (the role Scala's
``mutable`` collections play in the paper) and inline each builtin's
template over it (see :mod:`repro.compiler.codegen`).  These classes
wrap the same builtins behind the ADT surface of the persistent
variants — every update method performs the change **in place** and
returns ``self`` — for the mutable families that must speak that
protocol: one touched by an ad-hoc lift written against it (a
``pointwise`` function, a window lift), and every collection built
through :func:`repro.structures.factories.make_set` and its siblings
(benchmark replays, tests).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Iterator, Tuple

from .interface import (
    EmptyCollectionError,
    MapBase,
    QueueBase,
    SetBase,
    VectorBase,
)


class MutableSet(SetBase):
    """Destructively-updated set; ``add``/``remove`` return ``self``."""

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[Any] = ()) -> None:
        self._items = set(items)

    def add(self, item: Any) -> "MutableSet":
        self._items.add(item)
        return self

    def remove(self, item: Any) -> "MutableSet":
        self._items.discard(item)
        return self

    def __contains__(self, item: Any) -> bool:
        return item in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)


class MutableMap(MapBase):
    """Destructively-updated map; ``put``/``remove`` return ``self``."""

    __slots__ = ("_items",)

    def __init__(self, pairs: Iterable[Tuple[Any, Any]] = ()) -> None:
        self._items = dict(pairs)

    def put(self, key: Any, value: Any) -> "MutableMap":
        self._items[key] = value
        return self

    def remove(self, key: Any) -> "MutableMap":
        self._items.pop(key, None)
        return self

    def get(self, key: Any, default: Any = None) -> Any:
        return self._items.get(key, default)

    def __getitem__(self, key: Any) -> Any:
        return self._items[key]

    def __contains__(self, key: Any) -> bool:
        return key in self._items

    def __len__(self) -> int:
        return len(self._items)

    def items(self) -> Iterator[Tuple[Any, Any]]:
        return iter(self._items.items())


class MutableQueue(QueueBase):
    """Destructively-updated FIFO queue backed by ``collections.deque``."""

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[Any] = ()) -> None:
        self._items = deque(items)

    def enqueue(self, item: Any) -> "MutableQueue":
        self._items.append(item)
        return self

    def dequeue(self) -> "MutableQueue":
        if not self._items:
            raise EmptyCollectionError("dequeue() on empty queue")
        self._items.popleft()
        return self

    def front(self) -> Any:
        if not self._items:
            raise EmptyCollectionError("front() on empty queue")
        return self._items[0]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)


class MutableVector(VectorBase):
    """Destructively-updated indexed sequence backed by ``list``."""

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[Any] = ()) -> None:
        self._items = list(items)

    def append(self, item: Any) -> "MutableVector":
        self._items.append(item)
        return self

    def set(self, index: int, item: Any) -> "MutableVector":
        if not 0 <= index < len(self._items):
            raise EmptyCollectionError(
                f"index {index} out of range [0, {len(self._items)})"
            )
        self._items[index] = item
        return self

    def get(self, index: int) -> Any:
        if not 0 <= index < len(self._items):
            raise EmptyCollectionError(
                f"index {index} out of range [0, {len(self._items)})"
            )
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)
