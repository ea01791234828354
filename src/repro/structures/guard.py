"""Alias-guard collections: a runtime sanitizer for the static analysis.

The mutability analysis (paper §IV-B/D) promises that when a stream
variable is placed in the mutability set, no alias of a pre-update
value is ever accessed after the in-place update.  These collections
*check that promise at runtime*: they behave like the mutable variants,
but every update returns a **new handle** onto the shared storage and
bumps a generation counter; any later access through an old handle — a
read the static analysis claims cannot happen — raises
:class:`AliasGuardError` immediately, naming both generations.

Compile with ``repro.api.compile(spec, CompileOptions(alias_guard=True))``
(``--alias-guard`` on the CLI) to replace every
analysis-chosen mutable backend with its guarded twin.  A spec suite
that runs clean under the guard is runtime evidence that the analysis
classified its streams soundly; a raised guard is a reproducer for an
analysis (or access-metadata) bug, caught at the faulty access instead
of as silent output corruption.

The guard costs one integer comparison per access plus one small object
per update, so it is a debug mode — production monitors use the plain
mutable variants.
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


class AliasGuardError(AssertionError):
    """An access through a stale (pre-mutation) aggregate reference.

    This means the static mutability analysis was wrong for the running
    specification — or a custom lifted function declared wrong access
    metadata.  It is an :class:`AssertionError` on purpose: it signals a
    bug in the monitor, never a data fault, and the error-propagation
    machinery deliberately refuses to convert it into a stream error.
    """


class _Cell:
    """Shared generation counter for all handles onto one storage."""

    __slots__ = ("gen",)

    def __init__(self) -> None:
        self.gen = 0


class _GuardedBase:
    """Handle onto shared storage, valid for exactly one generation."""

    __slots__ = ("_items", "_cell", "_gen")

    def __init__(self, items: Any, cell: _Cell, gen: int) -> None:
        self._items = items
        self._cell = cell
        self._gen = gen

    def _check(self) -> None:
        if self._gen != self._cell.gen:
            raise AliasGuardError(
                f"stale {type(self).__name__} reference: handle of"
                f" generation {self._gen} accessed after the structure"
                f" advanced to generation {self._cell.gen} — the static"
                " mutability analysis misclassified this stream (or a"
                " lifted function's access metadata is wrong)"
            )

    def _advance(self) -> Tuple[Any, _Cell]:
        """Validate, bump the generation, and hand back the storage."""
        self._check()
        cell = self._cell
        cell.gen += 1
        return self._items, cell

    @classmethod
    def _handle(cls, items: Any, cell: _Cell) -> "_GuardedBase":
        """A fresh handle at the storage's current generation."""
        obj = cls.__new__(cls)
        _GuardedBase.__init__(obj, items, cell, cell.gen)
        return obj


class GuardedSet(_GuardedBase, SetBase):
    """In-place set whose stale handles raise on any access."""

    __slots__ = ()

    def __init__(self, items: Iterable[Any] = ()) -> None:
        _GuardedBase.__init__(self, set(items), _Cell(), 0)

    def add(self, item: Any) -> "GuardedSet":
        storage, cell = self._advance()
        storage.add(item)
        return GuardedSet._handle(storage, cell)

    def remove(self, item: Any) -> "GuardedSet":
        storage, cell = self._advance()
        storage.discard(item)
        return GuardedSet._handle(storage, cell)

    def __contains__(self, item: Any) -> bool:
        self._check()
        return item in self._items

    def __len__(self) -> int:
        self._check()
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        self._check()
        return iter(self._items)


class GuardedMap(_GuardedBase, MapBase):
    """In-place map whose stale handles raise on any access."""

    __slots__ = ()

    def __init__(self, pairs: Iterable[Tuple[Any, Any]] = ()) -> None:
        _GuardedBase.__init__(self, dict(pairs), _Cell(), 0)

    def put(self, key: Any, value: Any) -> "GuardedMap":
        storage, cell = self._advance()
        storage[key] = value
        return GuardedMap._handle(storage, cell)

    def remove(self, key: Any) -> "GuardedMap":
        storage, cell = self._advance()
        storage.pop(key, None)
        return GuardedMap._handle(storage, cell)

    def get(self, key: Any, default: Any = None) -> Any:
        self._check()
        return self._items.get(key, default)

    def __getitem__(self, key: Any) -> Any:
        self._check()
        return self._items[key]

    def __contains__(self, key: Any) -> bool:
        self._check()
        return key in self._items

    def __len__(self) -> int:
        self._check()
        return len(self._items)

    def items(self) -> Iterator[Tuple[Any, Any]]:
        self._check()
        return iter(self._items.items())


class GuardedQueue(_GuardedBase, QueueBase):
    """In-place FIFO queue whose stale handles raise on any access."""

    __slots__ = ()

    def __init__(self, items: Iterable[Any] = ()) -> None:
        _GuardedBase.__init__(self, deque(items), _Cell(), 0)

    def enqueue(self, item: Any) -> "GuardedQueue":
        storage, cell = self._advance()
        storage.append(item)
        return GuardedQueue._handle(storage, cell)

    def dequeue(self) -> "GuardedQueue":
        storage, cell = self._advance()
        if not storage:
            raise EmptyCollectionError("dequeue() on empty queue")
        storage.popleft()
        return GuardedQueue._handle(storage, cell)

    def front(self) -> Any:
        self._check()
        if not self._items:
            raise EmptyCollectionError("front() on empty queue")
        return self._items[0]

    def __len__(self) -> int:
        self._check()
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        self._check()
        return iter(self._items)


class GuardedVector(_GuardedBase, VectorBase):
    """In-place indexed sequence whose stale handles raise on access."""

    __slots__ = ()

    def __init__(self, items: Iterable[Any] = ()) -> None:
        _GuardedBase.__init__(self, list(items), _Cell(), 0)

    def append(self, item: Any) -> "GuardedVector":
        storage, cell = self._advance()
        storage.append(item)
        return GuardedVector._handle(storage, cell)

    def set(self, index: int, item: Any) -> "GuardedVector":
        storage, cell = self._advance()
        if not 0 <= index < len(storage):
            raise EmptyCollectionError(
                f"index {index} out of range [0, {len(storage)})"
            )
        storage[index] = item
        return GuardedVector._handle(storage, cell)

    def get(self, index: int) -> Any:
        self._check()
        if not 0 <= index < len(self._items):
            raise EmptyCollectionError(
                f"index {index} out of range [0, {len(self._items)})"
            )
        return self._items[index]

    def __len__(self) -> int:
        self._check()
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        self._check()
        return iter(self._items)
