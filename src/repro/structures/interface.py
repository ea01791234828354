"""Common ADT surface shared by persistent and mutable collections.

The paper's generated monitors use *the same* operations regardless of
whether a stream variable was placed in the mutability set; what differs
is only the data-structure implementation behind the variable (§IV, §V).
We mirror that with a uniform protocol: every update method returns "the
updated collection" — a **new** object for the persistent variants, and
``self`` (destructively updated) for the mutable variants.  A call
``y = setAdd(y_last, i)`` therefore works on every backend, with the
mutable/persistent decision made once, at the construction site
(``set_empty`` etc.), driven by the analysis.  (Certified families that
the code generator holds bare skip the protocol altogether.)

Equality is *value* equality across variants, so differential tests can
compare the outputs of optimized and non-optimized monitors directly.
It extends to the bare builtin collections that optimized monitors keep
their certified-mutable families in (``set``/``frozenset``, ``dict``,
``deque``, ``list``; see :mod:`repro.compiler.codegen`), so a lifted
``eq`` between a bare stream and a persistent one compares contents.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator


class SetBase:
    """Protocol shared by :class:`PersistentSet` and :class:`MutableSet`."""

    def add(self, item: Any) -> "SetBase":
        raise NotImplementedError

    def remove(self, item: Any) -> "SetBase":
        raise NotImplementedError

    def __contains__(self, item: Any) -> bool:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Any]:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (SetBase, set, frozenset)):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(item in other for item in self)

    def __hash__(self) -> int:
        return hash(frozenset(self))

    def __repr__(self) -> str:
        inner = ", ".join(repr(item) for item in sorted(self, key=repr))
        return f"{type(self).__name__}({{{inner}}})"


class MapBase:
    """Protocol shared by :class:`PersistentMap` and :class:`MutableMap`."""

    def put(self, key: Any, value: Any) -> "MapBase":
        raise NotImplementedError

    def remove(self, key: Any) -> "MapBase":
        raise NotImplementedError

    def get(self, key: Any, default: Any = None) -> Any:
        raise NotImplementedError

    def __contains__(self, key: Any) -> bool:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def items(self) -> Iterator[Any]:
        raise NotImplementedError

    def keys(self) -> Iterator[Any]:
        for key, _ in self.items():
            yield key

    def values(self) -> Iterator[Any]:
        for _, value in self.items():
            yield value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (MapBase, dict)):
            return NotImplemented
        if len(self) != len(other):
            return False
        sentinel = object()
        return all(other.get(k, sentinel) == v for k, v in self.items())

    def __hash__(self) -> int:
        return hash(frozenset((k, v) for k, v in self.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in self.items())
        return f"{type(self).__name__}({{{inner}}})"


class QueueBase:
    """Protocol shared by :class:`PersistentQueue` and :class:`MutableQueue`.

    FIFO discipline: ``enqueue`` appends at the back, ``front`` peeks and
    ``dequeue`` removes at the front.
    """

    def enqueue(self, item: Any) -> "QueueBase":
        raise NotImplementedError

    def dequeue(self) -> "QueueBase":
        raise NotImplementedError

    def front(self) -> Any:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Any]:
        """Iterate front-to-back."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (QueueBase, deque)):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        inner = ", ".join(repr(item) for item in self)
        return f"{type(self).__name__}([{inner}])"


class VectorBase:
    """Protocol shared by :class:`PersistentVector` and :class:`MutableVector`.

    An indexed sequence supporting append, functional index update and
    positional reads.
    """

    def append(self, item: Any) -> "VectorBase":
        raise NotImplementedError

    def set(self, index: int, item: Any) -> "VectorBase":
        raise NotImplementedError

    def get(self, index: int) -> Any:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Any]:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (VectorBase, list)):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        inner = ", ".join(repr(item) for item in self)
        return f"{type(self).__name__}([{inner}])"


class EmptyCollectionError(LookupError):
    """Raised by ``front``/``dequeue``/``get`` on an empty collection."""
