"""Bit-partitioned Hash-Array-Mapped-Trie (HAMT).

This is the persistent backbone of the library, mirroring the role the
Scala immutable collections play in the paper's artifact: the persistent
``Set`` and ``Map`` used by the *non-optimized* generated monitors are
"adjusted Hash-Array Mapped Tries" (paper §V-A, citing Steindorfer/Vinju
and Bagwell).  Each update returns a new trie sharing all untouched
sub-trees with the original, so updates are O(log32 n) time and space.

The trie maps keys to values; the persistent set is a map to a sentinel.
Three node kinds exist:

* ``_Bitmap`` — an interior node holding up to 32 children indexed by a
  5-bit hash fragment, compressed via a 32-bit bitmap.
* ``_Collision`` — a bucket of entries whose hashes collide entirely.
* entries themselves are stored inline as ``(key, value)`` pairs.

Only :class:`Hamt` is public here; see :mod:`repro.structures.pset` and
:mod:`repro.structures.pmap` for the user-facing collections.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Tuple

_SHIFT = 5
_MASK = (1 << _SHIFT) - 1  # 0b11111
_MAX_SHIFT = 30  # 6 levels of 5 bits cover the 32-bit hash we use


def _hash(key: Any) -> int:
    """Return a 32-bit non-negative hash for *key*."""
    return hash(key) & 0xFFFFFFFF


if hasattr(int, "bit_count"):  # Python >= 3.10
    _popcount = int.bit_count
else:  # pragma: no cover - Python 3.9

    def _popcount(x: int) -> int:
        return bin(x).count("1")


class _Entry:
    """A single key/value pair stored in the trie."""

    __slots__ = ("key", "value", "khash")

    def __init__(self, key: Any, value: Any, khash: int) -> None:
        self.key = key
        self.value = value
        self.khash = khash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Entry({self.key!r}, {self.value!r})"


class _Collision:
    """A bucket of entries whose 32-bit hashes are identical."""

    __slots__ = ("khash", "entries")

    def __init__(self, khash: int, entries: Tuple[_Entry, ...]) -> None:
        self.khash = khash
        self.entries = entries

    def get(self, key: Any) -> Optional[_Entry]:
        for entry in self.entries:
            if entry.key == key:
                return entry
        return None

    def set(self, key: Any, value: Any) -> "_Collision":
        for index, entry in enumerate(self.entries):
            if entry.key == key:
                new = _Entry(key, value, self.khash)
                return _Collision(
                    self.khash,
                    self.entries[:index] + (new,) + self.entries[index + 1:],
                )
        return _Collision(
            self.khash, self.entries + (_Entry(key, value, self.khash),)
        )

    def remove(self, key: Any):
        for index, entry in enumerate(self.entries):
            if entry.key == key:
                rest = self.entries[:index] + self.entries[index + 1:]
                if len(rest) == 1:
                    return rest[0]
                return _Collision(self.khash, rest)
        return self


class _Bitmap:
    """Interior node: bitmap-compressed array of up to 32 children."""

    __slots__ = ("bitmap", "children")

    def __init__(self, bitmap: int, children: Tuple[Any, ...]) -> None:
        self.bitmap = bitmap
        self.children = children

    def _index(self, bit: int) -> int:
        return _popcount(self.bitmap & (bit - 1))


def _node_get(node: Any, shift: int, khash: int, key: Any) -> Optional[_Entry]:
    while True:
        if isinstance(node, _Entry):
            if node.khash == khash and node.key == key:
                return node
            return None
        if isinstance(node, _Collision):
            if node.khash != khash:
                return None
            return node.get(key)
        # _Bitmap
        bit = 1 << ((khash >> shift) & _MASK)
        if not (node.bitmap & bit):
            return None
        node = node.children[node._index(bit)]
        shift += _SHIFT


def _merge_entries(shift: int, a: Any, b: _Entry) -> Any:
    """Build the smallest subtree containing existing node *a* and entry *b*.

    *a* is an ``_Entry`` or ``_Collision`` whose hash differs from or
    equals *b*'s; both live below the same slot at ``shift``.
    """
    ahash = a.khash
    if ahash == b.khash:
        if isinstance(a, _Collision):
            return a.set(b.key, b.value)
        return _Collision(ahash, (a, b))
    if shift > _MAX_SHIFT:  # pragma: no cover - unreachable with 32-bit hash
        raise AssertionError("hash exhausted without divergence")
    abit = 1 << ((ahash >> shift) & _MASK)
    bbit = 1 << ((b.khash >> shift) & _MASK)
    if abit == bbit:
        child = _merge_entries(shift + _SHIFT, a, b)
        return _Bitmap(abit, (child,))
    if abit < bbit:
        return _Bitmap(abit | bbit, (a, b))
    return _Bitmap(abit | bbit, (b, a))


def _node_set(node: Any, shift: int, entry: _Entry) -> Tuple[Any, bool]:
    """Insert/replace *entry*; return (new node, whether size grew)."""
    if isinstance(node, _Entry):
        if node.khash == entry.khash and node.key == entry.key:
            return entry, False
        return _merge_entries(shift, node, entry), True
    if isinstance(node, _Collision):
        if node.khash == entry.khash:
            new = node.set(entry.key, entry.value)
            return new, len(new.entries) > len(node.entries)
        return _merge_entries(shift, node, entry), True
    # _Bitmap
    bit = 1 << ((entry.khash >> shift) & _MASK)
    index = node._index(bit)
    if node.bitmap & bit:
        child, grew = _node_set(node.children[index], shift + _SHIFT, entry)
        children = (
            node.children[:index] + (child,) + node.children[index + 1:]
        )
        return _Bitmap(node.bitmap, children), grew
    children = node.children[:index] + (entry,) + node.children[index:]
    return _Bitmap(node.bitmap | bit, children), True


def _node_remove(node: Any, shift: int, khash: int, key: Any) -> Tuple[Any, bool]:
    """Remove *key*; return (new node or None if empty, whether removed)."""
    if isinstance(node, _Entry):
        if node.khash == khash and node.key == key:
            return None, True
        return node, False
    if isinstance(node, _Collision):
        if node.khash != khash:
            return node, False
        new = node.remove(key)
        return new, new is not node
    bit = 1 << ((khash >> shift) & _MASK)
    if not (node.bitmap & bit):
        return node, False
    index = node._index(bit)
    child, removed = _node_remove(node.children[index], shift + _SHIFT, khash, key)
    if not removed:
        return node, False
    if child is None:
        bitmap = node.bitmap & ~bit
        if not bitmap:
            return None, True
        children = node.children[:index] + node.children[index + 1:]
        if len(children) == 1 and not isinstance(children[0], _Bitmap):
            # Collapse a single leaf upward to keep the trie canonical.
            return children[0], True
        return _Bitmap(bitmap, children), True
    children = node.children[:index] + (child,) + node.children[index + 1:]
    if len(children) == 1 and not isinstance(child, _Bitmap):
        return child, True
    return _Bitmap(node.bitmap, children), True


def _node_iter(node: Any) -> Iterator[_Entry]:
    if node is None:
        return
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, _Entry):
            yield current
        elif isinstance(current, _Collision):
            for entry in current.entries:
                yield entry
        else:
            stack.extend(reversed(current.children))


class Hamt:
    """An immutable hash map with structural sharing.

    All "modification" methods return a new :class:`Hamt`; the receiver is
    never changed.  Equality is value equality over the key/value pairs.
    """

    __slots__ = ("_root", "_size")

    def __init__(self, _root: Any = None, _size: int = 0) -> None:
        self._root = _root
        self._size = _size

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: Any) -> bool:
        if self._root is None:
            return False
        return _node_get(self._root, 0, _hash(key), key) is not None

    def get(self, key: Any, default: Any = None) -> Any:
        if self._root is None:
            return default
        entry = _node_get(self._root, 0, _hash(key), key)
        if entry is None:
            return default
        return entry.value

    def __getitem__(self, key: Any) -> Any:
        if self._root is not None:
            entry = _node_get(self._root, 0, _hash(key), key)
            if entry is not None:
                return entry.value
        raise KeyError(key)

    def items(self) -> Iterator[Tuple[Any, Any]]:
        for entry in _node_iter(self._root):
            yield entry.key, entry.value

    def keys(self) -> Iterator[Any]:
        for entry in _node_iter(self._root):
            yield entry.key

    def values(self) -> Iterator[Any]:
        for entry in _node_iter(self._root):
            yield entry.value

    def __iter__(self) -> Iterator[Any]:
        return self.keys()

    # -- updates (persistent) --------------------------------------------

    def set(self, key: Any, value: Any) -> "Hamt":
        entry = _Entry(key, value, _hash(key))
        if self._root is None:
            return Hamt(entry, 1)
        root, grew = _node_set(self._root, 0, entry)
        return Hamt(root, self._size + 1 if grew else self._size)

    def remove(self, key: Any) -> "Hamt":
        if self._root is None:
            return self
        root, removed = _node_remove(self._root, 0, _hash(key), key)
        if not removed:
            return self
        return Hamt(root, self._size - 1)

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hamt):
            return NotImplemented
        if self._size != other._size:
            return False
        sentinel = object()
        for key, value in self.items():
            if other.get(key, sentinel) != value:
                return False
        return True

    def __hash__(self) -> int:
        return hash(frozenset((k, v) for k, v in self.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in self.items())
        return f"Hamt({{{inner}}})"


EMPTY_HAMT = Hamt()


def hamt_from(pairs) -> Hamt:
    """Build a :class:`Hamt` from an iterable of ``(key, value)`` pairs."""
    result = EMPTY_HAMT
    for key, value in pairs:
        result = result.set(key, value)
    return result
