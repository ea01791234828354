"""Durable monitor checkpoints: versioned, checksummed, portable.

:meth:`MonitorBase.snapshot` captures monitor state in memory; this
module persists such snapshots to disk so a crashed monitor process can
be resumed from its last checkpoint and provably reproduce the
uninterrupted run's outputs (see :class:`repro.compiler.runtime.MonitorRunner`).

Design points:

* **Portable encoding** — aggregate values are deep-frozen into tagged
  plain-Python trees (kind + backend family + contents) rather than
  pickling live collection objects.  Restoring re-builds fresh
  structures through the public factories, so a checkpoint written by a
  guarded (sanitizer) run restores cleanly, and internal representation
  changes (e.g. HAMT layout) never invalidate old checkpoints.
* **Corruption detection** — the payload carries a SHA-256 checksum
  under a versioned magic header; a torn or bit-flipped file fails
  :func:`read_checkpoint` with :class:`CheckpointError` instead of
  resurrecting garbage state, and recovery falls back to the previous
  valid checkpoint.
* **Atomicity** — files are written to a temporary name and
  ``os.replace``-d into place, so a crash *during* checkpointing never
  leaves a half-written "latest" checkpoint.

The checkpoint meta block records the number of input events consumed
and output events emitted at snapshot time plus a specification
fingerprint, which is exactly what a resuming driver needs to skip
replayed input and truncate duplicated output.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..errors import ErrorValue
from ..structures import (
    CopyMap,
    CopyQueue,
    CopySet,
    CopyVector,
    GuardedMap,
    GuardedQueue,
    GuardedSet,
    GuardedVector,
    MutableMap,
    MutableQueue,
    MutableSet,
    MutableVector,
    PersistentMap,
    PersistentQueue,
    PersistentSet,
    PersistentVector,
    persistent_map,
    persistent_queue,
    persistent_set,
    persistent_vector,
)
from ..structures.interface import MapBase, QueueBase, SetBase, VectorBase

MAGIC = b"RPROCKPT"
VERSION = 1
CHECKPOINT_SUFFIX = ".rckpt"


class CheckpointError(Exception):
    """Raised when a checkpoint file is missing, corrupt or mismatched."""


# -- portable value encoding -------------------------------------------------

_FAMILIES = (
    ("persistent", (PersistentSet, PersistentMap, PersistentQueue, PersistentVector)),
    ("mutable", (MutableSet, MutableMap, MutableQueue, MutableVector)),
    ("copying", (CopySet, CopyMap, CopyQueue, CopyVector)),
    ("guarded", (GuardedSet, GuardedMap, GuardedQueue, GuardedVector)),
)

_DECODERS: Dict[Tuple[str, str], Any] = {
    ("set", "persistent"): persistent_set,
    ("set", "mutable"): MutableSet,
    ("set", "copying"): CopySet,
    ("set", "guarded"): GuardedSet,
    ("map", "persistent"): persistent_map,
    ("map", "mutable"): MutableMap,
    ("map", "copying"): CopyMap,
    ("map", "guarded"): GuardedMap,
    ("queue", "persistent"): persistent_queue,
    ("queue", "mutable"): MutableQueue,
    ("queue", "copying"): CopyQueue,
    ("queue", "guarded"): GuardedQueue,
    ("vector", "persistent"): persistent_vector,
    ("vector", "mutable"): MutableVector,
    ("vector", "copying"): CopyVector,
    ("vector", "guarded"): GuardedVector,
    ("set", "bare"): set,
    ("queue", "bare"): deque,
}


def _family_of(value: Any) -> str:
    for family, classes in _FAMILIES:
        if isinstance(value, classes):
            return family
    raise CheckpointError(
        f"cannot checkpoint aggregate of type {type(value).__name__}"
    )


def encode_value(value: Any) -> Any:
    """Deep-freeze one stream value into a portable tagged tree."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, ErrorValue):
        return ("error", value.message, value.origin, value.ts)
    if isinstance(value, tuple):
        return ("tuple", [encode_value(v) for v in value])
    if isinstance(value, list):
        return ("list", [encode_value(v) for v in value])
    if isinstance(value, dict):
        return ("dict", [(k, encode_value(v)) for k, v in value.items()])
    if isinstance(value, set):
        return ("set", "bare", [encode_value(v) for v in value])
    if isinstance(value, deque):
        return ("queue", "bare", [encode_value(v) for v in value])
    if isinstance(value, SetBase):
        return ("set", _family_of(value), [encode_value(v) for v in value])
    if isinstance(value, MapBase):
        return (
            "map",
            _family_of(value),
            [(encode_value(k), encode_value(v)) for k, v in value.items()],
        )
    if isinstance(value, QueueBase):
        return ("queue", _family_of(value), [encode_value(v) for v in value])
    if isinstance(value, VectorBase):
        return ("vector", _family_of(value), [encode_value(v) for v in value])
    raise CheckpointError(
        f"cannot checkpoint value of type {type(value).__name__}"
    )


def decode_value(encoded: Any) -> Any:
    """Rebuild a stream value from its portable tagged tree."""
    if not isinstance(encoded, tuple):
        return encoded
    tag = encoded[0]
    if tag == "error":
        return ErrorValue(encoded[1], origin=encoded[2], ts=encoded[3])
    if tag == "tuple":
        return tuple(decode_value(v) for v in encoded[1])
    if tag == "list":
        return [decode_value(v) for v in encoded[1]]
    if tag == "dict":
        return {k: decode_value(v) for k, v in encoded[1]}
    if tag == "map":
        pairs = [(decode_value(k), decode_value(v)) for k, v in encoded[2]]
        return _DECODERS[("map", encoded[1])](pairs)
    if tag in ("set", "queue", "vector"):
        items = [decode_value(v) for v in encoded[2]]
        return _DECODERS[(tag, encoded[1])](items)
    raise CheckpointError(f"unknown checkpoint value tag {tag!r}")


def encode_state(state: Dict[str, Any]) -> Dict[str, Any]:
    """Encode a :meth:`MonitorBase.snapshot` dictionary."""
    return {key: encode_value(value) for key, value in state.items()}


def decode_state(encoded: Dict[str, Any]) -> Dict[str, Any]:
    """Decode back into a dictionary accepted by :meth:`restore`."""
    return {key: decode_value(value) for key, value in encoded.items()}


# -- file format -------------------------------------------------------------


def write_checkpoint(
    path: str, state: Dict[str, Any], meta: Optional[Dict[str, Any]] = None
) -> str:
    """Atomically persist *state* (+ *meta*) to *path*; returns *path*."""
    payload = pickle.dumps(
        {"state": encode_state(state), "meta": dict(meta or {})},
        protocol=4,
    )
    digest = hashlib.sha256(payload).digest()
    blob = MAGIC + bytes([VERSION]) + digest + payload
    tmp_path = f"{path}.tmp.{os.getpid()}"
    with open(tmp_path, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    return path


def read_checkpoint(path: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Load and validate a checkpoint; returns ``(state, meta)``.

    Raises :class:`CheckpointError` on any corruption: bad magic,
    unsupported version, checksum mismatch, or undecodable payload.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    header_len = len(MAGIC) + 1 + 32
    if len(blob) < header_len or not blob.startswith(MAGIC):
        raise CheckpointError(f"{path}: not a checkpoint file")
    version = blob[len(MAGIC)]
    if version != VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version}"
        )
    digest = blob[len(MAGIC) + 1 : header_len]
    payload = blob[header_len:]
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointError(f"{path}: checksum mismatch (corrupt file)")
    try:
        document = pickle.loads(payload)
        state = decode_state(document["state"])
        meta = document["meta"]
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"{path}: undecodable payload: {exc}") from None
    return state, meta


# -- checkpoint directories --------------------------------------------------


def checkpoint_path(directory: str, events_consumed: int) -> str:
    return os.path.join(
        directory, f"ckpt-{events_consumed:012d}{CHECKPOINT_SUFFIX}"
    )


def list_checkpoints(directory: str) -> List[str]:
    """All checkpoint files in *directory*, newest (most events) first."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    found = sorted(
        (name for name in names if name.endswith(CHECKPOINT_SUFFIX)),
        reverse=True,
    )
    return [os.path.join(directory, name) for name in found]


def latest_checkpoint(
    directory: str, fingerprint: Optional[str] = None
) -> Optional[Tuple[str, Dict[str, Any], Dict[str, Any]]]:
    """The newest *valid* checkpoint, or ``None``.

    Corrupt files (torn writes, bit flips) are skipped, falling back to
    the next-newest; when *fingerprint* is given, checkpoints written
    for a different specification are skipped too.
    """
    for path in list_checkpoints(directory):
        try:
            state, meta = read_checkpoint(path)
        except CheckpointError:
            continue
        if fingerprint is not None and meta.get("fingerprint") not in (
            None,
            fingerprint,
        ):
            continue
        return path, state, meta
    return None


def spec_fingerprint(flat: Any) -> str:
    """A stable identity for a flat spec (guards cross-spec resumes)."""
    parts = (
        tuple(sorted(flat.inputs)),
        tuple(sorted(flat.streams)),
        tuple(flat.outputs),
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


class CheckpointManager:
    """Writes periodic checkpoints into a directory and prunes old ones."""

    def __init__(
        self,
        directory: str,
        every: int = 1000,
        keep: int = 3,
        fingerprint: Optional[str] = None,
    ) -> None:
        if every <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.directory = directory
        self.every = every
        self.keep = max(1, keep)
        self.fingerprint = fingerprint
        os.makedirs(directory, exist_ok=True)

    def write(
        self,
        monitor: Any,
        events_consumed: int,
        outputs_emitted: int,
        extra_meta: Optional[Dict[str, Any]] = None,
    ) -> str:
        meta = {
            "events_consumed": events_consumed,
            "outputs_emitted": outputs_emitted,
            "fingerprint": self.fingerprint,
        }
        if extra_meta:
            meta.update(extra_meta)
        path = write_checkpoint(
            checkpoint_path(self.directory, events_consumed),
            monitor.snapshot(),
            meta,
        )
        self._prune()
        return path

    def due(self, events_consumed: int) -> bool:
        """True when *events_consumed* hits the configured cadence."""
        return events_consumed % self.every == 0

    def due_since(self, previous: int, events_consumed: int) -> bool:
        """True when a cadence boundary was crossed since *previous*.

        The batch hot path consumes many events per call, so the exact
        multiples :meth:`due` looks for can be jumped over; this checks
        whether *any* boundary lies in ``(previous, events_consumed]``.
        """
        return events_consumed // self.every > previous // self.every

    def maybe_write(
        self, monitor: Any, events_consumed: int, outputs_emitted: int
    ) -> Optional[str]:
        """Write iff *events_consumed* hits the configured cadence."""
        if self.due(events_consumed):
            return self.write(monitor, events_consumed, outputs_emitted)
        return None

    def latest(self) -> Optional[Tuple[str, Dict[str, Any], Dict[str, Any]]]:
        return latest_checkpoint(self.directory, self.fingerprint)

    def _prune(self) -> None:
        for path in list_checkpoints(self.directory)[self.keep :]:
            try:
                os.remove(path)
            except OSError:
                pass
