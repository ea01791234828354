"""Compiled-plan cache: skip the analysis for specs seen before.

Compiling a specification spends most of its time in the static
analysis (usage-graph formulas, the triggering approximation, the
NP-complete order search).  The *outputs* of that work — the
translation order and the per-stream backend choices — are tiny and
fully determine the generated monitor.  This module persists them on
disk, keyed by a fingerprint of the flat specification **and** every
compile option that influences the result, so repeated CLI/server
invocations of an unchanged spec skip parsing-adjacent work and the
whole analysis.

Design points:

* **Options live in the key.**  Two compilations that differ in
  backend override, ``alias_guard``, ``error_policy``, ``optimize`` or
  engine must never share a cached plan (nor a checkpoint — the same
  fingerprint guards :class:`~repro.compiler.checkpoint.CheckpointManager`
  files via :attr:`~repro.compiler.pipeline.CompiledSpec.fingerprint`).
* **Corruption-tolerant.**  A torn, truncated or hand-edited cache
  file is treated as a miss, never an error; writes are atomic
  (``os.replace``), so concurrent compilers can share a directory.
* **Self-validating.**  Entries embed the format version and their own
  key; a file renamed onto the wrong key is ignored.

Cache hits are observable: :attr:`CompiledSpec.plan_cache_hit` and the
``plan_cache_hit`` field of :class:`~repro.compiler.runtime.RunReport`.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ErrorPolicy
from ..obs.metrics import DEFAULT_REGISTRY
from ..structures import Backend

#: Bump when the entry layout (or plan semantics) change; old entries
#: are then silently treated as misses.
PLAN_CACHE_VERSION = 2

PLAN_SUFFIX = ".plan"

#: Marshal'd code objects are only portable within one interpreter
#: build (exactly the ``.pyc`` rule); entries record this tag and the
#: code payload is ignored — plan-only hit — when it does not match.
CODE_MAGIC = importlib.util.MAGIC_NUMBER.hex()


def flat_fingerprint(flat: Any) -> str:
    """A content hash of a flat specification.

    Unlike :func:`~repro.compiler.checkpoint.spec_fingerprint` (which
    predates this module and only hashes stream *names*), this digest
    covers the defining expressions and declared types, so two specs
    that merely share their stream names do not collide.
    """
    parts = (
        "flat-v1",
        tuple(sorted((name, str(ty)) for name, ty in flat.inputs.items())),
        tuple(
            sorted(
                (name, str(expr)) for name, expr in flat.definitions.items()
            )
        ),
        tuple(flat.outputs),
        tuple(sorted((name, str(ty)) for name, ty in flat.types.items())),
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _ruleset_version() -> int:
    """The rewrite-rule catalogue version (lazy import: no cycle)."""
    from ..opt import RULESET_VERSION

    return RULESET_VERSION


def _numpy_bit(engine: str) -> Optional[bool]:
    """Numpy availability, keyed only for numpy-sensitive engines.

    ``None`` for engines whose compiled artifact cannot depend on
    numpy, so their keys are unchanged by numpy installs/removals.
    """
    if engine not in ("vector", "auto"):
        return None
    # Probed through the vector engine, which imports numpy itself and
    # which every cold "auto" compile loads anyway.  Loading numpy first
    # would put the transient memory of compiling the engine's large
    # source on top of numpy's (about 4 MB more peak RSS on a cold
    # compile where bytecode is not cached).
    from .vector import kernels

    return kernels.numpy_available()


def plan_fingerprint(
    flat: Any,
    *,
    optimize: bool = True,
    backend_override: Optional[Backend] = None,
    alias_guard: bool = False,
    error_policy: Optional[ErrorPolicy] = None,
    engine: str = "codegen",
    rewrite: bool = False,
) -> str:
    """The cache key: spec content + every result-shaping option.

    Also used as the checkpoint fingerprint of compiled specs, so a
    monitor compiled with (say) ``alias_guard=True`` can never resume
    from a checkpoint written by its unguarded twin.

    The rewrite-optimizer flag and its rule-set version are part of the
    options tuple: toggling ``rewrite`` (or changing what the rules do)
    can never serve a plan cached under the other configuration.

    For the vector engine (and ``auto``, which resolves depending on
    numpy's presence) the numpy-availability bit is part of the key: a
    warm cache shared across environments must never replay a
    vector-engine plan into a numpy-less process.
    """
    options = (
        "opts-v4",
        bool(optimize),
        backend_override.name if backend_override is not None else None,
        bool(alias_guard),
        error_policy.value if error_policy is not None else None,
        engine,
        bool(rewrite),
        _ruleset_version() if rewrite else 0,
        _numpy_bit(engine),
    )
    digest = hashlib.sha256()
    digest.update(flat_fingerprint(flat).encode())
    digest.update(repr(options).encode())
    return digest.hexdigest()


def text_fingerprint(
    text: str,
    *,
    optimize: bool = True,
    backend_override: Optional[Backend] = None,
    alias_guard: bool = False,
    error_policy: Optional[ErrorPolicy] = None,
    engine: str = "codegen",
    rewrite: bool = False,
) -> str:
    """Cache key for raw specification text: hash of the text itself.

    Keying on the unparsed text lets a warm compilation skip the
    frontend entirely — no lexing, parsing, flattening or type
    inference — which is the bulk of a repeated CLI/server
    invocation's startup cost.  ``rewrite`` (plus the rewrite rule-set
    version) is part of this key — unlike :func:`plan_fingerprint`,
    where the rewrite runs before the flat spec is hashed and is
    therefore covered by content, the raw text here is identical whether
    or not the optimizer runs, so omitting the flag would serve a stale
    plan across a toggle.
    """
    options = (
        "text-opts-v5",
        bool(optimize),
        backend_override.name if backend_override is not None else None,
        bool(alias_guard),
        error_policy.value if error_policy is not None else None,
        engine,
        bool(rewrite),
        _ruleset_version() if rewrite else 0,
        _numpy_bit(engine),
    )
    digest = hashlib.sha256()
    digest.update(b"text-v1\n")
    digest.update(text.encode())
    digest.update(repr(options).encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class CachedPlan:
    """The analysis outputs a compilation can be replayed from.

    ``source``/``code`` optionally carry the generated monitor module
    (source text and its marshal'd code object) for the codegen
    engine, so a warm hit also skips source assembly and
    ``builtins.compile``; ``layout`` carries the class tables the
    module is assembled with (see
    :func:`~repro.compiler.codegen.assemble_class`).
    """

    order: Tuple[str, ...]
    backends: Dict[str, Backend]
    optimized: bool
    mutable: frozenset
    source: Optional[str] = None
    code: Optional[bytes] = None
    layout: Optional[Dict[str, Any]] = None
    #: stream → lift recipe (see :func:`~repro.compiler.codegen.lift_recipe`);
    #: lets a text-keyed hit rebuild the generated module's namespace
    #: without the flat spec.  ``None`` when some lift has no recipe
    #: (then the entry is only usable through the flat-keyed path).
    lifts: Optional[Dict[str, Any]] = None
    #: The flat-keyed fingerprint of the same compilation, so monitors
    #: produced by a text-keyed hit share checkpoint identity with
    #: their cold-compiled twins.
    plan_key: Optional[str] = None
    #: The engine the compilation resolved to (never ``"auto"``).
    engine: Optional[str] = None


def _valid_recipe(lifts: Any) -> bool:
    return isinstance(lifts, dict) and all(
        isinstance(stream, str)
        and (
            isinstance(recipe, str)
            or (isinstance(recipe, list) and len(recipe) == 3)
        )
        for stream, recipe in lifts.items()
    )


class PlanCache:
    """A directory of compiled-plan entries, shared and crash-safe.

    An entry is one file: a line of compact JSON (the plan, its key and
    any alias key, and the byte lengths of the code payload), a
    newline, then the payload — the generated source as UTF-8 followed
    by the raw marshal'd code object.  It is written with a single
    ``write`` and published with ``os.replace``.  An entry stored with
    an *alias* key (the text-keyed twin of a flat-keyed compilation) is
    hard-linked under that key too, so the second key costs no second
    write.
    """

    def __init__(self, directory: str) -> None:
        # The directory is created by the first store: a lookup in a
        # missing directory is just a miss.
        self.directory = os.path.expanduser(directory)
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> str:
        return os.path.join(self.directory, key[:40] + PLAN_SUFFIX)

    def _miss(self) -> None:
        self.misses += 1
        DEFAULT_REGISTRY.inc("plan_cache.misses")

    def _hit(self) -> None:
        self.hits += 1
        DEFAULT_REGISTRY.inc("plan_cache.hits")

    def load(self, key: str) -> Optional[CachedPlan]:
        """The cached plan for *key*, or ``None`` (miss/corrupt/stale)."""
        try:
            with open(self.path_for(key), "rb") as handle:
                data = handle.read()
            head, _, payload = data.partition(b"\n")
            entry = json.loads(head)
        except (OSError, ValueError):
            self._miss()
            return None
        try:
            if entry["version"] != PLAN_CACHE_VERSION or key not in (
                entry["key"],
                entry.get("alias"),
            ):
                self._miss()
                return None
            source = code = layout = None
            source_len = entry.get("source_len")
            code_len = entry.get("code_len")
            if (
                entry.get("magic") == CODE_MAGIC
                and isinstance(source_len, int)
                and isinstance(code_len, int)
                and code_len > 0
                and len(payload) == source_len + code_len
                and isinstance(entry.get("layout"), dict)
            ):
                try:
                    source = payload[:source_len].decode("utf-8")
                    code = payload[source_len:]
                    layout = entry["layout"]
                except UnicodeDecodeError:
                    # Corrupt code payload: still a valid plan-only hit.
                    source = code = layout = None
            lifts = entry.get("lifts")
            if lifts is not None and not _valid_recipe(lifts):
                lifts = None
            plan = CachedPlan(
                order=tuple(entry["order"]),
                backends={
                    name: Backend[value]
                    for name, value in entry["backends"].items()
                },
                optimized=bool(entry["optimized"]),
                mutable=frozenset(entry["mutable"]),
                source=source,
                code=code,
                layout=layout,
                lifts=lifts,
                plan_key=entry.get("plan_key") or None,
                engine=entry.get("engine") or None,
            )
        except (KeyError, TypeError, AttributeError):
            self._miss()
            return None
        self._hit()
        return plan

    def store(
        self, key: str, plan: CachedPlan, alias: Optional[str] = None
    ) -> str:
        """Atomically persist *plan* under *key* (and *alias*, when
        given); returns the path of the *key* entry."""
        entry: Dict[str, Any] = {
            "version": PLAN_CACHE_VERSION,
            "key": key,
            "order": list(plan.order),
            "backends": {
                name: backend.name for name, backend in plan.backends.items()
            },
            "optimized": plan.optimized,
            "mutable": sorted(plan.mutable),
        }
        payload = b""
        if plan.code is not None and plan.source is not None:
            source = plan.source.encode("utf-8")
            payload = source + plan.code
            entry["magic"] = CODE_MAGIC
            entry["layout"] = plan.layout
            entry["source_len"] = len(source)
            entry["code_len"] = len(plan.code)
        if plan.lifts is not None:
            entry["lifts"] = plan.lifts
        if plan.plan_key is not None:
            entry["plan_key"] = plan.plan_key
        if plan.engine is not None:
            entry["engine"] = plan.engine
        if alias is not None:
            entry["alias"] = alias
        data = json.dumps(entry, separators=(",", ":")).encode() + b"\n"
        path = self.path_for(key)
        tmp_path = f"{path}.tmp.{os.getpid()}"
        try:
            handle = open(tmp_path, "wb")
        except FileNotFoundError:
            os.makedirs(self.directory, exist_ok=True)
            handle = open(tmp_path, "wb")
        with handle:
            handle.write(data + payload)
        if alias is not None:
            self._publish_alias(tmp_path, self.path_for(alias), data + payload)
        os.replace(tmp_path, path)
        return path

    @staticmethod
    def _publish_alias(source: str, path: str, data: bytes) -> None:
        """Make *path* another name of the entry file *source*: a hard
        link (atomic, no second write), replacing any older entry there;
        a copy where the filesystem has no hard links."""
        try:
            os.link(source, path)
            return
        except OSError:
            pass  # an older entry is in the way, or no hard links here
        tmp_path = f"{path}.tmp.{os.getpid()}"
        try:
            os.link(source, tmp_path)
        except OSError:
            with open(tmp_path, "wb") as handle:
                handle.write(data)
        os.replace(tmp_path, path)

    def entries(self) -> List[str]:
        """Paths of all entries currently in the cache directory."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(
            os.path.join(self.directory, name)
            for name in names
            if name.endswith(PLAN_SUFFIX)
        )

    def clear(self) -> int:
        """Remove every entry; returns how many were deleted."""
        removed = 0
        for path in self.entries():
            try:
                os.remove(path)
                removed += 1
            except OSError:
                pass
        return removed
