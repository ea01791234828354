"""Local semantics-preserving rewrite rules over flat specifications.

Each rule is a small class with an applicability check
(:meth:`RewriteRule.candidates`) and a provenance record: every
proposed rewrite is a :class:`Candidate` naming the streams involved,
the substitution it performs and a JSON-safe detail payload; applied
(or rejected) candidates become :class:`RewriteRecord` entries and
``OPT00x`` diagnostics (see :mod:`repro.analysis.diagnostics`).

The rules (fixpoint-applied by :mod:`repro.opt.engine`):

``OPT001`` **duplicate-stream elimination** — hash-consed CSE.  Two
    defined streams with structurally identical defining equations
    carry identical event streams; all uses of the duplicates are
    redirected to one representative.  Signatures are interned through
    :class:`repro.analysis.formula.Atom`, so equality is object
    identity and repeated fixpoint iterations share the table.
    Aggregate *constructors* are never merged (sharing one construction
    site would alias object lineages, exactly what
    :func:`repro.lang.flatten._constructs_aggregate` protects against),
    and output streams are never removed.

``OPT002`` **identity-lift elimination** — ``merge(x, x)`` and
    ``merge`` with a provably empty (``nil``-defined) operand are
    identities; uses are redirected to the surviving operand.

``OPT003`` **lift-of-lift fusion** — a strict scalar lift feeding a
    single use inside another strict scalar lift is fused into one
    :class:`FusedFunction` equation (ALL∘ALL composition preserves the
    event clock), removing the intermediate stream.

``OPT004`` **constant-clock folding** — a lift whose arguments are all
    constants on the *same* unit clock fires exactly when that clock
    does, with a constant value: fold it to a single constant stream,
    evaluated at rewrite time.

``OPT005`` **dead-stream elimination** — streams no output
    (transitively) depends on are dropped, using the liveness of
    :func:`repro.lang.prune.live_streams`; :func:`project_live` is the
    projection itself.

``OPT006`` **never-firing normalization** — the ``last``/``delay``
    normalization family: a stream the sound may-fire analysis proves
    to never produce an event (a ``last`` whose trigger is empty, a
    ``delay`` over an empty delay operand, a strict lift over an empty
    argument, ...) is replaced by ``nil``, which unlocks OPT002/OPT005
    upstream.

``OPT008`` **write-then-read fusion** — a Write lift ``w := W(a, xs…)``
    that is not an output and whose every use is the aggregate argument
    of a Read lift ``r(w, ys…)`` listed in
    :data:`repro.lang.builtins.FUSIONS` is dropped; each reader becomes
    the registered fused builtin ``r_after_w(a, xs…, ys…)``.  The copy
    the write forced is never observed as an aggregate, so the §IV
    analysis can then certify the family.  Not a fixpoint rule:
    :func:`fuse_write_reads` applies it in one linear pass, which the
    optimizing compile runs after the rewrite (if any), so the
    persistent and copying baselines never fuse.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..analysis.formula import Atom
from ..lang.ast import Delay, Expr, Last, Lift, Nil, TimeExpr, UnitExpr, Var, free_vars
from ..lang.builtins import (
    FUSIONS,
    REGISTRY,
    Access,
    EventPattern,
    LiftedFunction,
    const_fn,
)
from ..lang.flatten import _constructs_aggregate
from ..lang.lint import may_fire_streams
from ..lang.prune import live_streams
from ..lang.spec import FlatSpec
from ..structures import Backend

__all__ = [
    "ALL_RULES",
    "Candidate",
    "FusedFunction",
    "RewriteRecord",
    "RewriteRule",
    "fuse_write_reads",
    "project_live",
]


# ---------------------------------------------------------------------------
# Provenance records
# ---------------------------------------------------------------------------


@dataclass
class RewriteRecord:
    """Provenance of one rewrite: what was proposed, and what happened.

    Every applied rewrite carries one of these; rejected candidates
    (the mutable-share certification vetoed them) are recorded too,
    with ``applied=False`` and a human-readable ``reason``.
    """

    code: str  # OPT00x
    rule: str  # slug, e.g. "duplicate-stream"
    stream: str  # primary affected stream
    description: str
    applied: bool
    detail: Dict[str, Any] = field(default_factory=dict)
    removed: Tuple[str, ...] = ()
    renamed: Dict[str, str] = field(default_factory=dict)
    #: certified mutable-variable counts around this rewrite (``None``
    #: when certification was off — no aggregate streams in the spec).
    mutable_before: Optional[int] = None
    mutable_after: Optional[int] = None
    reason: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "rule": self.rule,
            "stream": self.stream,
            "description": self.description,
            "applied": self.applied,
            "detail": self.detail,
            "removed": list(self.removed),
            "renamed": dict(self.renamed),
            "mutable_before": self.mutable_before,
            "mutable_after": self.mutable_after,
            "reason": self.reason,
        }


@dataclass
class Candidate:
    """One applicable rewrite, not yet applied."""

    rule: "RewriteRule"
    key: Tuple
    stream: str
    description: str
    renamed: Dict[str, str]
    removed: Tuple[str, ...]
    detail: Dict[str, Any]
    _apply: Callable[[FlatSpec], FlatSpec]

    def apply(self, flat: FlatSpec) -> FlatSpec:
        return self._apply(flat)


# ---------------------------------------------------------------------------
# Flat-spec surgery helpers
# ---------------------------------------------------------------------------


def _substitute(expr: Expr, rename: Dict[str, str]) -> Expr:
    """Rename stream references in one flat equation."""

    def sub(var: Expr) -> Var:
        assert isinstance(var, Var)
        return Var(rename.get(var.name, var.name))

    if isinstance(expr, TimeExpr):
        return TimeExpr(sub(expr.operand))
    if isinstance(expr, Lift):
        return Lift(expr.func, tuple(sub(a) for a in expr.args))
    if isinstance(expr, Last):
        return Last(sub(expr.value), sub(expr.trigger))
    if isinstance(expr, Delay):
        return Delay(sub(expr.delay), sub(expr.reset))
    return expr  # Nil / UnitExpr have no stream references


def _rebuild(
    flat: FlatSpec,
    definitions: Dict[str, Expr],
    rename: Optional[Dict[str, str]] = None,
    extra_types: Optional[Dict[str, Any]] = None,
) -> FlatSpec:
    """A new :class:`FlatSpec` from *definitions*, carrying types over.

    *rename* is applied to every remaining equation's references;
    streams absent from *definitions* are dropped from the synthetic
    set, the annotations and the carried types.
    """
    rename = rename or {}
    defs = {
        name: _substitute(expr, rename) for name, expr in definitions.items()
    }
    keep = set(defs)
    rebuilt = FlatSpec(
        flat.inputs,
        defs,
        flat.outputs,
        synthetic=[n for n in flat.synthetic if n in keep],
        type_annotations={
            n: a for n, a in flat.type_annotations.items() if n in keep
        },
    )
    if flat.types:
        rebuilt.types = {
            n: t
            for n, t in flat.types.items()
            if n in keep or n in flat.inputs
        }
        if extra_types:
            rebuilt.types.update(extra_types)
    rebuilt.window_info = getattr(flat, "window_info", None)
    return rebuilt


def project_live(flat: FlatSpec) -> FlatSpec:
    """Restrict *flat* to output-reachable streams (same object when
    nothing is dead).

    The optimizer's OPT005 rule delegates here.  Input streams stay in
    the interface even when dead.
    """
    live = live_streams(flat)
    definitions = {
        name: expr
        for name, expr in flat.definitions.items()
        if name in live
    }
    if len(definitions) == len(flat.definitions):
        return flat
    return _rebuild(flat, definitions)


def _use_counts(flat: FlatSpec) -> Counter:
    counts: Counter = Counter()
    for expr in flat.definitions.values():
        counts.update(free_vars(expr))
    counts.update(flat.outputs)
    return counts


def _is_const_lift(expr: Expr) -> bool:
    return (
        isinstance(expr, Lift)
        and expr.func.name.startswith("const(")
        and len(expr.args) == 1
    )


def _const_value(expr: Lift) -> Any:
    """Evaluate a ``const(...)`` lift's value (the impl ignores its
    argument and the backend)."""
    return expr.func.bind(Backend.PERSISTENT)(())


# ---------------------------------------------------------------------------
# Fused lifted functions (OPT003)
# ---------------------------------------------------------------------------


def _fused_impl(outer_impl, inner_impl, index: int, inner_arity: int):
    def fused(*args):
        inner_value = inner_impl(*args[index : index + inner_arity])
        return outer_impl(
            *args[:index], inner_value, *args[index + inner_arity :]
        )

    return fused


class FusedFunction(LiftedFunction):
    """The composition of two strict scalar lifts in one equation.

    ``outer`` applied with its *index*-th argument produced by
    ``inner``; the fused lift's arguments are the outer arguments with
    the fused slot spliced out and the inner arguments spliced in.
    Monomorphic (types are taken from the concrete streams at fusion
    time) so type checking needs no fresh variables.  Not a registry
    builtin — the printer unfolds it back into nested applications, and
    the text-keyed plan-cache recipe path skips specs containing one.
    """

    __slots__ = ("outer", "inner", "index")

    def __init__(
        self,
        outer: LiftedFunction,
        inner: LiftedFunction,
        index: int,
        arg_types,
        result_type,
    ) -> None:
        def make_impl(backend, _o=outer, _i=inner, _x=index):
            return _fused_impl(
                _o.bind(backend), _i.bind(backend), _x, _i.arity
            )

        super().__init__(
            f"fused[{outer.name}@{index}<-{inner.name}]",
            EventPattern.ALL,
            tuple(Access.NONE for _ in arg_types),
            tuple(arg_types),
            result_type,
            make_impl,
        )
        self.outer = outer
        self.inner = inner
        self.index = index


def unfold_fused(expr: Expr) -> Expr:
    """Rewrite fused lifts back into nested plain applications.

    Used by the printer to re-emit rewritten specifications in the
    concrete syntax (fused functions have no surface form).
    """
    if not isinstance(expr, Lift):
        return expr
    args = tuple(unfold_fused(a) for a in expr.args)
    func = expr.func
    if isinstance(func, FusedFunction):
        inner_args = args[func.index : func.index + func.inner.arity]
        nested = (
            args[: func.index]
            + (Lift(func.inner, inner_args),)
            + args[func.index + func.inner.arity :]
        )
        return unfold_fused(Lift(func.outer, nested))
    return Lift(func, args)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


class RewriteRule:
    """Base class: an applicability check producing candidates."""

    code: str = "OPT000"
    name: str = "abstract"

    def candidates(self, flat: FlatSpec) -> List[Candidate]:
        raise NotImplementedError


def _signature(expr: Expr) -> Atom:
    """The hash-consed signature of one flat equation.

    Flat equations only reference streams by name, so their ``str``
    form is a complete structural description; interning it as a
    formula :class:`Atom` makes signature comparison object identity
    and shares the table across fixpoint iterations and analyses.
    """
    return Atom(f"optsig:{expr}")


class DuplicateStreamRule(RewriteRule):
    """OPT001: merge streams with structurally identical equations."""

    code = "OPT001"
    name = "duplicate-stream"

    def candidates(self, flat: FlatSpec) -> List[Candidate]:
        groups: Dict[Atom, List[str]] = {}
        for name, expr in flat.definitions.items():
            if _constructs_aggregate(expr):
                continue
            groups.setdefault(_signature(expr), []).append(name)
        outputs = set(flat.outputs)
        out: List[Candidate] = []
        for members in groups.values():
            if len(members) < 2:
                continue
            keep = min(
                members,
                key=lambda n: (n not in outputs, n in flat.synthetic, n),
            )
            removable = sorted(
                m for m in members if m != keep and m not in outputs
            )
            if not removable:
                continue
            renamed = {m: keep for m in removable}

            def apply(
                current: FlatSpec,
                _drop=tuple(removable),
                _renamed=dict(renamed),
            ) -> FlatSpec:
                definitions = {
                    n: e
                    for n, e in current.definitions.items()
                    if n not in _drop
                }
                return _rebuild(current, definitions, rename=_renamed)

            out.append(
                Candidate(
                    rule=self,
                    key=(self.code, keep, tuple(removable)),
                    stream=keep,
                    description=(
                        f"streams {removable} duplicate {keep!r}"
                        f" ({flat.definitions[keep]}); uses redirected"
                    ),
                    renamed=renamed,
                    removed=tuple(removable),
                    detail={
                        "representative": keep,
                        "equation": str(flat.definitions[keep]),
                    },
                    _apply=apply,
                )
            )
        out.sort(key=lambda c: c.key)
        return out


class IdentityLiftRule(RewriteRule):
    """OPT002: ``merge(x, x)`` / ``merge`` with an empty operand."""

    code = "OPT002"
    name = "identity-lift"

    def candidates(self, flat: FlatSpec) -> List[Candidate]:
        outputs = set(flat.outputs)
        out: List[Candidate] = []
        for name, expr in sorted(flat.definitions.items()):
            if name in outputs:
                continue
            if not (
                isinstance(expr, Lift)
                and expr.func.name == "merge"
                and len(expr.args) == 2
            ):
                continue
            left, right = expr.args[0].name, expr.args[1].name
            target = None
            why = ""
            if left == right:
                target, why = left, "both operands are the same stream"
            elif isinstance(flat.definitions.get(right), Nil):
                target, why = left, f"right operand {right!r} is nil"
            elif isinstance(flat.definitions.get(left), Nil):
                target, why = right, f"left operand {left!r} is nil"
            if target is None or target == name:
                continue

            def apply(
                current: FlatSpec, _name=name, _target=target
            ) -> FlatSpec:
                definitions = {
                    n: e
                    for n, e in current.definitions.items()
                    if n != _name
                }
                return _rebuild(
                    current, definitions, rename={_name: _target}
                )

            out.append(
                Candidate(
                    rule=self,
                    key=(self.code, name),
                    stream=name,
                    description=(
                        f"merge {name!r} is an identity ({why}); uses"
                        f" redirected to {target!r}"
                    ),
                    renamed={name: target},
                    removed=(name,),
                    detail={"target": target, "why": why},
                    _apply=apply,
                )
            )
        return out


class NeverFiresRule(RewriteRule):
    """OPT006: normalize provably event-free streams to ``nil``."""

    code = "OPT006"
    name = "never-fires-nil"

    def candidates(self, flat: FlatSpec) -> List[Candidate]:
        if not flat.types:
            return []
        may_fire = may_fire_streams(flat)
        out: List[Candidate] = []
        for name, expr in sorted(flat.definitions.items()):
            if name in may_fire or isinstance(expr, Nil):
                continue
            stream_type = flat.types.get(name)
            if stream_type is None:
                continue

            def apply(
                current: FlatSpec, _name=name, _type=stream_type
            ) -> FlatSpec:
                definitions = dict(current.definitions)
                definitions[_name] = Nil(_type)
                return _rebuild(current, definitions)

            out.append(
                Candidate(
                    rule=self,
                    key=(self.code, name),
                    stream=name,
                    description=(
                        f"{name!r} provably never fires; normalized"
                        f" from {expr} to nil[{stream_type}]"
                    ),
                    renamed={},
                    removed=(),
                    detail={"was": str(expr), "type": str(stream_type)},
                    _apply=apply,
                )
            )
        return out


class ConstFoldRule(RewriteRule):
    """OPT004: fold lifts over same-clock constants into one constant."""

    code = "OPT004"
    name = "constant-clock-fold"

    def candidates(self, flat: FlatSpec) -> List[Candidate]:
        if not flat.types:
            return []
        out: List[Candidate] = []
        for name, expr in sorted(flat.definitions.items()):
            if not isinstance(expr, Lift) or not expr.args:
                continue
            func = expr.func
            if func.name.startswith("const("):
                continue
            if func.pattern not in (EventPattern.ALL, EventPattern.ANY):
                continue
            result_type = flat.types.get(name)
            if result_type is None or result_type.is_complex:
                continue
            arg_stream_types = [flat.types.get(a.name) for a in expr.args]
            if any(t is None or t.is_complex for t in arg_stream_types):
                continue
            arg_defs = [flat.definitions.get(a.name) for a in expr.args]
            if not all(d is not None and _is_const_lift(d) for d in arg_defs):
                continue
            clocks = {d.args[0].name for d in arg_defs}  # type: ignore[union-attr]
            if len(clocks) != 1:
                continue
            clock = clocks.pop()
            try:
                values = [_const_value(d) for d in arg_defs]  # type: ignore[arg-type]
                folded = func.bind(Backend.PERSISTENT)(*values)
            except Exception:
                continue
            if folded is None:
                continue

            def apply(
                current: FlatSpec,
                _name=name,
                _value=folded,
                _type=result_type,
                _clock=clock,
            ) -> FlatSpec:
                definitions = dict(current.definitions)
                definitions[_name] = Lift(
                    const_fn(_value, _type), (Var(_clock),)
                )
                return _rebuild(current, definitions)

            out.append(
                Candidate(
                    rule=self,
                    key=(self.code, name),
                    stream=name,
                    description=(
                        f"{func.name}({', '.join(repr(v) for v in values)})"
                        f" over the shared clock {clock!r} folds to"
                        f" constant {folded!r}"
                    ),
                    renamed={},
                    removed=(),
                    detail={
                        "function": func.name,
                        "value": repr(folded),
                        "clock": clock,
                    },
                    _apply=apply,
                )
            )
        return out


class LiftFusionRule(RewriteRule):
    """OPT003: fuse a single-use strict scalar lift into its consumer."""

    code = "OPT003"
    name = "lift-fusion"

    @staticmethod
    def _fusible(func: LiftedFunction) -> bool:
        return (
            func.pattern is EventPattern.ALL
            and not func.name.startswith("const(")
            and all(a is Access.NONE for a in func.access)
            and not func.result_type.is_complex
            and not any(t.is_complex for t in func.arg_types)
        )

    def candidates(self, flat: FlatSpec) -> List[Candidate]:
        if not flat.types:
            return []
        uses = _use_counts(flat)
        outputs = set(flat.outputs)
        out: List[Candidate] = []
        for name, expr in sorted(flat.definitions.items()):
            if not isinstance(expr, Lift) or not self._fusible(expr.func):
                continue
            if flat.types.get(name) is None or flat.types[name].is_complex:
                continue
            for index, arg in enumerate(expr.args):
                inner_name = arg.name
                if inner_name in outputs or uses[inner_name] != 1:
                    continue
                inner = flat.definitions.get(inner_name)
                if (
                    not isinstance(inner, Lift)
                    or not inner.args
                    or not self._fusible(inner.func)
                ):
                    continue
                arg_types = [
                    flat.types.get(a.name)
                    for a in (*expr.args, *inner.args)
                ]
                if any(t is None or t.is_complex for t in arg_types):
                    continue

                def apply(
                    current: FlatSpec,
                    _name=name,
                    _inner_name=inner_name,
                    _index=index,
                ) -> FlatSpec:
                    outer_expr = current.definitions[_name]
                    inner_expr = current.definitions[_inner_name]
                    assert isinstance(outer_expr, Lift)
                    assert isinstance(inner_expr, Lift)
                    new_args = (
                        outer_expr.args[:_index]
                        + inner_expr.args
                        + outer_expr.args[_index + 1 :]
                    )
                    arg_types = tuple(
                        current.types[a.name] for a in new_args
                    )
                    fused = FusedFunction(
                        outer_expr.func,
                        inner_expr.func,
                        _index,
                        arg_types,
                        current.types[_name],
                    )
                    definitions = {
                        n: e
                        for n, e in current.definitions.items()
                        if n != _inner_name
                    }
                    definitions[_name] = Lift(fused, new_args)
                    return _rebuild(current, definitions)

                out.append(
                    Candidate(
                        rule=self,
                        key=(self.code, name, inner_name),
                        stream=name,
                        description=(
                            f"single-use lift {inner_name!r}"
                            f" ({inner.func.name}) fused into argument"
                            f" {index} of {name!r} ({expr.func.name})"
                        ),
                        renamed={},
                        removed=(inner_name,),
                        detail={
                            "outer": expr.func.name,
                            "inner": inner.func.name,
                            "index": index,
                        },
                        _apply=apply,
                    )
                )
                break  # one fusion per consumer per round
        return out


class DeadStreamRule(RewriteRule):
    """OPT005: drop streams no output transitively depends on."""

    code = "OPT005"
    name = "dead-stream"

    def candidates(self, flat: FlatSpec) -> List[Candidate]:
        live = live_streams(flat)
        dead = sorted(n for n in flat.definitions if n not in live)
        if not dead:
            return []

        def apply(current: FlatSpec) -> FlatSpec:
            return project_live(current)

        return [
            Candidate(
                rule=self,
                key=(self.code, tuple(dead)),
                stream=dead[0],
                description=(
                    f"no output depends on {dead}; removed"
                ),
                renamed={},
                removed=tuple(dead),
                detail={"streams": dead},
                _apply=apply,
            )
        ]


_FUSIBLE_WRITES = frozenset(write for write, _ in FUSIONS)


def _registered_all(func: LiftedFunction) -> bool:
    return (
        REGISTRY.get(func.name) is func and func.pattern is EventPattern.ALL
    )


def _fusion_sites(flat: FlatSpec) -> Dict[str, List[str]]:
    """write stream → its readers, for every write OPT008 can fuse away.

    One scan: a candidate write is blocked by any use that is not the
    aggregate argument (index 0) of a Read builtin paired with it in
    :data:`~repro.lang.builtins.FUSIONS` — a ``last``, ``merge``,
    ``delay``, ``time``, another write, an output.
    """
    outputs = set(flat.outputs)
    writes = {
        name: expr.func.name
        for name, expr in flat.definitions.items()
        if isinstance(expr, Lift)
        and expr.func.name in _FUSIBLE_WRITES
        and name not in outputs
        and _registered_all(expr.func)
    }
    if not writes:
        return {}
    readers: Dict[str, List[str]] = {name: [] for name in writes}
    blocked = set()
    for name, expr in flat.definitions.items():
        fusible_read = isinstance(expr, Lift) and _registered_all(expr.func)
        for index, arg in enumerate(expr.children()):
            write = writes.get(arg.name)
            if write is None:
                continue
            if (
                fusible_read
                and index == 0
                and (write, expr.func.name) in FUSIONS
            ):
                readers[arg.name].append(name)
            else:
                blocked.add(arg.name)
    return {
        name: users
        for name, users in readers.items()
        if users and name not in blocked
    }


def _fused_definitions(
    flat: FlatSpec, sites: Dict[str, List[str]]
) -> Tuple[Dict[str, Expr], List[RewriteRecord]]:
    definitions = dict(flat.definitions)
    records: List[RewriteRecord] = []
    for write_name, reader_names in sites.items():
        write = definitions.pop(write_name)
        assert isinstance(write, Lift)
        for reader_name in reader_names:
            read = definitions[reader_name]
            assert isinstance(read, Lift)
            fused = FUSIONS[(write.func.name, read.func.name)]
            fused_expr = Lift(fused, write.args + read.args[1:])
            definitions[reader_name] = fused_expr
            records.append(
                RewriteRecord(
                    code="OPT008",
                    rule="write-read-fusion",
                    stream=reader_name,
                    description=(
                        f"{reader_name!r} ({read.func.name}) only reads the"
                        f" write {write_name!r} ({write.func.name}); fused"
                        f" into {fused_expr}"
                    ),
                    applied=True,
                    detail={
                        "write": write_name,
                        "read": reader_name,
                        "fused": fused.name,
                    },
                    removed=(write_name,),
                )
            )
    return definitions, records


def fuse_write_reads(flat: FlatSpec) -> Tuple[FlatSpec, List[RewriteRecord]]:
    """Apply OPT008 to every fusible write in one linear pass.

    Returns *flat* itself (and no records) when nothing fuses.  The
    fusions are independent: a fused reader's result is never a write's
    aggregate argument, and a write's aggregate argument is never a
    fusible write (its use is a write).
    """
    sites = _fusion_sites(flat)
    if not sites:
        return flat, []
    definitions, records = _fused_definitions(flat, sites)
    return _rebuild(flat, definitions), records


#: Fixed rule order: structural dedup and identity collapse first (they
#: unlock each other), then normalizations, then fusion, with the dead
#: sweep last to collect what the earlier rules orphaned.
ALL_RULES: Tuple[RewriteRule, ...] = (
    DuplicateStreamRule(),
    IdentityLiftRule(),
    NeverFiresRule(),
    ConstFoldRule(),
    LiftFusionRule(),
    DeadStreamRule(),
)
