"""The mutability criterion and the overall algorithm (paper §IV-D/E).

Given a flat specification, decide which aggregate-carrying stream
variables can be implemented with mutable (in-place updated) data
structures, and compute the translation order that makes the maximal
such set valid — the paper's Fig. 8:

1. **Families** — union all Pass/Write/Last edges: variables connected
   by them must share a backend (Def. 7 rule 3, consistent mutability).
2. **No double write/reproduction** — for every write edge ``u → v``,
   every potential alias ``u'`` of ``u`` (found by walking up and down
   the Pass/Last subgraph) with a Write or Last out-edge to some
   ``v' ≠ v`` forces the family persistent (Def. 7 rule 1).
3. **Read-before-write constraints** — aliases ``u'`` read by ``v'``
   contribute a constraint edge ``(v', v)``: the read must be computed
   before the write (Def. 7 rule 2).
4. **Optimal ordering** — add the constraint edges to the usage graph;
   find the minimum-weight set of variable *families* whose constraint
   edges must be dropped (those become persistent — persistent
   structures may be written before being read) so the remaining graph
   is acyclic.  This weighted feedback-edge-group problem is
   NP-complete (reduction from Feedback Arc Set, paper §IV-E.2); we
   solve it exactly for up to ``exact_limit`` candidate families and
   fall back to a greedy heuristic beyond that.

Additional rule beyond the paper's text: families containing *input*
streams are forced persistent — the monitor does not control how the
environment constructed (and may reuse) input aggregates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..graph.order import translation_order
from ..graph.usage_graph import EdgeClass, UsageGraph, build_usage_graph
from ..lang.spec import FlatSpec
from ..structures import Backend
from .aliasing import AliasAnalysis
from .triggering import TriggeringAnalysis
from .unionfind import UnionFind

Family = FrozenSet[str]


@dataclass(frozen=True)
class ReadBeforeWrite:
    """A rule-2 constraint: *reader* must be computed before *writer*.

    ``written`` is the variable whose structure is at stake (the source
    of the write edge); its family is the group that must turn
    persistent if the constraint cannot be ordered.
    """

    reader: str
    writer: str
    written: str

    @property
    def edge(self) -> Tuple[str, str]:
        return (self.reader, self.writer)


@dataclass(frozen=True)
class Rule1Violation:
    """Why a family was forced persistent in step 2.

    ``alias_reason`` (when present) is the :meth:`AliasAnalysis
    .explain_alias` witness for the ``written ≃ alias`` pair — the
    provenance of the aliasing claim itself (e.g. the replicating last
    or path-enumeration overflow that prevented a safety proof).
    """

    written: str  # u of the offending write edge u -> v
    write_target: str  # v
    alias: str  # u' ≃ u
    conflict: str  # v' ≠ v with u' -W/L-> v'
    conflict_class: EdgeClass
    alias_reason: Optional[Dict[str, Any]] = field(
        default=None, compare=False
    )

    @property
    def edge(self) -> Tuple[str, str]:
        """The offending conflict edge ``alias -> conflict``."""
        return (self.alias, self.conflict)


@dataclass(frozen=True)
class InputAggregateWitness:
    """A family was forced persistent because it contains an input
    aggregate — the monitor does not control how the environment
    constructed (and may reuse) input data structures."""

    input_stream: str


@dataclass(frozen=True)
class OrderingConflict:
    """A family turned persistent in step 4: its read-before-write
    constraints participate in a dependency cycle, so no translation
    order can satisfy them; dropping the family (persistent structures
    may be written before being read) was the minimum-weight fix."""

    family: Family
    dropped: Tuple[ReadBeforeWrite, ...]

    @property
    def edges(self) -> List[Tuple[str, str]]:
        return [c.edge for c in self.dropped]


#: Union of the witness record types attached to persistent streams.
PersistenceWitness = Any  # Rule1Violation | InputAggregateWitness | OrderingConflict


@dataclass
class MutabilityResult:
    """Outcome of the analysis: the mutability set and the order."""

    graph: UsageGraph
    mutable: FrozenSet[str]
    persistent: FrozenSet[str]
    families: List[Family]
    order: List[str]
    constraints: List[ReadBeforeWrite] = field(default_factory=list)
    active_constraints: List[ReadBeforeWrite] = field(default_factory=list)
    rule1_violations: List[Rule1Violation] = field(default_factory=list)
    dropped_families: List[Family] = field(default_factory=list)
    used_exact_step4: bool = True
    #: stream name → the witnesses that forced its family persistent;
    #: every stream in ``persistent`` has a non-empty entry.
    witnesses: Dict[str, List[PersistenceWitness]] = field(
        default_factory=dict
    )
    #: ``ev'`` implication queries that hit the implicant cap (u, v, cap).
    implication_unknowns: List[Tuple[str, str, int]] = field(
        default_factory=list
    )
    #: alias path enumerations that hit ``path_limit`` (u, v, ancestor).
    alias_path_overflows: List[Tuple[str, str, str]] = field(
        default_factory=list
    )

    def backend_for(self, name: str) -> Backend:
        """Collection backend for the stream *name* (Backend.PERSISTENT
        for everything outside the mutability set)."""
        return Backend.MUTABLE if name in self.mutable else Backend.PERSISTENT

    def witness_for(self, name: str) -> List[PersistenceWitness]:
        """Why stream *name* was classified persistent (empty if it
        wasn't, i.e. it is mutable or carries no aggregate data)."""
        return list(self.witnesses.get(name, ()))

    def summary(self) -> str:
        lines = [
            f"mutable   ({len(self.mutable)}): {sorted(self.mutable)}",
            f"persistent({len(self.persistent)}): {sorted(self.persistent)}",
            f"order: {self.order}",
        ]
        if self.rule1_violations:
            lines.append("rule-1 violations:")
            lines.extend(
                f"  {v.written} -> {v.write_target} vs alias {v.alias}"
                f" -[{v.conflict_class.value}]-> {v.conflict}"
                for v in self.rule1_violations
            )
        if self.active_constraints:
            lines.append("read-before-write constraints:")
            lines.extend(
                f"  {c.reader} < {c.writer}" for c in self.active_constraints
            )
        return "\n".join(lines)


class MutabilityAnalysis:
    """Single-use driver object for the Fig. 8 algorithm."""

    def __init__(
        self,
        flat: FlatSpec,
        graph: Optional[UsageGraph] = None,
        exact_limit: int = 16,
        assume_all_alias: bool = False,
        implicant_cap: int = 4096,
    ) -> None:
        from ..obs.trace import TRACER

        self.flat = flat
        if graph is None:
            # Edge classification happens while the usage graph is
            # built, so its cost is reported under this span.
            with TRACER.span("compile.usage_graph"):
                graph = build_usage_graph(flat)
        self.graph = graph
        with TRACER.span("compile.triggering"):
            self.triggering = TriggeringAnalysis(
                flat, implicant_cap=implicant_cap
            )
        with TRACER.span("compile.aliasing"):
            self.alias = AliasAnalysis(self.graph, self.triggering)
        self.exact_limit = exact_limit
        #: Ablation switch: skip the Def. 6 aliasing-safety reasoning and
        #: treat every P/L-connected pair as a potential alias.
        self.assume_all_alias = assume_all_alias
        self.complex_nodes = set(self.graph.complex_nodes())

    # -- step 1 ---------------------------------------------------------

    def _families(self) -> UnionFind:
        uf = UnionFind(self.complex_nodes)
        for edge in self.graph.edges_of_class(
            EdgeClass.WRITE, EdgeClass.PASS, EdgeClass.LAST
        ):
            if edge.dst in self.complex_nodes:
                uf.union(edge.src, edge.dst)
        return uf

    # -- steps 2 & 3 ------------------------------------------------------

    def _aliases_of(self, u: str) -> Set[str]:
        """Every potential alias of *u*, found via common P/L ancestors."""
        candidates: Set[str] = set()
        for ancestor in self.graph.pl_ancestors(u):
            candidates |= self.graph.pl_descendants(ancestor)
        if self.assume_all_alias:
            return {node for node in candidates if node in self.complex_nodes}
        return {
            node
            for node in candidates
            if node in self.complex_nodes and self.alias.potential_alias(u, node)
        }

    def _alias_reason(self, u: str, u2: str) -> Optional[Dict[str, Any]]:
        """Provenance for the ``u ≃ u2`` claim behind a rule-1 violation."""
        if self.assume_all_alias:
            return {"kind": "assumed", "pair": [u, u2]}
        return self.alias.explain_alias(u, u2)

    def run(self) -> MutabilityResult:
        from ..obs.trace import TRACER

        with TRACER.span("compile.mutability"):
            return self._run()

    def _run(self) -> MutabilityResult:
        from ..obs.trace import TRACER

        uf = self._families()
        persistent_roots: Set[str] = set()
        rule1: List[Rule1Violation] = []
        constraints: List[ReadBeforeWrite] = []
        seen_constraints: Set[Tuple[str, str, str]] = set()
        #: family root → why that family was forced persistent
        reasons: Dict[str, List[PersistenceWitness]] = {}

        def force_persistent(root: str, witness: PersistenceWitness) -> None:
            persistent_roots.add(root)
            reasons.setdefault(root, []).append(witness)

        # Families containing input aggregates are never ours to mutate.
        for name in self.flat.inputs:
            if name in self.complex_nodes:
                force_persistent(uf.find(name), InputAggregateWitness(name))

        for write in self.graph.write_edges:
            u, v = write.src, write.dst
            for u2 in sorted(self._aliases_of(u)):
                for out in self.graph.out_edges(u2):
                    if out.cls in (EdgeClass.WRITE, EdgeClass.LAST):
                        if out.dst != v:
                            violation = Rule1Violation(
                                u, v, u2, out.dst, out.cls,
                                alias_reason=self._alias_reason(u, u2),
                            )
                            force_persistent(uf.find(u), violation)
                            rule1.append(violation)
                    elif out.cls is EdgeClass.READ:
                        if out.dst == v:
                            # the writer itself reads an alias: no order
                            # can separate read from write
                            violation = Rule1Violation(
                                u, v, u2, out.dst, out.cls,
                                alias_reason=self._alias_reason(u, u2),
                            )
                            force_persistent(uf.find(u), violation)
                            rule1.append(violation)
                            continue
                        key = (out.dst, v, uf.find(u))
                        if key not in seen_constraints:
                            seen_constraints.add(key)
                            constraints.append(
                                ReadBeforeWrite(out.dst, v, u)
                            )

        # -- step 4 -----------------------------------------------------

        active = [
            c for c in constraints if uf.find(c.written) not in persistent_roots
        ]
        chosen_roots, used_exact, order = self._min_weight_removal(uf, active)
        for root in sorted(chosen_roots):
            dropped = tuple(c for c in active if uf.find(c.written) == root)
            force_persistent(root, OrderingConflict(uf.family(root), dropped))
        final_constraints = [
            c for c in active if uf.find(c.written) not in persistent_roots
        ]

        persistent_nodes = frozenset(
            n for n in self.complex_nodes if uf.find(n) in persistent_roots
        )
        mutable_nodes = frozenset(self.complex_nodes - persistent_nodes)
        return MutabilityResult(
            graph=self.graph,
            mutable=mutable_nodes,
            persistent=persistent_nodes,
            families=uf.families(),
            order=order,
            constraints=constraints,
            active_constraints=final_constraints,
            rule1_violations=rule1,
            dropped_families=[uf.family(root) for root in sorted(chosen_roots)],
            used_exact_step4=used_exact,
            witnesses={
                n: list(reasons.get(uf.find(n), ()))
                for n in sorted(persistent_nodes)
            },
            implication_unknowns=self.triggering.implication_unknowns(),
            alias_path_overflows=sorted(set(self.alias.path_overflows)),
        )

    # -- step 4 core: minimum-weight constraint-family removal ------------

    def _order_with(
        self, constraints: Sequence[ReadBeforeWrite]
    ) -> Optional[List[str]]:
        """The translation order honouring *constraints*, or ``None``
        when they close a cycle."""
        from ..obs.trace import TRACER

        with TRACER.span("compile.translation_order"):
            try:
                return translation_order(
                    self.graph, extra=[c.edge for c in constraints]
                )
            except Exception:
                return None

    def _min_weight_removal(
        self, uf: UnionFind, active: List[ReadBeforeWrite]
    ) -> Tuple[Set[str], bool, List[str]]:
        """Choose the cheapest set of family roots whose constraints to
        drop (turning those families persistent) so ordering succeeds;
        returns it with the translation order the rest allows."""
        order = self._order_with(active)
        if order is not None:
            return set(), True, order
        roots = sorted({uf.find(c.written) for c in active})
        weights = {root: len(uf.family(root)) for root in roots}

        def remaining(removed: Set[str]) -> List[ReadBeforeWrite]:
            return [c for c in active if uf.find(c.written) not in removed]

        if len(roots) <= self.exact_limit:
            options = []
            for size in range(1, len(roots) + 1):
                for combo in itertools.combinations(roots, size):
                    options.append(
                        (sum(weights[r] for r in combo), size, combo)
                    )
            options.sort()
            for _weight, _size, combo in options:
                removed = set(combo)
                order = self._order_with(remaining(removed))
                if order is not None:
                    return removed, True, order
            raise AssertionError(  # pragma: no cover
                "removing all constraint families must yield a valid order"
            )
        # Greedy heuristic: repeatedly drop the lightest family that
        # still has active constraints until the graph orders.
        removed: Set[str] = set()
        for root in sorted(roots, key=lambda r: (weights[r], r)):
            removed.add(root)
            order = self._order_with(remaining(removed))
            if order is not None:
                return removed, False, order
        raise AssertionError(  # pragma: no cover
            "removing all constraint families must yield a valid order"
        )


def analyze_mutability(
    flat: FlatSpec,
    graph: Optional[UsageGraph] = None,
    exact_limit: int = 16,
    implicant_cap: int = 4096,
) -> MutabilityResult:
    """Run the full aggregate-update analysis on *flat*."""
    return MutabilityAnalysis(
        flat, graph, exact_limit, implicant_cap=implicant_cap
    ).run()
