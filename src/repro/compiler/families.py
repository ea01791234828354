"""Alias-closed stream families.

A family (a :class:`Partition` of the :class:`PartitionPlan`) is a set
of defined streams that never exchanges an aggregate reference with
any other family.  :func:`~repro.compiler.vector.classify_vector`
judges vector eligibility per family, so one ineligible family demotes
only itself.  Two constraints shape the families:

* **Dependency closure** — every stream a definition references is
  either an input stream or another member of the same family.
  Unioning the endpoints of every usage-graph edge between defined
  streams makes each family a union of weakly-connected components of
  the derived-stream subgraph.

* **Alias closure** — two streams that *potentially alias* (paper
  §IV-B, Def. 6: they may carry the same data structure at the same
  timestamp) must land in the same family, otherwise two families
  could hold live references into one aggregate and an in-place update
  in one would be observable in the other.  The potential-alias
  classes from :class:`~repro.analysis.aliasing.AliasAnalysis` are
  unioned in; additionally, all consumers of a *complex-typed input
  stream* are unioned (the input value object itself would be shared).

Dependency edges already connect any two streams with a common P/L
ancestor, so alias closure is implied by dependency closure for
derived streams — the explicit union is a belt-and-braces guarantee
(and the property the determinism tests assert directly).

One refinement keeps unrelated families separate: a **replicable**
stream — scalar-typed, not an output, depending (transitively) only on
scalar inputs and other replicable streams — is *copied* into every
family that needs it instead of gluing its consumers together.
Scalar values are copied on every read anyway (there is no aggregate
to alias, which is the only sharing hazard the paper's analysis
guards), and the scalar subgraph is deterministic, so each replica
computes the identical event sequence the single monitor would.
Without this, the synthetic ``unit`` clock every family touches would
collapse any composed specification into one family.

Everything here is deterministic: families and their members are
ordered by first appearance in the specification's definition order,
never by hash-dependent set iteration, so the same spec yields the
same plan under any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.aliasing import AliasAnalysis
from ..analysis.unionfind import UnionFind
from ..graph.usage_graph import UsageGraph, build_usage_graph
from ..lang.ast import free_vars
from ..lang.spec import FlatSpec
from ..lang.typecheck import check_types


@dataclass(frozen=True)
class Partition:
    """One alias-closed, shared-nothing slice of a specification."""

    #: Position in the plan (0-based, ordered by first member).
    index: int
    #: Defined streams of this partition, in definition order.
    streams: Tuple[str, ...]
    #: Input streams referenced, in declaration order.
    inputs: Tuple[str, ...]
    #: Output streams owned, in the original output order.
    outputs: Tuple[str, ...]

    def as_dict(self) -> Dict[str, list]:
        return {
            "streams": list(self.streams),
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
        }


@dataclass(frozen=True)
class PartitionPlan:
    """The full partitioning of one specification."""

    partitions: Tuple[Partition, ...]
    #: Potential-alias classes (size ≥ 2) among complex streams, for
    #: introspection and the never-split-a-class property tests.
    alias_classes: Tuple[Tuple[str, ...], ...]
    #: Scalar streams copied into more than one partition (each copy
    #: recomputes the identical values; none of them is an output).
    replicated: Tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.partitions)

    def as_dict(self) -> Dict[str, object]:
        return {
            "partitions": [p.as_dict() for p in self.partitions],
            "alias_classes": [list(c) for c in self.alias_classes],
            "replicated": list(self.replicated),
        }


def _alias_classes(
    graph: UsageGraph, alias: AliasAnalysis
) -> List[List[str]]:
    """Potential-alias classes among complex derived streams.

    Pairs are enumerated in definition order (never set order) and the
    transitive closure is taken through a union-find, so class
    membership and ordering are hash-seed independent.
    """
    complex_nodes = [
        name
        for name in graph.flat.definitions
        if graph.flat.types[name].is_complex
    ]
    uf = UnionFind(complex_nodes)
    for i, u in enumerate(complex_nodes):
        for v in complex_nodes[i + 1 :]:
            if alias.potential_alias(u, v):
                uf.union(u, v)
    by_root: Dict[str, List[str]] = {}
    for name in complex_nodes:
        by_root.setdefault(uf.find(name), []).append(name)
    return [members for members in by_root.values() if len(members) > 1]


def _replicable_streams(flat: FlatSpec) -> "frozenset":
    """Scalar streams safe to copy into every consuming family.

    A stream is replicable when it is not an output, its type is
    scalar, and every stream it references is a scalar input or itself
    replicable — i.e. no aggregate anywhere in its dependency cone.
    Computed as a demotion fixpoint so recursive definitions (``last``
    cycles) are handled without a topological order.
    """
    outputs = set(flat.outputs)
    defined = flat.definitions
    complex_inputs = {
        name
        for name, input_type in flat.inputs.items()
        if input_type.is_complex
    }
    replicable = {
        name
        for name in defined
        if name not in outputs and not flat.types[name].is_complex
    }
    changed = True
    while changed:
        changed = False
        for name in list(replicable):
            for dep in free_vars(defined[name]):
                if dep in complex_inputs or (
                    dep in defined and dep not in replicable
                ):
                    replicable.discard(name)
                    changed = True
                    break
    return frozenset(replicable)


def partition_spec(
    flat: FlatSpec,
    *,
    graph: Optional[UsageGraph] = None,
    alias: Optional[AliasAnalysis] = None,
) -> PartitionPlan:
    """Partition *flat* into alias-closed, shared-nothing families.

    The returned plan is deterministic (see module docstring).  A plan
    of length 1 means the specification is one dependency/alias
    component.
    """
    if not flat.types:
        check_types(flat)
    if graph is None:
        graph = build_usage_graph(flat)
    if alias is None:
        alias = AliasAnalysis(graph)

    defined = flat.definitions
    replicable = _replicable_streams(flat)
    uf = UnionFind(defined)

    # Dependency closure: every edge whose source is an *anchored*
    # derived stream.  Edges out of replicable streams do not glue
    # their consumers together — the replica travels with the
    # consumer.  (A replicable stream never depends on an anchored
    # one, so no anchored→replicable edge exists.)
    for edge in graph.edges:
        if edge.src in defined and edge.src not in replicable:
            uf.union(edge.src, edge.dst)

    # Complex inputs: the input value object is shared by reference
    # among all consumers — they must co-locate.
    for name, input_type in flat.inputs.items():
        if not input_type.is_complex:
            continue
        consumers = [e.dst for e in graph.out_edges(name)]
        for other in consumers[1:]:
            uf.union(consumers[0], other)

    # Alias closure (implied by the above, asserted explicitly).
    alias_classes = _alias_classes(graph, alias)
    for members in alias_classes:
        for other in members[1:]:
            uf.union(members[0], other)

    # An output that is itself an input stream has no defining
    # family; attaching it to one arbitrary family would be possible
    # but fragile — treat the whole spec as one family instead.
    passthrough = [name for name in flat.outputs if name in flat.inputs]
    if passthrough:
        members = tuple(defined)
        single = Partition(
            index=0,
            streams=members,
            inputs=tuple(flat.inputs),
            outputs=tuple(flat.outputs),
        )
        return PartitionPlan(
            partitions=(single,),
            alias_classes=tuple(tuple(c) for c in alias_classes),
        )

    # Group anchored streams by root, ordered by first appearance.
    groups: Dict[str, List[str]] = {}
    for name in defined:  # definition order: deterministic
        if name not in replicable:
            groups.setdefault(uf.find(name), []).append(name)

    # A replicable stream nobody anchored needs is dead weight the
    # dead-code pruner may or may not have removed; it joins no group.
    replica_use: Dict[str, List[int]] = {}

    partitions: List[Partition] = []
    for index, anchored in enumerate(groups.values()):
        # Pull in the replicable closure: every scalar-prefix stream
        # any member (anchored or already-replicated) references.
        member_set = set(anchored)
        frontier = list(anchored)
        while frontier:
            name = frontier.pop()
            for dep in free_vars(defined[name]):
                if dep in replicable and dep not in member_set:
                    member_set.add(dep)
                    frontier.append(dep)
        members = [name for name in defined if name in member_set]
        for name in members:
            if name in replicable:
                replica_use.setdefault(name, []).append(index)
        used_inputs = []
        for input_name in flat.inputs:  # declaration order
            for member in members:
                if input_name in free_vars(defined[member]):
                    used_inputs.append(input_name)
                    break
        outputs = tuple(o for o in flat.outputs if o in member_set)
        partitions.append(
            Partition(
                index=index,
                streams=tuple(members),
                inputs=tuple(used_inputs),
                outputs=outputs,
            )
        )

    replicated = tuple(
        name
        for name in defined
        if len(replica_use.get(name, ())) > 1
    )
    return PartitionPlan(
        partitions=tuple(partitions),
        alias_classes=tuple(tuple(c) for c in alias_classes),
        replicated=replicated,
    )
