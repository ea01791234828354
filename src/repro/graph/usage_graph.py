"""The TeSSLa usage graph (paper Definitions 1 and 3).

Nodes are stream names; there is an edge ``(u, v)`` whenever ``u``
occurs in the expression defining ``v``.  Edges whose source stream has
a *complex* data type are classified (Def. 3):

* **Write** — the defining expression modifies ``u``'s current value,
* **Read** — it reads ``u``'s current value,
* **Pass** — ``u``'s value may be handed to ``v`` unchanged,
* **Last** — ``v = last(u, ·)``.

Edges that pass no aggregate value (scalar streams, ``time`` operands,
``last``/``delay`` triggers) stay unclassified (**Plain**).  The
*special* edges ``S`` (Def. 1) are the first-parameter edges of ``last``
and ``delay`` — precisely the edges a translation order may ignore.

Parallel edges are kept separate (e.g. ``lift(f)(x, x)`` contributes two
classified edges from ``x``), since the mutability rules quantify over
edges, not node pairs.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, NamedTuple, Optional, Set

from ..lang.ast import Delay, Last, Lift, Nil, TimeExpr, UnitExpr
from ..lang.builtins import Access
from ..lang.spec import FlatSpec
from ..lang.typecheck import check_types


class GraphError(Exception):
    """Raised for inconsistent graphs or metadata."""


class EdgeClass(enum.Enum):
    """Classification of usage-graph edges (paper Def. 3)."""

    WRITE = "W"
    READ = "R"
    LAST = "L"
    PASS = "P"
    #: No aggregate value flows along the edge; not classified.
    PLAIN = "·"


class Edge(NamedTuple):
    """A directed usage edge with its classification.

    ``special`` marks membership in S (Def. 1): first parameter of a
    ``last`` or ``delay``.  ``arg_index`` records which operand position
    produced the edge (useful for diagnostics; -1 for non-lift edges).
    """

    src: str
    dst: str
    cls: EdgeClass
    special: bool = False
    arg_index: int = -1

    def __str__(self) -> str:
        arrow = "-->" if self.special else "->"
        return f"{self.src} {arrow}[{self.cls.value}] {self.dst}"


_ACCESS_TO_CLASS = {
    Access.WRITE: EdgeClass.WRITE,
    Access.READ: EdgeClass.READ,
    Access.PASS: EdgeClass.PASS,
}


class UsageGraph:
    """Usage graph of a flat, type-checked specification."""

    def __init__(self, flat: FlatSpec) -> None:
        if not flat.types:
            check_types(flat)
        self.flat = flat
        self.nodes: List[str] = list(flat.streams)
        self.edges: List[Edge] = []
        self._out: Dict[str, List[Edge]] = {n: [] for n in self.nodes}
        self._in: Dict[str, List[Edge]] = {n: [] for n in self.nodes}
        self._build()
        # The Pass/Last adjacency the aliasing analysis walks, filtered once.
        pl = (EdgeClass.PASS, EdgeClass.LAST)
        self._pl_out = {
            n: [e for e in edges if e.cls in pl] for n, edges in self._out.items()
        }
        self._pl_in = {
            n: [e for e in edges if e.cls in pl] for n, edges in self._in.items()
        }

    # -- construction -------------------------------------------------------

    def _add(self, edge: Edge) -> None:
        self.edges.append(edge)
        self._out[edge.src].append(edge)
        self._in[edge.dst].append(edge)

    def _is_complex(self, name: str) -> bool:
        return self.flat.types[name].is_complex

    def _build(self) -> None:
        for dst, expr in self.flat.definitions.items():
            if isinstance(expr, (Nil, UnitExpr)):
                continue
            if isinstance(expr, TimeExpr):
                # only the timestamp is used; no value flows
                self._add(Edge(expr.operand.name, dst, EdgeClass.PLAIN))
            elif isinstance(expr, Last):
                value, trigger = expr.value.name, expr.trigger.name
                cls = EdgeClass.LAST if self._is_complex(value) else EdgeClass.PLAIN
                self._add(Edge(value, dst, cls, special=True))
                self._add(Edge(trigger, dst, EdgeClass.PLAIN))
            elif isinstance(expr, Delay):
                self._add(Edge(expr.delay.name, dst, EdgeClass.PLAIN, special=True))
                self._add(Edge(expr.reset.name, dst, EdgeClass.PLAIN))
            elif isinstance(expr, Lift):
                for index, (arg, access) in enumerate(
                    zip(expr.args, expr.func.access)
                ):
                    src = arg.name
                    if not self._is_complex(src):
                        cls = EdgeClass.PLAIN
                    else:
                        cls = _ACCESS_TO_CLASS.get(access)
                        if cls is None:
                            raise GraphError(
                                f"builtin {expr.func.name!r} declares no"
                                f" access class for complex argument"
                                f" {index} (stream {src!r})"
                            )
                    self._add(Edge(src, dst, cls, arg_index=index))
            else:  # pragma: no cover - FlatSpec guarantees basic operators
                raise GraphError(f"unexpected operator for {dst!r}: {expr!r}")

    # -- queries -------------------------------------------------------------

    def out_edges(self, node: str) -> List[Edge]:
        return list(self._out[node])

    def in_edges(self, node: str) -> List[Edge]:
        return list(self._in[node])

    def edges_of_class(self, *classes: EdgeClass) -> Iterator[Edge]:
        return (e for e in self.edges if e.cls in classes)

    @property
    def write_edges(self) -> List[Edge]:
        return list(self.edges_of_class(EdgeClass.WRITE))

    @property
    def special_edges(self) -> List[Edge]:
        return [e for e in self.edges if e.special]

    def complex_nodes(self) -> List[str]:
        """Streams carrying aggregate data (candidates for the analysis)."""
        return [n for n in self.nodes if self._is_complex(n)]

    # -- P/L navigation (used by the aliasing analysis) ----------------------

    def pl_out_edges(self, node: str) -> List[Edge]:
        """Outgoing Pass/Last edges — the edges along which the *same*
        event/data structure propagates (Def. 6 path alphabet)."""
        return self._pl_out[node]

    def pl_in_edges(self, node: str) -> List[Edge]:
        return self._pl_in[node]

    def pl_ancestors(self, node: str) -> Set[str]:
        """All nodes that reach *node* via Pass/Last edges (incl. itself)."""
        seen = {node}
        stack = [node]
        while stack:
            current = stack.pop()
            for edge in self.pl_in_edges(current):
                if edge.src not in seen:
                    seen.add(edge.src)
                    stack.append(edge.src)
        return seen

    def pl_descendants(self, node: str) -> Set[str]:
        """All nodes reachable from *node* via Pass/Last edges (incl. itself)."""
        seen = {node}
        stack = [node]
        while stack:
            current = stack.pop()
            for edge in self.pl_out_edges(current):
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    stack.append(edge.dst)
        return seen

    def pl_paths(self, src: str, dst: str, limit: int = 10_000) -> Optional[List[List[Edge]]]:
        """All edge-simple Pass/Last paths from *src* to *dst*.

        Edge-simple (no edge repeats) rather than node-simple, so paths
        that traverse a recursion cycle once are still found.  Returns
        ``None`` if more than *limit* paths exist — callers must then be
        conservative.
        """
        results: List[List[Edge]] = []
        path: List[Edge] = []
        used: Set[int] = set()

        def visit(node: str) -> bool:
            if node == dst:
                results.append(list(path))
                if len(results) > limit:
                    return False
                # keep exploring: dst may also be an intermediate node
            for edge in self.pl_out_edges(node):
                key = id(edge)
                if key in used:
                    continue
                used.add(key)
                path.append(edge)
                ok = visit(edge.dst)
                path.pop()
                used.discard(key)
                if not ok:
                    return False
            return True

        if not visit(src):
            return None
        return results

    # -- rendering -----------------------------------------------------------

    def to_dot(self) -> str:
        """GraphViz rendering (classified edges labelled, S dashed)."""
        lines = ["digraph usage {"]
        for node in self.nodes:
            shape = "box" if self._is_complex(node) else "ellipse"
            lines.append(f'  "{node}" [shape={shape}];')
        for edge in self.edges:
            style = "dashed" if edge.special else "solid"
            label = edge.cls.value if edge.cls is not EdgeClass.PLAIN else ""
            lines.append(
                f'  "{edge.src}" -> "{edge.dst}"'
                f' [style={style}, label="{label}"];'
            )
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"UsageGraph({len(self.nodes)} nodes, {len(self.edges)} edges)"


def build_usage_graph(flat: FlatSpec) -> UsageGraph:
    """Construct the usage graph of *flat* (type-checking it if needed)."""
    return UsageGraph(flat)
