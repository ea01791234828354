"""Human-readable analysis reports and GraphViz export.

Renders everything the paper's §IV develops for a specification — the
classified usage graph, triggering formulas, replicating lasts,
potential-alias pairs, rule violations, the mutability set and the
chosen translation order — as text (for CLI / debugging) or DOT (for
visualisation; mutable families green, persistent red, as a Fig. 3/7
style picture).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..graph.usage_graph import EdgeClass, UsageGraph
from ..lang.ast import Last
from ..lang.spec import FlatSpec
from .aliasing import AliasAnalysis
from .diagnostics import Diagnostic, collect_diagnostics
from .mutability import MutabilityResult, analyze_mutability
from .triggering import TriggeringAnalysis


class AnalysisReport:
    """Bundles every analysis artifact for one specification."""

    def __init__(
        self,
        flat: FlatSpec,
        result: Optional[MutabilityResult] = None,
        notes: Sequence[Diagnostic] = (),
    ):
        self.flat = flat
        self.notes = tuple(notes)
        self.result = result or analyze_mutability(flat)
        self.graph: UsageGraph = self.result.graph
        self.triggering = TriggeringAnalysis(flat)
        self.alias = AliasAnalysis(self.graph, self.triggering)
        self._diagnostics: Optional[List[Diagnostic]] = None

    # -- text ---------------------------------------------------------------

    def _equations_section(self) -> List[str]:
        lines = ["flattened equations:"]
        for name in self.result.order:
            if name in self.flat.inputs:
                lines.append(f"  in  {name}: {self.flat.types[name]}")
            else:
                lines.append(
                    f"  def {name}: {self.flat.types[name]}"
                    f" = {self.flat.definitions[name]}"
                )
        return lines

    def _edges_section(self) -> List[str]:
        lines = ["classified edges (W/R/L/P; --> marks special edges):"]
        classified = [
            e for e in self.graph.edges if e.cls is not EdgeClass.PLAIN
        ]
        lines.extend(f"  {edge}" for edge in classified)
        if not classified:
            lines.append("  (none — no aggregate data flows)")
        return lines

    def _triggering_section(self) -> List[str]:
        lines = ["triggering formulas ev'(s) for aggregate streams:"]
        complexes = self.graph.complex_nodes()
        for name in complexes:
            lines.append(f"  ev'({name}) = {self.triggering.formula(name)}")
        if not complexes:
            lines.append("  (no aggregate streams)")
        return lines

    def _aliasing_section(self) -> List[str]:
        lines = []
        replicating = self.alias.replicating_lasts()
        lines.append(
            "replicating lasts: "
            + (", ".join(replicating) if replicating else "none")
        )
        complexes = self.graph.complex_nodes()
        pairs = [
            (a, b)
            for i, a in enumerate(complexes)
            for b in complexes[i + 1:]
            if self.alias.potential_alias(a, b)
        ]
        lines.append(
            "potential aliases: "
            + (", ".join(f"{a}≃{b}" for a, b in pairs) if pairs else "none")
        )
        return lines

    def _mutability_section(self) -> List[str]:
        result = self.result
        lines = [
            f"mutable    ({len(result.mutable)}): "
            + (", ".join(sorted(result.mutable)) or "∅"),
            f"persistent ({len(result.persistent)}): "
            + (", ".join(sorted(result.persistent)) or "∅"),
        ]
        if result.rule1_violations:
            lines.append("rule-1 violations (double write/reproduction):")
            lines.extend(
                f"  write {v.written} -> {v.write_target} conflicts with"
                f" alias {v.alias} -[{v.conflict_class.value}]-> {v.conflict}"
                for v in result.rule1_violations
            )
        if result.active_constraints:
            lines.append("read-before-write constraints (satisfied by the order):")
            lines.extend(
                f"  {c.reader} < {c.writer}" for c in result.active_constraints
            )
        if result.dropped_families:
            lines.append("families dropped to persistent by step 4:")
            lines.extend(
                "  {" + ", ".join(sorted(f)) + "}"
                for f in result.dropped_families
            )
        lines.append("translation order: " + " < ".join(result.order))
        return lines

    def _diagnostics_section(self) -> List[str]:
        lines = ["diagnostics:"]
        diags = self.diagnostics()
        if diags:
            lines.extend(f"  {diag}" for diag in diags)
        else:
            lines.append("  (none)")
        return lines

    def diagnostics(self) -> List[Diagnostic]:
        """Unified lint + mutability-provenance diagnostics (cached)."""
        if self._diagnostics is None:
            self._diagnostics = collect_diagnostics(
                self.flat, self.result, self.notes
            )
        return list(self._diagnostics)

    def text(self) -> str:
        """The full report as plain text."""
        sections = [
            self._equations_section(),
            self._edges_section(),
            self._triggering_section(),
            self._aliasing_section(),
            self._mutability_section(),
            self._diagnostics_section(),
        ]
        return "\n\n".join("\n".join(section) for section in sections)

    # -- DOT ------------------------------------------------------------------

    def dot(self) -> str:
        """GraphViz rendering with the mutability verdict colour-coded."""
        lines = ["digraph analysis {", "  rankdir=LR;"]
        for node in self.graph.nodes:
            if node in self.result.mutable:
                colour = ', style=filled, fillcolor="palegreen"'
            elif node in self.result.persistent:
                colour = ', style=filled, fillcolor="lightcoral"'
            else:
                colour = ""
            shape = "box" if self.flat.types[node].is_complex else "ellipse"
            lines.append(f'  "{node}" [shape={shape}{colour}];')
        for edge in self.graph.edges:
            style = "dashed" if edge.special else "solid"
            label = edge.cls.value if edge.cls is not EdgeClass.PLAIN else ""
            lines.append(
                f'  "{edge.src}" -> "{edge.dst}"'
                f' [style={style}, label="{label}"];'
            )
        for constraint in self.result.active_constraints:
            lines.append(
                f'  "{constraint.reader}" -> "{constraint.writer}"'
                ' [color=blue, style=dotted, label="before"];'
            )
        lines.append("}")
        return "\n".join(lines)

    def last_streams(self) -> List[str]:
        """All streams defined by ``last`` (for diagnostics)."""
        return [
            name
            for name, expr in self.flat.definitions.items()
            if isinstance(expr, Last)
        ]


def report(flat: FlatSpec) -> AnalysisReport:
    """Build an :class:`AnalysisReport` (type-checking *flat* if needed)."""
    return AnalysisReport(flat)
