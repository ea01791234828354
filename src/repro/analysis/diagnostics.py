"""Unified static-analysis diagnostics (lint + mutability provenance).

Everything the compiler's static passes conclude about a specification
is surfaced here as :class:`Diagnostic` records with **stable codes**,
so results are auditable (why is this stream persistent?) and gateable
(fail CI on precision loss or spec foot-guns).  Three code families:

* ``LINT00x`` — the specification linter's foot-gun checks
  (:mod:`repro.lang.lint`), always warning severity;
* ``MUT00x`` — provenance of the aggregate-update analysis.  Streams
  demoted to persistent backends carry a machine-checkable *witness*
  (the offending rule, edge and alias explanation) as a note; analysis
  *precision losses* — implicant-cap or path-enumeration overflows,
  where a stream may be persistent only because the analysis gave up —
  are warnings;
* ``OPT00x`` — provenance of the spec-level rewrite optimizer
  (:mod:`repro.opt`), one note per applied (or guard-rejected)
  rewrite, attached by :meth:`repro.compiler.pipeline.CompiledSpec.diagnostics`
  when compiled with ``rewrite=True``; ``OPT008`` (write-then-read
  fusion) also on every default optimizing compile that fused a read.

The full catalogue lives in ``docs/analysis.md`` ("Diagnostics codes").

Output shapes: :func:`to_json` (a JSON array of the records, round-
trips through ``json.loads``) and :func:`to_sarif` (SARIF 2.1.0, for
code-scanning UIs).  The ``repro-compile lint`` subcommand exposes
both; ``--strict`` turns any diagnostic of warning severity or above
into a nonzero exit for CI gating.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..lang.lint import LINT_CODES, LintWarning, lint
from ..lang.spec import FlatSpec
from .mutability import (
    InputAggregateWitness,
    MutabilityResult,
    OrderingConflict,
    Rule1Violation,
    analyze_mutability,
)


class Severity(enum.IntEnum):
    """Diagnostic severity; ordered so severities can be compared."""

    NOTE = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()

    @property
    def sarif_level(self) -> str:
        return {"note": "note", "warning": "warning", "error": "error"}[
            self.label
        ]


#: code → (title, default severity); LINT_CODES (the slug → code map)
#: is owned by :mod:`repro.lang.lint`.
CATALOG: Dict[str, Any] = {
    "LINT001": ("starved strict lift", Severity.WARNING),
    "LINT002": ("dead stream", Severity.WARNING),
    "LINT003": ("unused input", Severity.WARNING),
    "LINT004": ("constant output", Severity.WARNING),
    "LINT005": ("never-firing stream", Severity.WARNING),
    "MUT001": ("double write/reproduction (rule 1)", Severity.NOTE),
    "MUT002": ("read-before-write ordering conflict", Severity.NOTE),
    "MUT003": ("input aggregate family", Severity.NOTE),
    "MUT004": ("triggering implication unknown (cap)", Severity.WARNING),
    "MUT005": ("alias path enumeration overflow", Severity.WARNING),
    "OPT001": ("duplicate stream eliminated", Severity.NOTE),
    "OPT002": ("identity lift eliminated", Severity.NOTE),
    "OPT003": ("lifts fused", Severity.NOTE),
    "OPT004": ("constant expression folded", Severity.NOTE),
    "OPT005": ("dead stream eliminated", Severity.NOTE),
    "OPT006": ("never-firing stream normalized to nil", Severity.NOTE),
    "OPT007": ("rewrite rejected by mutable-share guard", Severity.NOTE),
    "OPT008": ("write-then-read fused", Severity.NOTE),
    "VEC001": ("vector-ineligible stream (codegen fallback)", Severity.NOTE),
    "VEC002": ("vector engine unavailable (numpy missing)", Severity.NOTE),
    "WIN001": ("window aggregate on the O(1) delta path", Severity.NOTE),
    "WIN002": ("window aggregate recomputed by fold", Severity.NOTE),
    "WIN003": ("window parameter conflict", Severity.WARNING),
}


@dataclass
class Diagnostic:
    """One structured diagnostic record.

    ``witness`` is a JSON-serializable payload that makes the claim
    machine-checkable — for persistence diagnostics it names the rule
    and the offending edge/path, for overflow diagnostics the query and
    the cap that was hit.
    """

    code: str
    severity: Severity
    stream: str
    message: str
    source: str  # "lint" | "mutability" | "triggering" | "aliasing"
    witness: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        rule = self.witness.get("rule")
        tag = f"{self.code}:{rule}" if rule else self.code
        return (
            f"[{tag}] {self.severity.label} {self.stream}:"
            f" {self.message}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity.label,
            "stream": self.stream,
            "message": self.message,
            "source": self.source,
            "witness": self.witness,
        }


# -- lint unification --------------------------------------------------------


def lint_diagnostic(warning: LintWarning) -> Diagnostic:
    """Lift a legacy :class:`LintWarning` into a :class:`Diagnostic`."""
    return Diagnostic(
        code=LINT_CODES.get(warning.code, "LINT000"),
        severity=Severity.WARNING,
        stream=warning.stream,
        message=warning.message,
        source="lint",
        witness={"rule": warning.code},
    )


# -- mutability provenance ---------------------------------------------------


def _witness_payload(witness: Any) -> Dict[str, Any]:
    """Serialize one persistence witness to a JSON-safe mapping."""
    if isinstance(witness, Rule1Violation):
        payload: Dict[str, Any] = {
            "rule": "no-double-write",
            "written": witness.written,
            "write_target": witness.write_target,
            "alias": witness.alias,
            "conflict": witness.conflict,
            "conflict_class": witness.conflict_class.value,
            "edge": list(witness.edge),
        }
        if witness.alias_reason is not None:
            payload["alias_reason"] = witness.alias_reason
        return payload
    if isinstance(witness, OrderingConflict):
        return {
            "rule": "read-before-write-cycle",
            "family": sorted(witness.family),
            "dropped_constraints": [
                {
                    "reader": c.reader,
                    "writer": c.writer,
                    "written": c.written,
                    "edge": list(c.edge),
                }
                for c in witness.dropped
            ],
        }
    if isinstance(witness, InputAggregateWitness):
        return {"rule": "input-aggregate", "input": witness.input_stream}
    return {"rule": "unknown", "repr": repr(witness)}  # pragma: no cover


def _witness_code(witness: Any) -> str:
    if isinstance(witness, Rule1Violation):
        return "MUT001"
    if isinstance(witness, OrderingConflict):
        return "MUT002"
    if isinstance(witness, InputAggregateWitness):
        return "MUT003"
    return "MUT000"  # pragma: no cover


def _witness_message(witness: Any) -> str:
    if isinstance(witness, Rule1Violation):
        reason = ""
        if witness.alias_reason and witness.alias_reason.get(
            "replicating_lasts"
        ):
            lasts = ", ".join(witness.alias_reason["replicating_lasts"])
            reason = f" (alias reproduced by replicating last {lasts})"
        return (
            f"persistent backend forced by rule 1: write"
            f" {witness.written} -> {witness.write_target} conflicts with"
            f" alias {witness.alias}"
            f" -[{witness.conflict_class.value}]-> {witness.conflict}"
            + reason
        )
    if isinstance(witness, OrderingConflict):
        edges = ", ".join(f"{r} < {w}" for r, w in witness.edges)
        return (
            "persistent backend forced by rule 2: read-before-write"
            f" constraints [{edges}] participate in a dependency cycle;"
            " the family was the minimum-weight drop"
        )
    if isinstance(witness, InputAggregateWitness):
        return (
            "persistent backend forced: family contains the input"
            f" aggregate {witness.input_stream!r} whose construction the"
            " monitor does not control"
        )
    return f"persistent backend forced ({witness!r})"  # pragma: no cover


def mutability_diagnostics(result: MutabilityResult) -> List[Diagnostic]:
    """Provenance of *result* as diagnostics.

    One ``MUT001``/``MUT002``/``MUT003`` note per (persistent stream,
    witness) pair, plus one ``MUT004``/``MUT005`` warning per recorded
    precision loss.
    """
    diags: List[Diagnostic] = []
    for stream, witnesses in sorted(result.witnesses.items()):
        for witness in witnesses:
            diags.append(
                Diagnostic(
                    code=_witness_code(witness),
                    severity=CATALOG[_witness_code(witness)][1],
                    stream=stream,
                    message=_witness_message(witness),
                    source="mutability",
                    witness=_witness_payload(witness),
                )
            )
    for u, v, cap in result.implication_unknowns:
        diags.append(
            Diagnostic(
                code="MUT004",
                severity=Severity.WARNING,
                stream=u,
                message=(
                    f"implication ev'({u}) → ev'({v}) undecided: prime-"
                    f"implicant expansion exceeded the cap ({cap});"
                    " assumed non-implication — streams may be persistent"
                    " only because of this precision loss"
                ),
                source="triggering",
                witness={
                    "rule": "implication-unknown",
                    "premise": u,
                    "conclusion": v,
                    "cap": cap,
                },
            )
        )
    for u, v, ancestor in result.alias_path_overflows:
        diags.append(
            Diagnostic(
                code="MUT005",
                severity=Severity.WARNING,
                stream=u,
                message=(
                    f"alias check {u} ≃ {v} degraded to 'potential alias':"
                    f" P/L path enumeration under ancestor {ancestor!r}"
                    " overflowed the path limit"
                ),
                source="aliasing",
                witness={
                    "rule": "alias-path-overflow",
                    "pair": [u, v],
                    "ancestor": ancestor,
                },
            )
        )
    return diags


def window_diagnostics(flat: FlatSpec) -> List[Diagnostic]:
    """Eligibility notes for specs built by the windowing macros.

    Reads the ``window_info`` metadata the macros attach (and flattening
    carries over): which streams maintain the aggregate by O(1) deltas
    (WIN001) vs. O(window) fold recomputation (WIN002), plus parameter
    combinations the macro ignored (WIN003).
    """
    info = getattr(flat, "window_info", None)
    if not info:
        return []
    diags: List[Diagnostic] = []
    describe = info.get("describe", info.get("kind", "window"))
    aggregate = info.get("aggregate", "?")
    for stream in info.get("delta_streams", ()):
        diags.append(
            Diagnostic(
                code="WIN001",
                severity=Severity.NOTE,
                stream=stream,
                message=(
                    f"{describe} {aggregate}: invertible aggregate maintained"
                    " by delta updates (add new, subtract expired)"
                ),
                source="window",
                witness={"rule": "delta-path", "aggregate": aggregate},
            )
        )
    for stream in info.get("fold_streams", ()):
        diags.append(
            Diagnostic(
                code="WIN002",
                severity=Severity.NOTE,
                stream=stream,
                message=(
                    f"{describe} {aggregate}: no inverse — recomputed by"
                    " folding over the window contents"
                ),
                source="window",
                witness={"rule": "fold-fallback", "aggregate": aggregate},
            )
        )
    output = info.get("output", "win")
    for conflict in info.get("conflicts", ()):
        diags.append(
            Diagnostic(
                code="WIN003",
                severity=Severity.WARNING,
                stream=output,
                message=f"{describe}: {conflict}",
                source="window",
                witness={"rule": "parameter-conflict"},
            )
        )
    return diags


def collect_diagnostics(
    flat: FlatSpec,
    result: Optional[MutabilityResult] = None,
    notes: Sequence[Diagnostic] = (),
) -> List[Diagnostic]:
    """Lint warnings + analysis provenance for one specification.

    *notes* are diagnostics of the passes that produced *flat* (the
    ``OPT008`` fusion notes of a compiled spec); they are merged into
    the sorted list.
    """
    if result is None:
        result = analyze_mutability(flat)
    diags = [lint_diagnostic(w) for w in lint(flat)]
    diags.extend(mutability_diagnostics(result))
    diags.extend(window_diagnostics(flat))
    diags.extend(notes)
    return sorted(diags, key=lambda d: (d.code, d.stream, d.message))


# -- gating ------------------------------------------------------------------


def max_severity(diags: Iterable[Diagnostic]) -> Optional[Severity]:
    severities = [d.severity for d in diags]
    return max(severities) if severities else None


def strict_failures(diags: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Diagnostics that fail a ``--strict`` run (severity ≥ warning)."""
    return [d for d in diags if d.severity >= Severity.WARNING]


# -- serialisation -----------------------------------------------------------


def to_json(diags: Sequence[Diagnostic], indent: Optional[int] = 2) -> str:
    """The diagnostics as a JSON array (stable, ``json.loads``-safe)."""
    return json.dumps([d.to_dict() for d in diags], indent=indent)


def to_sarif(
    diags: Sequence[Diagnostic],
    tool_name: str = "repro-lint",
    spec_uri: str = "spec.tessla",
) -> Dict[str, Any]:
    """A SARIF 2.1.0 log object for code-scanning consumers.

    Streams have no source positions in the flattened representation,
    so results carry logical locations (the stream name) rather than
    physical regions.
    """
    rules = []
    for code in sorted({d.code for d in diags}):
        title = CATALOG.get(code, (code, Severity.NOTE))[0]
        rules.append({"id": code, "shortDescription": {"text": title}})
    results = [
        {
            "ruleId": d.code,
            "level": d.severity.sarif_level,
            "message": {"text": f"{d.stream}: {d.message}"},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": spec_uri}
                    },
                    "logicalLocations": [
                        {"name": d.stream, "kind": "variable"}
                    ],
                }
            ],
            "properties": {"witness": d.witness, "source": d.source},
        }
        for d in diags
    ]
    return {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
            "Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool_name,
                        "informationUri": "https://example.invalid/repro",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
