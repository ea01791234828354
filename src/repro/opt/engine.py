"""Fixpoint rewrite engine with mutable-share certification.

:func:`optimize_flat` drives the rule catalogue of
:mod:`repro.opt.rewrite` to a fixpoint over a flattened specification.
Per iteration every rule proposes candidates; when the spec contains
aggregate streams the engine *certifies* each candidate by re-running
:func:`repro.analysis.mutability.analyze_mutability` on the rewritten
spec and rejecting any rewrite that would demote a currently-mutable
stream to a persistent backend.  Surviving candidates are ranked by the
certified mutable-share gain (then by catalogue order), so the rewrite
that most grows the mutable share is applied first.

Everything that happened — applied and rejected alike — is kept as
:class:`repro.opt.rewrite.RewriteRecord` provenance and surfaced as
``OPT00x`` diagnostics; per-rule fired counters land on the obs
registry (``opt.rules.<CODE>.fired``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.mutability import MutabilityResult, analyze_mutability
from ..lang.spec import FlatSpec
from ..obs.metrics import DEFAULT_REGISTRY, MetricsRegistry
from .rewrite import ALL_RULES, Candidate, RewriteRecord, RewriteRule

__all__ = ["OptimizationResult", "optimize_flat", "record_diagnostics"]


def _has_aggregates(flat: FlatSpec) -> bool:
    if not flat.types:
        return False
    return any(t.is_complex for t in flat.types.values())


def _demotions(
    before: Set[str], after: Set[str], candidate: Candidate
) -> List[str]:
    """Streams mutable before the rewrite whose image is not mutable
    after it."""
    demoted = []
    for stream in before:
        target = candidate.renamed.get(stream, stream)
        if stream in candidate.removed and target == stream:
            continue  # removed outright (e.g. a dead family)
        if target not in after:
            demoted.append(stream)
    return sorted(demoted)


@dataclass
class OptimizationResult:
    """Outcome of one :func:`optimize_flat` run."""

    flat: FlatSpec
    records: List[RewriteRecord]
    fired: Dict[str, int]
    streams_before: int
    streams_after: int
    #: certified mutable-variable counts (``None`` when the spec has no
    #: aggregate streams, so no certification ran).
    mutable_before: Optional[int]
    mutable_after: Optional[int]
    #: the final :class:`MutabilityResult` (certify mode only) — the
    #: compiler pipeline reuses it instead of re-analyzing.
    analysis: Optional[MutabilityResult]
    #: original stream name → final stream name for every stream whose
    #: uses were redirected by an applied rewrite.
    renames: Dict[str, str] = field(default_factory=dict)
    #: every stream removed by an applied rewrite.
    removed: Tuple[str, ...] = ()

    @property
    def applied(self) -> List[RewriteRecord]:
        return [r for r in self.records if r.applied]

    @property
    def rejected(self) -> List[RewriteRecord]:
        return [r for r in self.records if not r.applied]

    def diagnostics(self) -> List["Diagnostic"]:
        """The provenance records as ``OPT00x`` diagnostics (see
        :func:`record_diagnostics`)."""
        return record_diagnostics(self.records)

    def summary(self) -> Dict[str, object]:
        """JSON-safe summary (CLI ``--json`` and benchmarks)."""
        return {
            "streams_before": self.streams_before,
            "streams_after": self.streams_after,
            "mutable_before": self.mutable_before,
            "mutable_after": self.mutable_after,
            "applied": len(self.applied),
            "rejected": len(self.rejected),
            "fired": dict(self.fired),
            "renames": dict(self.renames),
            "removed": list(self.removed),
            "records": [r.to_dict() for r in self.records],
        }


def record_diagnostics(records: List[RewriteRecord]) -> List["Diagnostic"]:
    """Rewrite provenance records as ``OPT00x`` diagnostics.

    Applied rewrites keep their rule code; certification rejections
    are surfaced as ``OPT007`` so a spec author can see which rewrites
    the mutable-share guard vetoed (and why).
    """
    from ..analysis.diagnostics import CATALOG, Diagnostic, Severity

    diags = []
    for record in records:
        code = record.code if record.applied else "OPT007"
        witness = {
            "rule": record.rule,
            "applied": record.applied,
            "detail": record.detail,
            "removed": list(record.removed),
            "renamed": dict(record.renamed),
        }
        if record.mutable_before is not None:
            witness["mutable_before"] = record.mutable_before
            witness["mutable_after"] = record.mutable_after
        message = record.description
        if not record.applied and record.reason:
            message = f"{record.description} — rejected: {record.reason}"
        diags.append(
            Diagnostic(
                code=code,
                severity=CATALOG.get(code, (code, Severity.NOTE))[1],
                stream=record.stream,
                message=message,
                source="optimizer",
                witness=witness,
            )
        )
    return sorted(diags, key=lambda d: (d.code, d.stream, d.message))


def _gather(
    rules: Tuple[RewriteRule, ...],
    flat: FlatSpec,
    rejected_keys: Set[Tuple],
) -> List[Tuple[int, Candidate]]:
    out: List[Tuple[int, Candidate]] = []
    for index, rule in enumerate(rules):
        for candidate in rule.candidates(flat):
            if candidate.key in rejected_keys:
                continue
            out.append((index, candidate))
    return out


def optimize_flat(
    flat: FlatSpec,
    certify: bool = True,
    max_steps: Optional[int] = None,
    rules: Tuple[RewriteRule, ...] = ALL_RULES,
    metrics: Optional[MetricsRegistry] = None,
) -> OptimizationResult:
    """Rewrite *flat* to a fixpoint; never demote a mutable stream.

    ``certify=False`` skips the mutability re-analysis around every
    candidate (used when the caller compiles without the mutability
    optimization anyway — the rewrites are semantics-preserving either
    way, only the ranking signal is lost).
    """
    registry = DEFAULT_REGISTRY if metrics is None else metrics
    certify = certify and _has_aggregates(flat)
    analysis = analyze_mutability(flat) if certify else None
    mutable_before = len(analysis.mutable) if analysis else None
    streams_before = len(flat.definitions)

    records: List[RewriteRecord] = []
    fired: Counter = Counter()
    renames: Dict[str, str] = {}
    removed: List[str] = []
    rejected_keys: Set[Tuple] = set()

    if max_steps is None:
        max_steps = 32 + 4 * len(flat.definitions)

    for _ in range(max_steps):
        candidates = _gather(rules, flat, rejected_keys)
        if not candidates:
            break

        chosen: Optional[Tuple[int, Candidate, FlatSpec]] = None
        chosen_analysis: Optional[MutabilityResult] = None
        if certify:
            assert analysis is not None
            ranked = []
            for rule_index, candidate in candidates:
                try:
                    rewritten = candidate.apply(flat)
                    after = analyze_mutability(rewritten)
                except Exception as exc:  # defensive: a rule misfired
                    rejected_keys.add(candidate.key)
                    records.append(
                        RewriteRecord(
                            code=candidate.rule.code,
                            rule=candidate.rule.name,
                            stream=candidate.stream,
                            description=candidate.description,
                            applied=False,
                            detail=candidate.detail,
                            removed=candidate.removed,
                            renamed=candidate.renamed,
                            reason=f"rewrite failed to re-analyze: {exc!r}",
                        )
                    )
                    registry.inc("opt.rewrites.rejected")
                    continue
                demoted = _demotions(
                    analysis.mutable, after.mutable, candidate
                )
                if demoted:
                    rejected_keys.add(candidate.key)
                    records.append(
                        RewriteRecord(
                            code=candidate.rule.code,
                            rule=candidate.rule.name,
                            stream=candidate.stream,
                            description=candidate.description,
                            applied=False,
                            detail=candidate.detail,
                            removed=candidate.removed,
                            renamed=candidate.renamed,
                            mutable_before=len(analysis.mutable),
                            mutable_after=len(after.mutable),
                            reason=(
                                "would demote mutable stream(s)"
                                f" {demoted} to a persistent backend"
                            ),
                        )
                    )
                    registry.inc("opt.rewrites.rejected")
                    continue
                gain = len(after.mutable) - len(analysis.mutable)
                ranked.append(
                    (-gain, rule_index, candidate.key, candidate, rewritten, after)
                )
            if not ranked:
                break
            ranked.sort(key=lambda item: item[:3])
            _, rule_index, _, candidate, rewritten, after = ranked[0]
            chosen = (rule_index, candidate, rewritten)
            chosen_analysis = after
        else:
            rule_index, candidate = min(
                candidates, key=lambda item: (item[0], item[1].key)
            )
            try:
                rewritten = candidate.apply(flat)
            except Exception as exc:  # defensive: a rule misfired
                rejected_keys.add(candidate.key)
                records.append(
                    RewriteRecord(
                        code=candidate.rule.code,
                        rule=candidate.rule.name,
                        stream=candidate.stream,
                        description=candidate.description,
                        applied=False,
                        detail=candidate.detail,
                        removed=candidate.removed,
                        renamed=candidate.renamed,
                        reason=f"rewrite failed to apply: {exc!r}",
                    )
                )
                registry.inc("opt.rewrites.rejected")
                continue
            chosen = (rule_index, candidate, rewritten)

        _, candidate, flat = chosen
        records.append(
            RewriteRecord(
                code=candidate.rule.code,
                rule=candidate.rule.name,
                stream=candidate.stream,
                description=candidate.description,
                applied=True,
                detail=candidate.detail,
                removed=candidate.removed,
                renamed=candidate.renamed,
                mutable_before=(
                    len(analysis.mutable) if analysis is not None else None
                ),
                mutable_after=(
                    len(chosen_analysis.mutable)
                    if chosen_analysis is not None
                    else None
                ),
            )
        )
        fired[candidate.rule.code] += 1
        registry.inc("opt.rewrites.applied")
        registry.inc(f"opt.rules.{candidate.rule.code}.fired")
        if chosen_analysis is not None:
            analysis = chosen_analysis
        # compose the rename/removal maps through this application
        for source, target in candidate.renamed.items():
            final = renames.get(target, target)
            renames[source] = final
            for already, landed in list(renames.items()):
                if landed == source:
                    renames[already] = final
        removed.extend(candidate.removed)

    return OptimizationResult(
        flat=flat,
        records=records,
        fired=dict(fired),
        streams_before=streams_before,
        streams_after=len(flat.definitions),
        mutable_before=mutable_before,
        mutable_after=len(analysis.mutable) if analysis else None,
        analysis=analysis,
        renames=renames,
        removed=tuple(dict.fromkeys(removed)),
    )
