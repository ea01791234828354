"""Spec-level rewrite optimizer.

A static-analysis + rewrite subsystem over flattened specifications,
run *before* the aliasing/mutability analysis: hash-consed duplicate-
stream elimination, identity-lift elimination, lift fusion, constant-
clock folding, never-firing (``last``/``delay``) normalization and
dead-stream elimination — each rewrite certified to never demote a
mutable variable, ranked by the mutable share it unlocks, and recorded
as ``OPT00x`` provenance diagnostics.  Write-then-read fusion
(``OPT008``, :func:`fuse_write_reads`) is one linear pass that the
optimizing compile runs after them.

Entry points: :func:`optimize_flat` (engine),
:data:`ALL_RULES` (the rule catalogue), :func:`project_live` (the
dead-stream projection).

``RULESET_VERSION`` participates in the plan-cache fingerprint: bump it
whenever a rule's behaviour changes so cached plans built under the old
rule set can never be served for the new one.
"""

from .engine import OptimizationResult, optimize_flat
from .rewrite import (
    ALL_RULES,
    Candidate,
    FusedFunction,
    RewriteRecord,
    RewriteRule,
    fuse_write_reads,
    project_live,
    unfold_fused,
)

#: Version of the rewrite-rule catalogue, included in plan-cache
#: fingerprints (see ``repro.compiler.plancache``).
RULESET_VERSION = 1

__all__ = [
    "ALL_RULES",
    "Candidate",
    "FusedFunction",
    "OptimizationResult",
    "RULESET_VERSION",
    "RewriteRecord",
    "RewriteRule",
    "fuse_write_reads",
    "optimize_flat",
    "project_live",
    "unfold_fused",
]
