"""Specification linter.

Multi-clocked languages have a classic foot-gun: a constant is a stream
with a *single* event at timestamp 0, so a strict (ALL-pattern) lift
over a constant and a live stream fires at most once — almost never
what the author meant (they wanted ``slift``, ``default`` or a baked-in
constant).  The linter detects this and a few related diagnoses
statically; the CLI prints the warnings with ``analyze``.

Checks:

* **starved lift** — a strict lift mixing zero-only streams (events at
  timestamp 0 only) with live streams;
* **dead stream** — a defined stream no output depends on;
* **unused input** — an input no defined stream reads;
* **constant output** — an output that provably only ever fires at
  timestamp 0;
* **never fires** — a defined stream (other than an explicit ``nil``)
  that provably never produces any event.

Each check's slug maps to a stable ``LINT00x`` code (``LINT_CODES``)
used by the unified diagnostics layer
(:mod:`repro.analysis.diagnostics`) and catalogued in
``docs/analysis.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from .ast import Delay, Last, Lift, Nil, TimeExpr, UnitExpr, free_vars
from .builtins import EventPattern
from .prune import live_streams
from .spec import FlatSpec

#: check slug → stable diagnostic code (see docs/analysis.md).
LINT_CODES: Dict[str, str] = {
    "starved-lift": "LINT001",
    "dead-stream": "LINT002",
    "unused-input": "LINT003",
    "constant-output": "LINT004",
    "never-fires": "LINT005",
}


@dataclass(frozen=True)
class LintWarning:
    """One diagnostic: a code (stable identifier) and a message."""

    code: str
    stream: str
    message: str

    @property
    def diagnostic_code(self) -> str:
        """The stable ``LINT00x`` code for the unified diagnostics layer."""
        return LINT_CODES.get(self.code, "LINT000")

    def __str__(self) -> str:
        return f"[{self.code}] {self.stream}: {self.message}"


def zero_only_streams(flat: FlatSpec) -> Set[str]:
    """Streams whose events provably all lie at timestamp 0.

    Greatest fixpoint: start from "everything zero-only" and strike out
    streams that can provably fire later (inputs, delays); strict lifts
    are zero-only if ANY argument is, lenient ones only if ALL are.
    """
    zero_only = set(flat.definitions)
    changed = True
    while changed:
        changed = False
        for name, expr in flat.definitions.items():
            if name not in zero_only:
                continue
            if not _zero_only_now(expr, zero_only):
                zero_only.discard(name)
                changed = True
    return zero_only


def _zero_only_now(expr, zero_only: Set[str]) -> bool:
    if isinstance(expr, (Nil, UnitExpr)):
        return True
    if isinstance(expr, TimeExpr):
        return expr.operand.name in zero_only
    if isinstance(expr, Last):
        # a last fires only when its trigger does (and never at 0)
        return expr.trigger.name in zero_only
    if isinstance(expr, Delay):
        return False
    assert isinstance(expr, Lift)
    flags = [arg.name in zero_only for arg in expr.args]
    if expr.func.pattern is EventPattern.ALL:
        return any(flags)
    return all(flags)


def may_fire_streams(flat: FlatSpec) -> Set[str]:
    """Streams that may produce at least one event (over-approximation).

    Least fixpoint seeded with the inputs and ``unit``: a lift needs all
    (strict) or any (lenient/custom) argument to fire; a ``last`` needs
    both its value and its trigger; a ``delay`` needs its delay operand.
    The complement is a sound "provably never fires" set.
    """
    may: Set[str] = set(flat.inputs)
    changed = True
    while changed:
        changed = False
        for name, expr in flat.definitions.items():
            if name in may:
                continue
            if _may_fire_now(expr, may):
                may.add(name)
                changed = True
    return may


def _may_fire_now(expr, may: Set[str]) -> bool:
    if isinstance(expr, Nil):
        return False
    if isinstance(expr, UnitExpr):
        return True
    if isinstance(expr, TimeExpr):
        return expr.operand.name in may
    if isinstance(expr, Last):
        return expr.value.name in may and expr.trigger.name in may
    if isinstance(expr, Delay):
        return expr.delay.name in may
    assert isinstance(expr, Lift)
    flags = [arg.name in may for arg in expr.args]
    if expr.func.pattern is EventPattern.ALL:
        return all(flags)
    # Lenient and custom lifts fire at most when some argument does.
    return any(flags)


def lint(flat: FlatSpec) -> List[LintWarning]:
    """Run all checks; returns warnings sorted by stream name."""
    warnings: List[LintWarning] = []
    zero_only = zero_only_streams(flat)

    for name, expr in flat.definitions.items():
        if (
            isinstance(expr, Lift)
            and expr.func.pattern is EventPattern.ALL
            and len(expr.args) > 1
        ):
            starving = [a.name for a in expr.args if a.name in zero_only]
            live = [a.name for a in expr.args if a.name not in zero_only]
            if starving and live:
                warnings.append(
                    LintWarning(
                        "starved-lift",
                        name,
                        f"strict lift {expr.func.name!r} mixes the"
                        f" timestamp-0-only stream(s) {starving} with live"
                        f" stream(s) {live}; it can only fire at timestamp 0"
                        " — consider slift, default(...) or a baked-in"
                        " constant",
                    )
                )

    live = live_streams(flat)
    for name in flat.definitions:
        if name not in live:
            warnings.append(
                LintWarning(
                    "dead-stream",
                    name,
                    "no output depends on this stream; it will be computed"
                    " but never observed (compile with rewrite=True to"
                    " drop it)",
                )
            )

    used: Dict[str, bool] = {name: False for name in flat.inputs}
    for expr in flat.definitions.values():
        for var in free_vars(expr):
            if var in used:
                used[var] = True
    for name, was_used in used.items():
        if not was_used:
            warnings.append(
                LintWarning(
                    "unused-input",
                    name,
                    "declared as input but never read by any definition",
                )
            )

    for name in flat.outputs:
        if name in zero_only:
            warnings.append(
                LintWarning(
                    "constant-output",
                    name,
                    "this output can only ever fire at timestamp 0",
                )
            )

    may_fire = may_fire_streams(flat)
    for name, expr in flat.definitions.items():
        if name not in may_fire and not isinstance(expr, Nil):
            warnings.append(
                LintWarning(
                    "never-fires",
                    name,
                    "this stream provably never produces an event (its"
                    " dependencies can never fire together); if that is"
                    " intentional, define it as nil",
                )
            )
    return sorted(warnings, key=lambda w: (w.code, w.stream))
