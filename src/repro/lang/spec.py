"""Specifications: named equation systems over streams.

A TeSSLa specification (paper §II) is a set of equations assigning an
expression to every defined stream, together with declared input streams
and a subset of streams marked as outputs.  Validation enforces the
paper's well-formedness rule: recursive definitions are only allowed if
every dependency cycle passes through the *first* parameter of a
``last`` or ``delay`` expression (those are the "special" edges of the
usage graph, Def. 1).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .ast import Delay, Expr, Last, Var, free_vars
from .types import Type


class SpecError(Exception):
    """Raised for malformed specifications."""


class Specification:
    """An (unflattened) specification.

    Parameters
    ----------
    inputs:
        Mapping from input stream name to its value type.
    definitions:
        Mapping from defined stream name to its defining expression.
    outputs:
        Names of streams whose events the monitor reports.  Defaults to
        all defined streams.
    type_annotations:
        Optional explicit types for defined streams; used to seed type
        inference where it cannot make progress on its own (e.g. the
        element type of a set built from an empty constructor only).
    """

    def __init__(
        self,
        inputs: Mapping[str, Type],
        definitions: Mapping[str, Expr],
        outputs: Optional[Sequence[str]] = None,
        type_annotations: Optional[Mapping[str, Type]] = None,
    ) -> None:
        self.inputs: Dict[str, Type] = dict(inputs)
        self.definitions: Dict[str, Expr] = dict(definitions)
        self.outputs: List[str] = (
            list(outputs) if outputs is not None else list(self.definitions)
        )
        self.type_annotations: Dict[str, Type] = dict(type_annotations or {})
        #: Optional window metadata attached by the windowing macros
        #: (:mod:`repro.lang.windows`): carried through flattening so the
        #: diagnostics pass can report aggregate eligibility (WIN00x).
        self.window_info: Optional[Dict[str, object]] = None
        self.validate_names()

    # -- validation --------------------------------------------------------

    def validate_names(self) -> None:
        """Check name hygiene: no redefinition, no unresolved references."""
        overlap = set(self.inputs) & set(self.definitions)
        if overlap:
            raise SpecError(f"streams defined and declared as input: {sorted(overlap)}")
        known = set(self.inputs) | set(self.definitions)
        for name, expr in self.definitions.items():
            for used in free_vars(expr):
                if used not in known:
                    raise SpecError(f"definition of {name!r} uses unknown stream {used!r}")
        for out in self.outputs:
            if out not in known:
                raise SpecError(f"output {out!r} is not a known stream")

    def __repr__(self) -> str:
        return (
            f"Specification(inputs={sorted(self.inputs)}, "
            f"definitions={sorted(self.definitions)}, outputs={self.outputs})"
        )


class FlatSpec:
    """A flattened specification: one basic operator per equation.

    Every equation's sub-expressions are plain :class:`Var` references
    (paper §II: "A TeSSLa specification is called flat, if only stream
    names are used as sub-expressions inside the basic operators").
    Produced by :func:`repro.lang.flatten.flatten`; synthetic streams
    introduced by flattening are recorded in ``synthetic``.
    """

    def __init__(
        self,
        inputs: Mapping[str, Type],
        definitions: Mapping[str, Expr],
        outputs: Sequence[str],
        synthetic: Iterable[str] = (),
        type_annotations: Optional[Mapping[str, Type]] = None,
    ) -> None:
        self.inputs: Dict[str, Type] = dict(inputs)
        self.definitions: Dict[str, Expr] = dict(definitions)
        self.outputs: List[str] = list(outputs)
        self.synthetic: Set[str] = set(synthetic)
        self.type_annotations: Dict[str, Type] = dict(type_annotations or {})
        #: Stream types, filled in by the type checker.
        self.types: Dict[str, Type] = {}
        #: Window metadata (see :class:`Specification`), copied by
        #: :func:`repro.lang.flatten.flatten`.
        self.window_info: Optional[Dict[str, object]] = None
        self._check_flat()
        self.check_recursion()

    # -- structure ---------------------------------------------------------

    @property
    def streams(self) -> List[str]:
        """All stream names: inputs then definitions."""
        return list(self.inputs) + list(self.definitions)

    def _check_flat(self) -> None:
        from .ast import is_flat

        for name, expr in self.definitions.items():
            if isinstance(expr, Var):
                raise SpecError(
                    f"flat specification may not alias streams: {name} = {expr}"
                )
            if not is_flat(expr):
                raise SpecError(f"definition of {name!r} is not flat: {expr}")

    def special_dependencies(self, name: str) -> Set[str]:
        """First-parameter dependencies of ``last``/``delay`` (S edges)."""
        expr = self.definitions[name]
        if isinstance(expr, Last):
            assert isinstance(expr.value, Var)
            return {expr.value.name}
        if isinstance(expr, Delay):
            assert isinstance(expr.delay, Var)
            return {expr.delay.name}
        return set()

    def check_recursion(self) -> None:
        """Reject cycles that do not pass through a special edge.

        The dependency graph restricted to non-special edges must be
        acyclic (paper §II / Def. 2: a translation order exists exactly
        then).
        """
        non_special: Dict[str, Set[str]] = {}
        definitions = self.definitions
        for name, expr in definitions.items():
            # flat: every child is a Var (checked before this runs)
            special = self.special_dependencies(name)
            non_special[name] = {
                child.name
                for child in expr.children()
                if child.name not in special and child.name in definitions
            }
        state: Dict[str, int] = {}  # 0 visiting, 1 done

        def visit(node: str, stack: Tuple[str, ...]) -> None:
            status = state.get(node)
            if status == 1:
                return
            if status == 0:
                cycle = stack[stack.index(node):] + (node,)
                raise SpecError(
                    "illegal recursion (cycle without last/delay): "
                    + " -> ".join(cycle)
                )
            state[node] = 0
            for dep in non_special[node]:
                visit(dep, stack + (node,))
            state[node] = 1

        for name in self.definitions:
            visit(name, ())

    def __repr__(self) -> str:
        lines = [f"  {name} = {expr}" for name, expr in self.definitions.items()]
        header = f"FlatSpec(inputs={sorted(self.inputs)}, outputs={self.outputs})"
        return "\n".join([header] + lines)


def spec(
    inputs: Mapping[str, Type],
    outputs: Optional[Sequence[str]] = None,
    **definitions: Expr,
) -> Specification:
    """Convenience constructor for specifications in Python code."""
    return Specification(inputs, definitions, outputs)
