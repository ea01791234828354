"""repro — Aggregate Update Optimization for Multi-clocked Dataflow Languages.

A Python reproduction of "Aggregate Update Problem for Multi-clocked
Dataflow Languages" (CGO 2022): a TeSSLa-like timed-event-stream
language, the static triggering/aliasing/mutability analysis that
decides which aggregate data structures a generated monitor may update
in place, and a compiler emitting Python monitors that mix mutable and
persistent (HAMT-based) collections accordingly.

Quick start::

    from repro import api

    monitor = api.compile('''
        in i: Int
        def m  := merge(y, set_empty(unit))
        def yl := last(m, i)
        def y  := set_add(yl, i)
        def s  := set_contains(yl, i)
        out s
    ''')                                   # optimized: set updated in place
    outputs = monitor.run_traces({"i": [(1, 4), (2, 7), (3, 4)]})
    print(outputs["s"].events)             # [(1, False), (2, False), (3, True)]

``api.compile``/``api.run`` with :class:`~repro.api.CompileOptions` and
:class:`~repro.api.RunOptions` cover the full option space (engines,
plan cache, batching, checkpoints, tolerant ingestion) — see
docs/api.md.  See DESIGN.md for the system inventory and
EXPERIMENTS.md for the paper-vs-measured evaluation results.
"""

from . import api
from .analysis import (
    AliasAnalysis,
    MutabilityAnalysis,
    MutabilityResult,
    TriggeringAnalysis,
    analyze_mutability,
)
from .api import CompileOptions, Monitor, RunOptions
from .compiler import (
    CompiledSpec,
    MonitorBase,
    MonitorError,
    MonitorRunner,
    PlanCache,
    RunReport,
    build_compiled_spec,
    freeze,
)
from .errors import ErrorPolicy, ErrorValue, LiftError, is_error
from .frontend import FrontendError, parse_spec
from .graph import EdgeClass, UsageGraph, build_usage_graph, translation_order
from .lang import (
    BOOL,
    Const,
    Default,
    Delay,
    FLOAT,
    FlatSpec,
    INT,
    Last,
    Lift,
    MapType,
    Merge,
    Nil,
    QueueType,
    STR,
    SetType,
    SpecError,
    Specification,
    TimeExpr,
    UNIT,
    UnitExpr,
    Var,
    VectorType,
    check_types,
    flatten,
)
from .semantics import Stream, interpret
from .structures import AliasGuardError, Backend

__version__ = "1.0.0"

__all__ = [
    "AliasAnalysis",
    "AliasGuardError",
    "BOOL",
    "Backend",
    "CompileOptions",
    "CompiledSpec",
    "Const",
    "Default",
    "Delay",
    "EdgeClass",
    "ErrorPolicy",
    "ErrorValue",
    "FLOAT",
    "FlatSpec",
    "FrontendError",
    "INT",
    "Last",
    "Lift",
    "LiftError",
    "MapType",
    "Merge",
    "Monitor",
    "MonitorBase",
    "MonitorError",
    "MonitorRunner",
    "MutabilityAnalysis",
    "MutabilityResult",
    "Nil",
    "PlanCache",
    "QueueType",
    "RunOptions",
    "RunReport",
    "STR",
    "SetType",
    "SpecError",
    "Specification",
    "Stream",
    "TimeExpr",
    "TriggeringAnalysis",
    "UNIT",
    "UnitExpr",
    "UsageGraph",
    "Var",
    "VectorType",
    "analyze_mutability",
    "api",
    "build_usage_graph",
    "check_types",
    "build_compiled_spec",
    "flatten",
    "freeze",
    "interpret",
    "is_error",
    "parse_spec",
    "translation_order",
]
