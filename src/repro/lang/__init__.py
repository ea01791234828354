"""TeSSLa-like language core: types, AST, builtins, specifications."""

from . import macros
from .compose import compose, rename
from .lint import LintWarning, lint
from .prune import live_streams
from .ast import (
    Const,
    Default,
    Delay,
    Expr,
    Last,
    Lift,
    Merge,
    Nil,
    SLift,
    TimeExpr,
    UnitExpr,
    Var,
)
from .builtins import (
    Access,
    EventPattern,
    LiftedFunction,
    builtin,
    const_fn,
    register,
)
from .flatten import desugar, flatten
from .spec import FlatSpec, SpecError, Specification, spec
from .windows import AGGREGATES, AggregateInfo, WindowParams, eligibility_table
from .typecheck import check_types
from .types import (
    BOOL,
    FLOAT,
    INT,
    STR,
    TIME,
    UNIT,
    MapType,
    QueueType,
    SetType,
    Type,
    TypeVar,
    VectorType,
)

__all__ = [
    "AGGREGATES",
    "AggregateInfo",
    "WindowParams",
    "eligibility_table",
    "Access",
    "BOOL",
    "Const",
    "Default",
    "Delay",
    "EventPattern",
    "Expr",
    "FLOAT",
    "FlatSpec",
    "INT",
    "Last",
    "Lift",
    "LiftedFunction",
    "MapType",
    "Merge",
    "Nil",
    "QueueType",
    "SLift",
    "STR",
    "SetType",
    "SpecError",
    "Specification",
    "TIME",
    "TimeExpr",
    "Type",
    "TypeVar",
    "UNIT",
    "UnitExpr",
    "Var",
    "VectorType",
    "builtin",
    "check_types",
    "const_fn",
    "LintWarning",
    "compose",
    "desugar",
    "flatten",
    "lint",
    "live_streams",
    "macros",
    "rename",
    "register",
    "spec",
]
