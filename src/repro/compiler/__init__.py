"""Compiler backend: code generation and the monitor runtime (paper §III)."""

from .checkpoint import (
    CheckpointError,
    CheckpointManager,
    latest_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from .codegen import CodegenError, CodeGenerator, generate_monitor_class
from .monitor import (
    MonitorBase,
    MonitorError,
    UNIT_VALUE,
    collecting_callback,
    counting_callback,
    freeze,
)
from .pipeline import (
    CompiledSpec,
    build_compiled_spec,
    build_compiled_spec_from_text,
)
from .plancache import PlanCache, flat_fingerprint, plan_fingerprint
from .runtime import (
    MonitorRunner,
    RunReport,
    validate_value,
)

__all__ = [
    "CheckpointError",
    "CheckpointManager",
    "CodeGenerator",
    "CodegenError",
    "CompiledSpec",
    "MonitorBase",
    "MonitorError",
    "MonitorRunner",
    "PlanCache",
    "RunReport",
    "UNIT_VALUE",
    "build_compiled_spec",
    "build_compiled_spec_from_text",
    "collecting_callback",
    "counting_callback",
    "flat_fingerprint",
    "freeze",
    "generate_monitor_class",
    "latest_checkpoint",
    "plan_fingerprint",
    "read_checkpoint",
    "validate_value",
    "write_checkpoint",
]
