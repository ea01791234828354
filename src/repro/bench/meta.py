"""Provenance metadata stamped into every ``BENCH_*.json`` artifact.

A benchmark number without its commit is unreproducible and silently
goes stale; downstream tooling (CI artifact diffing, the scaling
curves in the docs) relies on every artifact carrying the same
``meta`` block.
"""

from __future__ import annotations

import datetime
import os
import platform
import subprocess
from typing import Dict, Optional


def _git_commit(cwd: Optional[str] = None) -> Optional[str]:
    """The current commit hash, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=cwd,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    commit = out.stdout.strip()
    return commit or None


def bench_metadata(
    cwd: Optional[str] = None,
    *,
    pool_backend: Optional[str] = None,
    retries: Optional[int] = None,
    fault_injection: Optional[Dict[str, object]] = None,
    transport: Optional[str] = None,
    payload_bytes: Optional[Dict[str, int]] = None,
) -> Dict[str, object]:
    """The standard provenance block for benchmark JSON artifacts.

    Keys: ``commit`` (full hash or None), ``timestamp`` (ISO 8601,
    UTC), ``python``, ``platform``, ``cpus``.

    Pool benchmarks additionally stamp their execution conditions —
    ``pool_backend`` (which worker backend produced the numbers),
    ``retries`` (supervision retries absorbed during the run),
    ``fault_injection`` (the chaos configuration, if any),
    ``transport`` (the resolved trace data path: ``pipe`` or
    ``inline``) and ``payload_bytes`` (bytes moved per data path, e.g.
    ``{"pickled": ...}``) — so a BENCH artifact from a chaos run or a
    sequential fallback can never be mistaken for a clean pool run.
    These keys appear only when given.
    """
    meta: Dict[str, object] = {
        "commit": _git_commit(cwd),
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds")
        .replace("+00:00", "Z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    }
    if pool_backend is not None:
        meta["pool_backend"] = pool_backend
    if retries is not None:
        meta["retries"] = retries
    if fault_injection is not None:
        meta["fault_injection"] = fault_injection
    if transport is not None:
        meta["transport"] = transport
    if payload_bytes is not None:
        meta["payload_bytes"] = payload_bytes
    return meta


__all__ = ["bench_metadata"]
