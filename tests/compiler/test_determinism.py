"""Family plans are deterministic and alias-safe.

Stable across repeated runs and across ``PYTHONHASHSEED`` values, and
— property-tested on generated specifications — every live derived
stream is covered, anchored streams are covered exactly once, and no
potential-alias class is ever split across families.
"""

import json
import subprocess
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler.families import partition_spec
from repro.lang import flatten
from repro.lang.compose import compose as composed
from repro.lang.typecheck import check_types
from repro.speclib import map_window, queue_window, seen_set

from tests.integration.specgen import specifications

from .test_partition import family


def build_plan():
    spec = composed(
        family("s_", seen_set, {"i": "i1"}),
        family("q_", lambda: queue_window(3), {"i": "i2"}),
        family("m_", lambda: map_window(4), {"i": "i3"}),
    )
    flat = flatten(spec)
    check_types(flat)
    return partition_spec(flat)


HASHSEED_SCRIPT = """\
import json, sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {root!r})
from tests.compiler.test_determinism import build_plan
print(json.dumps(build_plan().as_dict(), sort_keys=True))
"""


class TestStability:
    def test_repeated_runs_identical(self):
        first = build_plan().as_dict()
        for _ in range(3):
            assert build_plan().as_dict() == first

    def test_stable_across_hash_seeds(self, tmp_path):
        import repro

        src = str(next(iter(repro.__path__)).rsplit("/repro", 1)[0])
        root = str(tmp_path)  # placeholder; replaced below
        import tests

        root = str(next(iter(tests.__path__)).rsplit("/tests", 1)[0])
        script = HASHSEED_SCRIPT.format(src=src, root=root)
        plans = []
        for seed in ("0", "1", "2"):
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
                timeout=120,
            )
            assert out.returncode == 0, out.stderr
            plans.append(json.loads(out.stdout))
        assert plans[0] == plans[1] == plans[2]


class TestProperties:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.data_too_large,
        ],
    )
    @given(data=st.data())
    def test_plans_cover_and_never_split(self, data):
        spec = data.draw(specifications())
        flat = flatten(spec)
        check_types(flat)
        plan = partition_spec(flat)

        membership = {}
        for partition in plan.partitions:
            for name in partition.streams:
                membership.setdefault(name, []).append(partition.index)

        # Every live derived stream is covered; a stream left out must
        # be dead scalar weight (not an output, not complex, consumed
        # by no anchored stream — the dead-code pruner's territory).
        uncovered = set(flat.definitions) - set(membership)
        for name in uncovered:
            assert not flat.types[name].is_complex
            assert name not in flat.outputs
        replicated = set(plan.replicated)
        for name, owners in membership.items():
            if name in replicated:
                assert len(owners) > 1
            else:
                assert len(owners) == 1, f"{name} owned by {owners}"

        # Replicated streams are scalar non-outputs.
        for name in replicated:
            assert not flat.types[name].is_complex
            assert name not in flat.outputs

        # Outputs are covered exactly once, preserving the full set.
        owned_outputs = [
            name for partition in plan.partitions
            for name in partition.outputs
        ]
        assert sorted(owned_outputs) == sorted(set(flat.outputs))

        # Never split a potential-alias class.
        for alias_class in plan.alias_classes:
            owners = set()
            for name in alias_class:
                owners.update(membership[name])
            assert len(owners) == 1, f"alias class split: {alias_class}"
