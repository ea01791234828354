#!/usr/bin/env python3
"""Database-log monitoring (the paper's §V-B DB scenarios).

Runs the two database monitors on a simulated operation log:

* **DBAccessConstraint** — "a record may not be accessed before it was
  inserted or after it was deleted"; a set of live record ids is
  maintained and checked on every access.
* **DBTimeConstraint** — "if data was added to db3 then it had to be
  added to db2 during the last 60 seconds"; a map of db2 insertion
  times is maintained and consulted on every db3 insert.

Both monitors' aggregate state is proven in-place-updatable by the
analysis; we report the violations found and the speedup over the
persistent baseline.
"""

import time

from repro import api
from repro.speclib import db_access_constraint, db_time_constraint
from repro.workloads import db_access_trace, db_time_trace

EVENTS = 20_000

# The generated-source engine has the fastest calculation section, so
# the timings below show the in-place update rather than dispatch cost.
OPTIMIZED = api.CompileOptions(engine="codegen")
BASELINE = api.CompileOptions(engine="codegen", optimize=False)


def timed_run(compiled, inputs):
    violations = [0]
    checks = [0]

    def on_output(name, ts, value):
        checks[0] += 1
        if value is False:
            violations[0] += 1

    monitor = compiled.new_instance(on_output)
    start = time.perf_counter()
    monitor.run_traces(inputs)
    return time.perf_counter() - start, checks[0], violations[0]


def report(title, spec, inputs):
    optimized = api.compile(spec, OPTIMIZED)
    baseline = api.compile(spec, BASELINE)
    t_opt, checks, violations = timed_run(optimized, inputs)
    t_base, _, violations_base = timed_run(baseline, inputs)
    assert violations == violations_base
    print(f"{title}:")
    print(f"  mutable aggregates : {sorted(optimized.mutable_streams)}")
    print(f"  checks performed   : {checks}")
    print(f"  violations found   : {violations}")
    print(f"  optimized runtime  : {t_opt:.3f}s")
    print(f"  persistent runtime : {t_base:.3f}s")
    print(f"  speedup            : {t_base / t_opt:.2f}x")
    print()


def main() -> None:
    print(f"Simulated database log, ~{EVENTS} operations each\n")
    report(
        "DBAccessConstraint (no access before insert / after delete)",
        db_access_constraint(),
        db_access_trace(EVENTS, seed=42),
    )
    report(
        "DBTimeConstraint (db3 insert within 60s of db2 insert)",
        db_time_constraint(limit=60),
        db_time_trace(EVENTS, seed=42),
    )


if __name__ == "__main__":
    main()
