#!/usr/bin/env python3
"""Fault-injection smoke matrix for the supervised execution engine.

Runs a reduced benchmark x machine grid once cleanly (serial, no
faults) to establish the ground truth, then once per fault scenario
(worker crash, hang -> timeout, corrupt result payload) under
``REPRO_FAULTS``-style injection with a parallel supervised pool, and
asserts:

* every faulted sweep completes (no cell ends ``failed``);
* the cells the faults targeted end ``retried`` or ``degraded``;
* every cell's measurement — instruction counts, cycle counts, stall
  attribution, replay-memo counters — is bit-identical to the clean run.

The outcome is written as a JSON manifest (default
``results/fault_manifest.json``) for CI to archive; the exit status is
nonzero when any scenario deviates from the clean run.

Usage::

    python scripts/fault_smoke.py [--output results/fault_manifest.json]
                                  [--workers 2]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

BENCHES = ["whet", "linpack", "stanford"]
MACHINES = ["base", "superscalar:4"]

#: scenario name -> (REPRO_FAULTS plan, benchmark the fault targets).
#: The hang backstop (60s) deliberately exceeds the supervisor's
#: group timeout so recovery exercises the pool-kill path, not the
#: worker's own unblock.
SCENARIOS = {
    "crash": ("crash@whet#1", "whet"),
    "hang": ("hang@linpack#1, hang=60", "linpack"),
    "corrupt-payload": ("corrupt-result@stanford#1", "stanford"),
}


def cell_payload(cell) -> dict:
    """The measurement content of one cell (status excluded)."""
    return {
        "benchmark": cell.benchmark,
        "machine": cell.machine,
        "options": cell.options_label,
        "instructions": cell.instructions,
        "checksum_ok": cell.checksum_ok,
        "minor_cycles": cell.minor_cycles,
        "base_cycles": cell.base_cycles,
        "parallelism": cell.parallelism,
        "stalls": cell.stalls.as_dict() if cell.stalls is not None else None,
        "replay": cell.replay,
    }


def run_grid(workers, faults=None, policy=None):
    from repro.engine.executor import execute
    from repro.engine.plan import plan_sweep

    plan = plan_sweep(BENCHES, MACHINES, observe=True)
    return execute(plan, workers=workers, policy=policy, faults=faults)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="results/fault_manifest.json")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    from repro.engine.faults import FaultPlan
    from repro.engine.resilience import RetryPolicy, failure_manifest

    policy = RetryPolicy(base_delay=0.01, max_delay=0.1, group_timeout=8.0)

    print(f"clean baseline: {BENCHES} x {MACHINES} (serial)")
    clean = run_grid(workers=1)
    baseline = [cell_payload(c) for c in clean.cells]

    manifest = {
        "grid": {"benchmarks": BENCHES, "machines": MACHINES,
                 "workers": args.workers},
        "scenarios": {},
        "ok": True,
    }

    for name, (spec, target) in SCENARIOS.items():
        print(f"scenario {name!r}: REPRO_FAULTS={spec!r}")
        result = run_grid(
            workers=args.workers,
            faults=FaultPlan.parse(spec),
            policy=policy,
        )
        problems = []

        failed = failure_manifest(result.cells)
        if failed is not None:
            problems.append(failed)

        targeted = [c for c in result.cells if c.benchmark == target]
        for cell in targeted:
            if cell.status not in ("retried", "degraded"):
                problems.append(
                    f"{cell.benchmark}@{cell.machine}: expected "
                    f"retried/degraded, got {cell.status!r}"
                )

        observed = [cell_payload(c) for c in result.cells]
        for want, got in zip(baseline, observed):
            if want != got:
                problems.append(
                    f"{want['benchmark']}@{want['machine']}: payload "
                    "deviates from clean run"
                )

        report = result.report
        statuses = {
            "ok": report.ok_cells, "retried": report.retried_cells,
            "degraded": report.degraded_cells,
            "failed": report.failed_cells,
        }
        if sum(statuses.values()) != report.cells:
            problems.append(
                f"status conservation violated: {statuses} != "
                f"{report.cells} cells"
            )

        manifest["scenarios"][name] = {
            "faults": spec,
            "target": target,
            "statuses": statuses,
            "group_retries": report.group_retries,
            "pool_restarts": report.pool_restarts,
            "problems": problems,
            "cells": [
                {"benchmark": c.benchmark, "machine": c.machine,
                 "status": c.status, "attempts": c.attempts,
                 "error": c.error}
                for c in result.cells
            ],
        }
        if problems:
            manifest["ok"] = False
            for problem in problems:
                print(f"  FAIL: {problem}", file=sys.stderr)
        else:
            print(f"  ok: {statuses}, {report.group_retries} retries, "
                  f"{report.pool_restarts} pool restarts")

    parent = os.path.dirname(args.output)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"manifest written to {args.output}")

    if not manifest["ok"]:
        print("fault smoke FAILED", file=sys.stderr)
        return 1
    print("fault smoke passed: all surviving cells bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
