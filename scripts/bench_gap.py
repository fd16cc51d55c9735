#!/usr/bin/env python
"""Measure the scheduling gap: heuristic list scheduling vs optimal.

Runs the benchmarks x machines grid once per scheduler backend (each
cell recompiled, scheduled for the machine it is measured on) and
reports per cell the minor-cycle gap ``cycles(list) - cycles(exact)``
plus the fraction of cells where the list heuristic already achieves
the search-optimal schedule.  ``exact`` seeds its branch-and-bound with
the list order, so a negative gap is impossible wherever the model is
sound; the script exits 1 if one appears.

Results go to ``BENCH_gap.json`` (see ``--output``).  ``--report-dir``
additionally writes one JSONL run report per backend
(``report_<backend>.jsonl``) — CI diffs those with ``repro diff`` to
assert exact <= list cell-wise.

Usage::

    python scripts/bench_gap.py [--benchmarks a,b,...]
        [--machines spec ...] [--schedulers list exact ...]
        [--output PATH] [--report-dir DIR] [--workers N]
        [--flow] [--cache-dir DIR]

``--flow`` routes each backend's grid through the checkpointed
workflow DAG engine (:mod:`repro.flow`): every compile and cell is
journaled and checkpointed under ``--cache-dir``, so a killed run
re-executes only the missing nodes when rerun.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(
    0,
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    ),
)

DEFAULT_BENCHMARKS = "ccom,grr,linpack,livermore,met,stanford,whet,yacc"
DEFAULT_MACHINES = ["base", "superscalar:2", "superscalar:4",
                    "superscalar:8", "superpipelined:4", "multititan",
                    "cray1"]
DEFAULT_SCHEDULERS = ["list", "swp", "exact"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmarks", default=DEFAULT_BENCHMARKS,
                        help="comma-separated benchmark names")
    parser.add_argument("--machines", nargs="+", default=DEFAULT_MACHINES,
                        help="machine preset specs")
    parser.add_argument("--schedulers", nargs="+",
                        default=DEFAULT_SCHEDULERS,
                        help="scheduler backends, baseline first")
    parser.add_argument("--output", default="BENCH_gap.json")
    parser.add_argument("--report-dir", metavar="DIR", default=None,
                        help="also write one JSONL run report per "
                             "backend (report_<backend>.jsonl)")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--flow", action="store_true",
                        help="run each backend grid as a checkpointed "
                             "workflow DAG (resumable; needs --cache-dir)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="trace cache directory for --flow "
                             "(default: the engine default cache)")
    args = parser.parse_args(argv)

    from repro.analysis.gap import GapCell, GapReport
    from repro.engine.executor import execute
    from repro.engine.plan import plan_sweep
    from repro.machine.presets import resolve
    from repro.obs.recorder import NULL_RECORDER, JsonlRecorder
    from repro.obs.schema import SCHEMA_VERSION

    names = [b for b in args.benchmarks.replace(",", " ").split() if b]
    machines = [resolve(spec) for spec in args.machines]
    schedulers = [s for spec in args.schedulers
                  for s in spec.replace(",", " ").split()]
    baseline = schedulers[0]

    if args.report_dir:
        os.makedirs(args.report_dir, exist_ok=True)

    cycles: dict[tuple, dict] = {}
    order: list[tuple] = []
    start = time.perf_counter()
    for sched in schedulers:
        recorder = NULL_RECORDER
        if args.report_dir:
            recorder = JsonlRecorder(
                os.path.join(args.report_dir, f"report_{sched}.jsonl"))
        with recorder:
            if recorder.enabled:
                recorder.emit("run_start", schema=SCHEMA_VERSION,
                              run_id=f"gap:{sched}",
                              machines=[c.name for c in machines])
            plan = plan_sweep(names, machines,
                              schedule_for_target=True, scheduler=sched)
            if args.flow:
                from repro.engine.cache import DEFAULT_CACHE_DIR, open_cache
                from repro.flow import run_sweep_flow

                result, _ = run_sweep_flow(
                    plan,
                    cache=open_cache(args.cache_dir or DEFAULT_CACHE_DIR,
                                     False),
                    flow_spec={"driver": "gap", "scheduler": sched,
                               "benchmarks": names,
                               "machines": args.machines},
                    workers=args.workers,
                    recorder=recorder,
                )
            else:
                result = execute(plan, workers=args.workers,
                                 recorder=recorder)
            if recorder.enabled:
                recorder.emit("run_end", seconds=result.report.seconds,
                              counters=dict(recorder.counters))
        for cell in result.cells:
            key = (cell.benchmark, cell.machine)
            if key not in cycles:
                cycles[key] = {}
                order.append(key)
            if cell.status != "failed":
                cycles[key][sched] = cell.minor_cycles
        print(f"{sched:6s} grid done "
              f"({result.report.seconds:6.2f}s engine time)")
    wall = time.perf_counter() - start

    report = GapReport(
        baseline=baseline,
        schedulers=tuple(schedulers),
        cells=tuple(GapCell(benchmark=b, machine=m, cycles=cycles[(b, m)])
                    for b, m in order),
    )
    print(report.render())

    document = {
        "grid": {"benchmarks": names, "machines": args.machines,
                 "cells": len(names) * len(machines)},
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seconds": round(wall, 2),
        "gap": report.as_dict(),
    }
    parent = os.path.dirname(args.output)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    frac = report.optimal_fraction()
    frac_text = "n/a" if frac != frac else f"{frac:.1%}"
    print(f"wrote {args.output}: heuristic optimal on {frac_text} "
          f"of cells")

    if not report.ok:
        print("FAIL: 'exact' exceeded the baseline on some cell "
              "(seeded search can only improve; model bug?)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
