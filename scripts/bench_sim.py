#!/usr/bin/env python
"""Benchmark the simulator: interpreter and timing-replay throughput.

Measures, on a benchmarks x machines grid:

1. ``interp``  — functional interpreter throughput (trace recording),
2. ``direct``  — timing replay with memoization disabled: the
   per-instruction reference path, equivalent to the pre-memoization
   simulator (every dynamic instruction re-walked per machine),
3. ``cold``    — memoized replay from scratch: plan construction plus
   first-touch memo misses included (fresh ``ReplayCore`` per cell,
   plans reset beforehand), i.e. what a first ``simulate()`` costs,
4. ``warm``    — memoized replay in the steady state: a second
   ``ReplayCore.run()`` on already-populated memo tables, i.e. what
   every later replay of the same trace costs (under the NumPy backend
   this is the vectorized block-replay kernel),
5. ``vectorized`` (NumPy backend only) — the raw structure-of-arrays
   kernel rerun on resolved cores, without the ``run()`` dispatch,
6. ``warm_persistent`` — a fresh ``ReplayCore`` per cell per pass that
   adopts its memo tables from the persistent on-disk store
   (pickle load + validation + adoption + replay): what a brand-new
   process pays when the cache directory is already warm.

Each mode reports dynamic instructions per second; the headline number
is ``speedup.warm_vs_direct`` — the steady-state grid speedup of the
memoized path over the per-instruction path (``warm`` is also the
mode the regression gate watches).  With ``--check`` the memoized,
steady-state/vectorized, and persistent-memo-adopted grids are all
verified bit-identical (minor cycles and full stall breakdowns)
against the direct path before timing.  The document also carries a
per-benchmark warm-throughput breakdown and the active replay backend.

Results go to ``BENCH_sim.json`` (see ``--output``).  CI runs a
reduced grid and archives the JSON as an artifact.

Usage::

    python scripts/bench_sim.py [--benchmarks a,b,...]
        [--machines spec ...] [--output PATH] [--repeat K] [--check]
        [--gate BASELINE.json]

``--gate`` applies the warm-throughput regression gate from
``scripts/validate_bench.py`` to the freshly measured document: exit
status 1 when warm instr/s drops more than 10% below the baseline.
``--ledger PATH`` additionally ingests the document into the run-history
ledger (see ``repro ingest`` / ``repro dash``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
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


def _best(fn, repeat: int) -> float:
    best = None
    for _ in range(max(1, repeat)):
        seconds = fn()
        if best is None or seconds < best:
            best = seconds
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmarks", default=DEFAULT_BENCHMARKS,
                        help="comma-separated benchmark names")
    parser.add_argument("--machines", nargs="+", default=DEFAULT_MACHINES,
                        help="machine preset specs")
    parser.add_argument("--output", default="BENCH_sim.json")
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per mode (best is kept)")
    parser.add_argument("--check", action="store_true",
                        help="verify memoized == direct before timing")
    parser.add_argument("--gate", metavar="BASELINE",
                        help="fail if warm throughput regresses >10%% "
                             "vs this baseline BENCH_sim.json")
    parser.add_argument("--ledger", metavar="PATH",
                        help="also ingest the measured document into "
                             "this run-history ledger")
    args = parser.parse_args(argv)

    from repro.benchmarks import suite
    from repro.machine.presets import resolve
    from repro.opt.driver import compile_source
    from repro.sim import interp
    from repro.sim import replay as replay_mod
    from repro.sim.memo import MemoStore, clear_registry, replay_with_memo
    from repro.sim.replay import BACKEND, ReplayCore
    from repro.sim.timing import simulate

    names = [b for b in args.benchmarks.replace(",", " ").split() if b]
    benchs = [suite.get(name) for name in names]
    machines = [resolve(spec) for spec in args.machines]

    programs = [
        compile_source(b.source(), suite.default_options(b)) for b in benchs
    ]

    # --- interpreter throughput (functional execution + trace recording)
    def interp_pass() -> float:
        start = time.perf_counter()
        for program in programs:
            interp.run(program)
        return time.perf_counter() - start

    interp_seconds = _best(interp_pass, args.repeat)
    runs = [interp.run(program) for program in programs]
    traces = [r.trace for r in runs]
    total_instr = sum(r.instructions for r in runs)
    grid_instr = total_instr * len(machines)

    if args.check:
        with tempfile.TemporaryDirectory() as check_root:
            store = MemoStore(os.path.join(check_root, "memo"))
            for name, trace in zip(names, traces):
                for machine in machines:
                    ref = simulate(trace, machine, observe=True,
                                   memoize=False)
                    memo = simulate(trace, machine, observe=True)
                    # Steady-state rerun: the vectorized kernel under
                    # the NumPy backend, the memo-table loop otherwise.
                    core = ReplayCore(trace, machine, observe=True)
                    core.run()
                    steady = core.run()
                    # Fresh core warm-started from the persistent store
                    # (second call adopts what the first one wrote).
                    replay_with_memo(store, trace, machine, observe=True)
                    clear_registry()
                    adopted = replay_with_memo(store, trace, machine,
                                               observe=True)
                    for label, got in (
                        ("memoized", (memo.minor_cycles, memo.stalls)),
                        ("steady-state",
                         (steady.minor_cycles, steady.stalls)),
                        ("persistent-memo",
                         (adopted.minor_cycles, adopted.stalls)),
                    ):
                        if got != (ref.minor_cycles, ref.stalls):
                            print(f"FAIL: {name} on {machine.name}: "
                                  f"{label} replay differs from direct",
                                  file=sys.stderr)
                            return 1
        print(f"check: memoized == steady-state == persistent-memo == "
              f"direct on all {len(names) * len(machines)} cells "
              f"({BACKEND} backend)")

    # --- direct (per-instruction) timing replay: the pre-memo reference
    def direct_pass() -> float:
        start = time.perf_counter()
        for trace in traces:
            for machine in machines:
                simulate(trace, machine, memoize=False)
        return time.perf_counter() - start

    direct_seconds = _best(direct_pass, args.repeat)

    # --- memoized, cold: plan build + first-touch misses included
    # (the static-table skeleton is cleared too, so the direct mode above
    # keeps it warm while cold honestly pays for everything derived)
    def cold_pass() -> float:
        for trace in traces:
            trace._plan = None
            trace._skel = None
        start = time.perf_counter()
        for trace in traces:
            for machine in machines:
                simulate(trace, machine)
        return time.perf_counter() - start

    cold_seconds = _best(cold_pass, args.repeat)

    # --- memoized, warm: steady-state replay on populated memo tables
    cores = [
        (trace, [ReplayCore(trace, machine) for machine in machines])
        for trace in traces
    ]
    for _, machine_cores in cores:
        for core in machine_cores:
            # Twice: the first run resolves, the second builds (and
            # caches) the vectorized view, so warm passes measure the
            # steady state even with --repeat 1.
            core.run()
            core.run()

    def warm_pass() -> float:
        start = time.perf_counter()
        for _, machine_cores in cores:
            for core in machine_cores:
                core.run()
        return time.perf_counter() - start

    warm_seconds = _best(warm_pass, args.repeat)

    # --- per-benchmark warm breakdown (which traces dominate the grid)
    per_benchmark = {}
    for (name, run), (_, machine_cores) in zip(zip(names, runs), cores):
        def bench_pass(machine_cores=machine_cores):
            start = time.perf_counter()
            for core in machine_cores:
                core.run()
            return time.perf_counter() - start

        seconds = max(_best(bench_pass, args.repeat), 1e-9)
        instructions = run.instructions * len(machines)
        per_benchmark[name] = {
            "instructions": instructions,
            "warm_seconds": round(seconds, 4),
            "warm_instr_per_sec": round(instructions / seconds),
        }

    # --- raw vectorized kernel (NumPy backend only): resolved-core
    # rerun without the run() dispatch, i.e. the kernel's ceiling
    vectorized_seconds = None
    if BACKEND == "numpy":
        kernels = []
        for _, machine_cores in cores:
            if kernels is None:
                break
            for core in machine_cores:
                pv = core._plan_vec()
                cv = core._vec
                if cv is None and core._rec_ids is not None:
                    cv = replay_mod._replay_vec.build_core_vec(core, pv)
                    core._vec = cv
                if pv is None or cv is None:
                    kernels = None
                    break
                kernels.append((core, pv, cv))
        if kernels:
            run_vectorized = replay_mod._replay_vec.run_vectorized

            def vectorized_pass() -> float:
                start = time.perf_counter()
                for core, pv, cv in kernels:
                    run_vectorized(core, pv, cv)
                return time.perf_counter() - start

            vectorized_seconds = _best(vectorized_pass, args.repeat)

    # --- persistent-memo adoption: fresh core per cell per pass, memo
    # tables pickled from disk (what a warm-cache cold process pays)
    with tempfile.TemporaryDirectory() as memo_root:
        store = MemoStore(os.path.join(memo_root, "memo"))
        for trace in traces:
            for machine in machines:
                replay_with_memo(store, trace, machine)

        def warm_persistent_pass() -> float:
            clear_registry()
            start = time.perf_counter()
            for trace in traces:
                for machine in machines:
                    replay_with_memo(store, trace, machine)
            return time.perf_counter() - start

        warm_persistent_seconds = _best(warm_persistent_pass, args.repeat)

    modes = {
        "interp": (interp_seconds, total_instr),
        "direct": (direct_seconds, grid_instr),
        "cold": (cold_seconds, grid_instr),
        "warm": (warm_seconds, grid_instr),
        "warm_persistent": (warm_persistent_seconds, grid_instr),
    }
    if vectorized_seconds is not None:
        modes["vectorized"] = (vectorized_seconds, grid_instr)
    for label, (seconds, instructions) in modes.items():
        print(f"{label:7s} {seconds:7.3f}s  "
              f"{instructions / seconds / 1e6:8.2f} M instr/s")

    document = {
        "grid": {"benchmarks": names, "machines": args.machines,
                 "cells": len(names) * len(machines),
                 "dynamic_instructions": total_instr,
                 "grid_instructions": grid_instr},
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "repeat": args.repeat,
        "backend": BACKEND,
        "benchmarks": per_benchmark,
        "modes": {
            label: {
                "seconds": round(seconds, 4),
                "instructions": instructions,
                "instr_per_sec": round(instructions / seconds),
            }
            for label, (seconds, instructions) in modes.items()
        },
        "speedup": {
            "cold_vs_direct": round(direct_seconds / cold_seconds, 3),
            "warm_vs_direct": round(direct_seconds / warm_seconds, 3),
            "warm_persistent_vs_direct": round(
                direct_seconds / warm_persistent_seconds, 3),
        },
    }
    parent = os.path.dirname(args.output)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}: memoized replay "
          f"{document['speedup']['cold_vs_direct']}x cold / "
          f"{document['speedup']['warm_vs_direct']}x warm "
          f"vs per-instruction path")

    if args.ledger:
        from repro.obs.history import HistoryLedger

        with HistoryLedger(args.ledger) as ledger:
            result = ledger.ingest_bench(document, source=args.output)
        print(f"ledger {args.ledger}: {result.summary()}")

    if args.gate:
        import validate_bench

        try:
            with open(args.gate, encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"FAIL: cannot load baseline {args.gate}: {exc}",
                  file=sys.stderr)
            return 1
        failures, lines = validate_bench.check_throughput(
            document, baseline
        )
        print(f"throughput gate vs {args.gate}:")
        for line in lines:
            print(line)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
