"""The repository's benchmark: the paper's sweeps, end to end and per layer.

Every sample is one full sweep in a fresh child process
(``bench/child.py``), so nothing memoized in-process leaks between
samples.  Load is a closed loop with one client: the next sample starts
only after the previous child has exited, and workloads take turns
(round-robin) so host drift hits all of them alike.  Every row a sample
produces is checked against the committed reference
(``bench/reference/rows.json``).

Usage::

    python bench/run.py              # all workloads, one traced child each
    python bench/run.py --quick      # 2 benchmarks x 2 machines, 1 sample
    python bench/run.py --workload grid_cold --seed 3 --seconds 25 --trace 0
    python bench/run.py --out b.json  # then: --compare a.json b.json
    python bench/run.py --write-reference

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` (cells) and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Metric names,
units, directions and bounds are declared in ``BENCHMARK.json``.  The
exit code is 0 when every row matched and every guard held, 1 when not,
and 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
WORK = os.path.join(OUT, "work")
CHILD = os.path.join(BENCH, "child.py")
REFERENCE = os.path.join(BENCH, "reference", "rows.json")
BASELINE = os.path.join(ROOT, "results", "baseline_sweep_report.jsonl")
DECLARATION = os.path.join(ROOT, "BENCHMARK.json")

BENCHMARKS = ["ccom", "grr", "linpack", "livermore", "met", "stanford",
              "whet", "yacc"]
GRID_MACHINES = ["base", "superscalar:2", "superscalar:4", "superscalar:8",
                 "superpipelined:4", "multititan", "cray1"]
#: Every superpipelined-superscalar:NxM shape design_sweep can draw.
SHAPES = [(n, m) for n in range(1, 9) for m in range(1, 9)]
#: The benchmarks with real list-vs-optimal gaps on superpipelined-4.
EXACT_BENCHMARKS = ["linpack", "livermore", "whet", "yacc"]
#: --quick keeps linpack so the unroll and alias passes still run.
QUICK_BENCHMARKS = ["linpack", "whet"]
QUICK_MACHINES = ["base", "superscalar:4"]
QUICK_EXACT = ["whet", "yacc"]

WORKLOADS = ("grid_cold", "grid_primed", "design_sweep", "sched_exact")
#: Untraced samples per workload in a full run.
FULL_SAMPLES = 10
#: Fewest untraced samples a --seconds run takes of each workload.
MIN_SAMPLES = 3
#: A sample takes under 15 s on a 2-core host; one stuck this long
#: counts as failed.
CHILD_TIMEOUT = 120

#: Layers each workload must exercise (the traced child fails the
#: coverage check if one records no calls).
_COMPILE = ["lang.parse", "lang.semantics", "lang.codegen", "opt.local",
            "opt.global", "opt.regalloc", "isa.validate", "sched.schedule",
            "sched.dag", "sched.check", "sim.interp", "sim.plan",
            "sim.resolve"]
EXPECTED_LAYERS = {
    "grid_cold": _COMPILE + ["opt.unroll", "opt.alias", "cache.load",
                             "cache.store", "memo.load", "memo.export",
                             "memo.store"],
    "grid_primed": ["sim.plan", "cache.load", "memo.load", "memo.adopt"],
    "design_sweep": _COMPILE + ["opt.unroll", "opt.alias"],
    "sched_exact": _COMPILE,
}
#: Extra layers expected when the NumPy replay kernel is active.
EXPECTED_NUMPY = {"grid_primed": ["sim.vector", "sim.vecbuild"]}
MAX_UNATTRIBUTED = 0.10
MAX_SUM_ERROR = 0.01
#: Absolute slack for both checks: on a --quick run (~0.1 s) one garbage
#: collection pause would otherwise read as missing coverage.
NOISE_FLOOR_S = 0.02

#: Row fields compared against the reference.
ROW_FIELDS = ("instructions", "minor_cycles", "base_cycles", "parallelism")


class SetupError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


# ----------------------------------------------------------------------
# workloads

def design_machines(seed: int, count: int) -> list[str]:
    """The ``count`` machine shapes ``seed`` draws for design_sweep."""
    shapes = random.Random(seed).sample(SHAPES, count)
    return [f"superpipelined-superscalar:{n}x{m}" for n, m in shapes]


def workload_spec(name: str, seed: int, quick: bool) -> dict:
    """The cells and cache mode of one workload.

    ``cache`` is ``"cold"`` (wiped before every sample), ``"primed"``
    (filled once by an untimed run) or ``None`` (``no_cache``).  Only
    design_sweep depends on the seed.
    """
    spec = {
        "workload": name,
        "benchmarks": QUICK_BENCHMARKS if quick else BENCHMARKS,
        "machines": QUICK_MACHINES if quick else GRID_MACHINES,
        "mode": "list", "scheduler": "list", "schedule_for_target": False,
        "cache": None,
    }
    if name == "grid_cold":
        spec["cache"] = "cold"
    elif name == "grid_primed":
        spec["cache"] = "primed"
    elif name == "design_sweep":
        spec["machines"] = design_machines(seed, 2 if quick else 16)
    elif name == "sched_exact":
        spec.update(benchmarks=QUICK_EXACT if quick else EXACT_BENCHMARKS,
                    machines=["superpipelined:4"], mode="exact-target",
                    scheduler="exact", schedule_for_target=True)
    else:
        raise SetupError(f"unknown workload {name!r} "
                         f"(choose from {', '.join(WORKLOADS)})")
    return spec


def cache_root(name: str) -> str:
    return os.path.join(OUT, "cache", name)


# ----------------------------------------------------------------------
# one sample

def snapshot(root: str) -> dict:
    """``relative path -> (size, mtime_ns)`` for every file under root."""
    files = {}
    for dirpath, _, filenames in os.walk(root):
        for filename in filenames:
            path = os.path.join(dirpath, filename)
            st = os.stat(path)
            files[os.path.relpath(path, root)] = (st.st_size, st.st_mtime_ns)
    return files


def run_child(spec: dict, cache_dir: str | None,
              trace_out: str | None = None) -> dict:
    """Run one child; return its JSON result plus the parent's spawn
    and exit instants (``spawn_ns``, ``exit_ns``)."""
    child_spec = dict(spec, cache_dir=cache_dir, trace_out=trace_out)
    env = dict(os.environ)
    for name in ("REPRO_FAULTS", "REPRO_CACHE_DIR"):
        env.pop(name, None)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    # Fixed string hashing, so set and dict layouts repeat between
    # samples; TMPDIR keeps any temporary file inside the checkout.
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = os.path.join(OUT, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    os.makedirs(WORK, exist_ok=True)
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, CHILD, json.dumps(child_spec), str(spawn_ns)],
        cwd=WORK, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT,
    )
    exit_ns = time.monotonic_ns()
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise RuntimeError(f"child exited {proc.returncode}: "
                           + " | ".join(tail))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(spawn_ns=spawn_ns, exit_ns=exit_ns)
    return result


def take_sample(spec: dict, kind: str, reference: dict) -> dict:
    """One sample of a workload; ``kind`` is prime, timed or traced.

    Returns the sample's end-to-end numbers, its cell counts and every
    problem found: crashed child, failed cell, row differing from the
    reference, broken steady-state guard, or (traced) coverage gap.
    """
    name = spec["workload"]
    cells = len(spec["benchmarks"]) * len(spec["machines"])
    sample = {"workload": name, "kind": kind, "cells": cells,
              "failed_cells": 0, "rows_mismatched": 0, "problems": []}
    problems = sample["problems"]
    root = cache_root(name)
    if spec["cache"] == "cold" or kind == "prime":
        shutil.rmtree(root, ignore_errors=True)
    shutil.rmtree(WORK, ignore_errors=True)
    before = snapshot(root)
    trace_out = (os.path.join(OUT, f"{name}.trace.json")
                 if kind == "traced" else None)
    try:
        result = run_child(
            spec, root if spec["cache"] else None, trace_out)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        problems.append(f"sample crashed: {exc}")
        sample["failed_cells"] = cells
        return sample

    rows = result["rows"]
    sample["failed_cells"] = sum(
        1 for row in rows if row["status"] != "ok" or not row["checksum_ok"])
    sample["rows_mismatched"] = sum(
        1 for row in rows if reference.get(row["key"])
        != {f: row[f] for f in ROW_FIELDS})
    if len(rows) != cells:
        problems.append(f"{len(rows)} rows for {cells} cells")
    if sample["failed_cells"]:
        problems.append(f"{sample['failed_cells']} cells failed")
    if sample["rows_mismatched"]:
        problems.append(f"{sample['rows_mismatched']} rows differ from "
                        f"the reference")
    guards = guard_problems(spec, kind, result, before, snapshot(root))
    if guards:
        # A sample that breaks a guard did not do the workload's work:
        # every cell of it counts as failed.
        problems.extend(guards)
        sample["failed_cells"] = cells

    run_s = (result["done_ns"] - result["run_ns"]) / 1e9
    instructions = sum(row["instructions"] for row in rows)
    sample.update({
        "backend": result["backend"],
        "wall_s": (result["exit_ns"] - result["spawn_ns"]) / 1e9,
        "setup_s": (result["ready_ns"] - result["spawn_ns"]) / 1e9,
        "run_s": run_s,
        "instr_per_s": instructions / run_s,
        "peak_rss_mb": result["peak_rss_mb"],
    })
    if kind == "traced":
        sample["layers"] = result["layers"]
        sample["profile"] = result["profile"]
        problems.extend(coverage_problems(name, result))
    return sample


def guard_problems(spec: dict, kind: str, result: dict, before: dict,
                   after: dict) -> list[str]:
    """Steady-state guards: each workload touches only the stores it
    is meant to, and a primed sample does no first-touch work."""
    problems = []
    counters = result["counters"]
    if os.path.isdir(WORK) and os.listdir(WORK):
        problems.append("child wrote into its working directory")
    if spec["cache"] == "cold" and before:
        problems.append("cold sample started with a non-empty cache")
    if spec["cache"] is None:
        if result["cache_enabled"] or after or counters.get(
                "cache.gets") or counters.get("cache.memo_gets"):
            problems.append("no-cache workload touched a cache")
    elif spec["cache"] == "primed" and kind != "prime":
        if result["report"]["cache_misses"]:
            problems.append("primed sample missed the trace cache")
        if counters.get("cache.memo_misses") or counters.get(
                "cache.memo_corrupt"):
            problems.append("primed sample missed the memo store")
        if before != after:
            problems.append("primed sample modified the cache directory")
    return problems


def coverage_problems(name: str, result: dict) -> list[str]:
    """The traced child's coverage check."""
    layers, calls = result["layers"], result["calls"]
    expected = EXPECTED_LAYERS[name] + (
        EXPECTED_NUMPY.get(name, []) if result["backend"] == "numpy" else [])
    problems = [f"layer {layer} recorded no calls"
                for layer in expected if not calls.get(layer)]
    run_s = layers["trace.run_s"]
    if layers["engine.unattributed_s"] > max(MAX_UNATTRIBUTED * run_s,
                                             NOISE_FLOOR_S):
        problems.append(f"engine.unattributed_ratio "
                        f"{layers['engine.unattributed_ratio']:.3f} > "
                        f"{MAX_UNATTRIBUTED}")
    covered = sum(layers[f"{layer}.self_s"] for layer in calls) \
        + layers["engine.unattributed_s"]
    if abs(covered - run_s) > max(MAX_SUM_ERROR * run_s, NOISE_FLOOR_S):
        problems.append(f"layer self times + unattributed = {covered:.4f}s "
                        f"but traced run_s = {run_s:.4f}s")
    return problems


# ----------------------------------------------------------------------
# a set of runs

def collect(specs: dict, counts: dict, seconds: float | None,
            traced: bool, reference: dict) -> dict:
    """Sample every workload round-robin; return samples per workload.

    Each workload takes ``counts[name]`` timed samples; with
    ``seconds``, rounds continue until that much time has passed.
    Primed workloads are primed first, traced children come last.
    """
    samples = {name: [] for name in specs}
    for name, spec in specs.items():
        if spec["cache"] == "primed":
            samples[name].append(take_sample(spec, "prime", reference))
    start = time.monotonic()
    while True:
        due = [name for name in specs
               if sum(s["kind"] == "timed" for s in samples[name])
               < counts[name]]
        if not due and seconds is not None \
                and time.monotonic() - start < seconds:
            due = list(specs)
        if not due:
            break
        for name in due:
            samples[name].append(take_sample(specs[name], "timed",
                                             reference))
    if traced:
        for name, spec in specs.items():
            samples[name].append(take_sample(spec, "traced", reference))
    return samples


def stats(values: list[float]) -> dict:
    """Median, quartiles (Python's ``statistics.quantiles``) and count."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(samples: list[dict], declared: dict) -> dict:
    """End-to-end stats over the good timed samples, and the per-layer
    metrics of the traced child, for one workload."""
    good = [s for s in samples if s["kind"] == "timed" and not s["problems"]]
    attempted = sum(s["cells"] for s in samples)
    failed = sum(s["failed_cells"] for s in samples)
    summary = {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "rows_mismatched": sum(s["rows_mismatched"] for s in samples),
        "problems": sorted({p for s in samples for p in s["problems"]}),
        "end_to_end": {},
        "values": {},
        "per_layer": None,
    }
    if good:
        for metric in declared["end_to_end"]:
            values = [s[metric] for s in good]
            summary["end_to_end"][metric] = stats(values)
            summary["values"][metric] = values
    traced = [s for s in samples if s["kind"] == "traced" and "layers" in s]
    if traced and good:
        layers = dict(traced[-1]["layers"])
        layers["trace.overhead_ratio"] = (
            layers["trace.run_s"]
            / summary["end_to_end"]["run_s"]["median"] - 1.0)
        summary["per_layer"] = layers
        summary["profile"] = traced[-1]["profile"]
    return summary


# ----------------------------------------------------------------------
# output

def load_declaration() -> dict:
    """Metric names, units, directions and bounds from BENCHMARK.json."""
    with open(DECLARATION, encoding="utf-8") as handle:
        doc = json.load(handle)
    return {
        "end_to_end": {m["name"]: m for m in doc["end_to_end"]},
        "per_layer": {m["name"]: m for m in doc["per_layer"]},
    }


def print_workload(name: str, summary: dict, declared: dict) -> None:
    e2e = summary["end_to_end"]
    n = next(iter(e2e.values()))["n"] if e2e else 0
    print(f"\n== {name}: {n} timed samples ==")
    print(f"  {'metric':<18s} {'unit':<8s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'n':>4s}")
    for metric, info in declared["end_to_end"].items():
        if metric in e2e:
            s = e2e[metric]
            print(f"  {metric:<18s} {info['unit']:<8s} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['n']:>4d}")
    print(f"  {'fail_ratio':<18s} {'ratio':<8s} "
          f"{summary['fail_ratio']:>12.6g}  "
          f"({summary['failed']} of {summary['attempted']} cells)")
    print(f"  {'rows_mismatched':<18s} {'count':<8s} "
          f"{summary['rows_mismatched']:>12d}")
    for problem in summary["problems"]:
        print(f"  PROBLEM: {problem}")
    layers = summary["per_layer"]
    if layers is not None:
        print("  -- per layer (traced child) --")
        for metric, info in declared["per_layer"].items():
            print(f"  {metric:<30s} {info['unit']:<6s} "
                  f"{layers[metric]:>14.6g}")
        print("  " + summary["profile"].replace("\n", "\n  "))


def result_line(summaries: dict, declared: dict, traced: bool) -> dict:
    """The final JSON line (metric names qualified by workload when
    the run covered several)."""
    kind = "per_layer" if traced else "end_to_end"
    metrics = {}
    for name, summary in summaries.items():
        prefix = f"{name}." if len(summaries) > 1 else ""
        for metric, info in declared[kind].items():
            if traced:
                if summary["per_layer"] is None:
                    continue
                value = summary["per_layer"][metric]
            elif metric in summary["end_to_end"]:
                value = summary["end_to_end"][metric]["median"]
            else:
                continue
            metrics[prefix + metric] = {"value": value, "unit": info["unit"]}
    return {
        "correct": not any(s["problems"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# --compare

#: Results-document fields that must agree for a comparison to mean
#: anything.
COMPARABLE = ("python", "backend", "cpu_count", "quick")


def compare(path_a: str, path_b: str, declared: dict) -> int:
    """Label every (workload, end-to-end metric) pair of B against A.

    ``worse``: B's median is worse than A's by more than the bound.
    ``better``: better by more than the bound.  ``no worse``: within
    it.  ``unresolved``: either side's quartile spread is wider than
    the bound, unless every sample of B beats every sample of A.
    Exit 1 when any pair is worse or unresolved, 2 when the documents
    are not comparable.
    """
    docs = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    a, b = docs
    differ = [k for k in COMPARABLE if a["env"].get(k) != b["env"].get(k)]
    if differ:
        raise SetupError("refusing to compare: " + ", ".join(
            f"{k} {a['env'].get(k)!r} vs {b['env'].get(k)!r}"
            for k in differ))
    bad = 0
    print(f"{'workload':<14s} {'metric':<12s} {'A median':>12s} "
          f"{'B median':>12s} {'change':>8s} {'bound':>6s}  verdict")
    for name in WORKLOADS:
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, info in declared["end_to_end"].items():
            if metric not in wa["end_to_end"] \
                    or metric not in wb["end_to_end"]:
                continue
            verdict, change = judge(wa, wb, metric, info)
            bad += verdict in ("worse", "unresolved")
            print(f"{name:<14s} {metric:<12s} "
                  f"{wa['end_to_end'][metric]['median']:>12.6g} "
                  f"{wb['end_to_end'][metric]['median']:>12.6g} "
                  f"{change:>+8.1%} {info['bound']:>6.0%}  {verdict}")
    return 1 if bad else 0


def judge(wa: dict, wb: dict, metric: str, info: dict) -> tuple[str, float]:
    """Verdict and relative change (positive = better) of one pair."""
    sa, sb = wa["end_to_end"][metric], wb["end_to_end"][metric]
    sign = 1.0 if info["better"] == "higher" else -1.0
    change = sign * (sb["median"] - sa["median"]) / sa["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (sa, sb))
    bound = info["bound"]
    if spread > bound:
        va, vb = wa["values"][metric], wb["values"][metric]
        if min(sign * v for v in vb) > max(sign * v for v in va):
            return "better", change
        return "unresolved", change
    if change < -bound:
        return "worse", change
    if change > bound:
        return "better", change
    return "no worse", change


# ----------------------------------------------------------------------
# reference rows

def reference_specs() -> list[dict]:
    """Specs covering every cell any seed or --quick can run."""
    full_design = workload_spec("design_sweep", 0, False)
    full_design["machines"] = [f"superpipelined-superscalar:{n}x{m}"
                               for n, m in SHAPES]
    return [workload_spec("grid_cold", 0, False), full_design,
            workload_spec("sched_exact", 0, False)]


def baseline_mismatches(reference: dict) -> list[str]:
    """Reference rows that disagree with the committed baseline report
    (linpack/whet/stanford on base, superscalar-4, superpipelined-4)."""
    problems = []
    with open(BASELINE, encoding="utf-8") as handle:
        events = [json.loads(line) for line in handle if line.strip()]
    for event in events:
        if event.get("event") != "cell":
            continue
        key = f"list/{event['benchmark']}@{event['machine']}"
        row = reference.get(key)
        for field in ROW_FIELDS:
            if row is None or row[field] != event[field]:
                problems.append(f"{key} {field}")
                break
    return problems


def write_reference() -> None:
    rows = {}
    for spec in reference_specs():
        result = run_child(dict(spec, cache=None), None)
        for row in result["rows"]:
            if row["status"] != "ok" or not row["checksum_ok"]:
                raise RuntimeError(f"{row['key']} failed; not writing")
            rows[row["key"]] = {f: row[f] for f in ROW_FIELDS}
    problems = baseline_mismatches(rows)
    if problems:
        raise RuntimeError("rows disagree with " + BASELINE + ": "
                           + ", ".join(problems))
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        handle.write('{"rows": {\n' + ",\n".join(
            f"{json.dumps(key)}: {json.dumps(row)}"
            for key, row in sorted(rows.items())) + "\n}}\n")
    print(f"wrote {len(rows)} reference rows to {REFERENCE}")


# ----------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run the benchmark workloads and check their rows.")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0,
                        help="draws design_sweep's machine shapes")
    parser.add_argument("--seconds", type=float,
                        help=f"sample until this much time has passed "
                             f"(at least {MIN_SAMPLES} samples each) "
                             f"instead of the full-run sample counts")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=1,
                        help="one extra traced child per workload "
                             "(default 1)")
    parser.add_argument("--quick", action="store_true",
                        help="2 benchmarks x 2 machines, 1 sample each")
    parser.add_argument("--out", default=os.path.join(OUT, "results.json"),
                        help="results document to write")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two results documents")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the reference rows")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for path in (os.path.join(SRC, "repro", "__init__.py"), DECLARATION):
        if not os.path.isfile(path):
            raise SetupError(f"missing {path}")
    declared = load_declaration()
    if args.compare:
        return compare(*args.compare, declared)
    if args.write_reference:
        write_reference()
        return 0
    if not os.path.isfile(REFERENCE):
        raise SetupError(f"missing {REFERENCE}")
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)["rows"]

    names = args.workload or list(WORKLOADS)
    specs = {name: workload_spec(name, args.seed, args.quick)
             for name in dict.fromkeys(names)}
    if args.seconds is not None:
        counts = dict.fromkeys(specs, MIN_SAMPLES)
    else:
        counts = dict.fromkeys(specs, 1 if args.quick else FULL_SAMPLES)
    traced = bool(args.trace)
    samples = collect(specs, counts, args.seconds, traced, reference)
    summaries = {name: summarize(samples[name], declared)
                 for name in specs}
    for summary in summaries.values():
        layers = summary["per_layer"]
        if layers is not None and set(layers) != set(declared["per_layer"]):
            raise SetupError("per-layer metrics differ from BENCHMARK.json: "
                             + ", ".join(sorted(set(layers) ^ set(
                                 declared["per_layer"]))))

    backends = {s["backend"] for ss in samples.values() for s in ss
                if "backend" in s}
    doc = {
        "env": {"python": platform.python_version(),
                "backend": ",".join(sorted(backends)),
                "cpu_count": os.cpu_count(), "quick": args.quick,
                "seed": args.seed},
        "workloads": {name: {k: v for k, v in summary.items()
                             if k != "profile"}
                      for name, summary in summaries.items()},
        "samples": [{k: v for k, v in s.items() if k != "profile"}
                    for ss in samples.values() for s in ss],
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")

    print(f"python {doc['env']['python']}, replay backend "
          f"{doc['env']['backend']}, cpu_count {doc['env']['cpu_count']}, "
          f"seed {args.seed}")
    for name, summary in summaries.items():
        print_workload(name, summary, declared)
        if summary["per_layer"] is not None:
            with open(os.path.join(OUT, f"{name}.profile.txt"), "w",
                      encoding="utf-8") as handle:
                handle.write(summary["profile"] + "\n")
    line = result_line(summaries, declared, traced)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
