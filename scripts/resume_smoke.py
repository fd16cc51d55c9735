#!/usr/bin/env python
"""Chaos-test crash resume: kill a flow suite run, resume, diff.

For each chosen kill point the harness runs ``repro suite --flow`` in a
subprocess with a ``kill@<ordinal>`` fault (the engine SIGKILLs itself
right after journaling that node), resumes the run with ``repro
resume``, and diffs the resumed JSONL report against an uninterrupted
baseline with ``repro diff`` — any gated metric difference fails the
harness (deterministic metrics are gated at zero tolerance).  One extra
scenario tears a checkpoint mid-write (``torn-write@<ordinal>``) before
the kill, proving that resume re-executes a node whose journal entry
says "complete" but whose checkpoint did not survive.

The run journals are also parsed directly to assert the resume
re-executed *only* nodes without a valid checkpoint: for a pure kill,
the set of nodes executed after ``flow_resume`` must be disjoint from
the set journaled complete before it; for a torn write, exactly the
torn node may appear in both.

Usage::

    python scripts/resume_smoke.py [--benchmarks a,b] [--machines ...]
        [--kill-every N] [--workdir DIR] [--manifest PATH] [--keep]

Exits 0 when every scenario holds, 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

SIGKILL_CODES = (-9, 137)


def repro(args, *, workdir):
    """Run ``python -m repro <args>`` with src/ on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=workdir, env=env, capture_output=True, text=True,
    )


def journal_sets(journal_file):
    """(completed-before-resume, executed-after-resume) node-name sets."""
    from repro.flow import read_journal

    events = read_journal(journal_file)
    before: set[str] = set()
    after: set[str] = set()
    seen_resume = False
    for event in events:
        if event.get("event") == "flow_resume":
            seen_resume = True
        elif event.get("event") == "node_done":
            if event.get("status") != "executed":
                continue
            (after if seen_resume else before).add(event["node"])
    return before, after


def run_scenario(label, faults, *, suite_args, workdir, baseline,
                 allowed_overlap=frozenset()):
    """Kill/tear a flow run, resume it, verify bit-identity. -> dict"""
    cache = os.path.join(workdir, f"cache-{label}")
    report = os.path.join(workdir, f"resumed-{label}.jsonl")
    run_id = f"chaos-{label}"
    record = {"label": label, "faults": faults, "ok": False}

    killed = repro(
        ["suite", "--flow", *suite_args, "--cache-dir", cache,
         "--run-id", run_id, "--faults", faults],
        workdir=workdir,
    )
    if killed.returncode not in SIGKILL_CODES:
        record["error"] = (f"expected SIGKILL, got rc={killed.returncode}: "
                           f"{killed.stderr.strip()[:300]}")
        return record
    record["killed_rc"] = killed.returncode

    resumed = repro(
        ["resume", run_id, "--cache-dir", cache, "--report", report],
        workdir=workdir,
    )
    if resumed.returncode != 0:
        record["error"] = (f"resume failed rc={resumed.returncode}: "
                           f"{resumed.stderr.strip()[:300]}")
        return record

    journal = os.path.join(cache, "flow", "runs", f"{run_id}.jsonl")
    record["journal"] = journal
    before, after = journal_sets(journal)
    overlap = before & after
    record["completed_before_kill"] = sorted(before)
    record["executed_on_resume"] = sorted(after)
    if not overlap <= set(allowed_overlap):
        record["error"] = (f"resume re-executed journaled-complete "
                           f"node(s) {sorted(overlap - set(allowed_overlap))}")
        return record
    if allowed_overlap and not overlap:
        record["error"] = (f"expected torn node(s) {sorted(allowed_overlap)} "
                           "to re-execute, but none did")
        return record

    diff = repro(
        ["diff", baseline, report, "--seconds-tolerance", "1000"],
        workdir=workdir,
    )
    record["diff_rc"] = diff.returncode
    if diff.returncode != 0:
        record["error"] = ("resumed report differs from clean baseline:\n"
                           + diff.stdout.strip()[:2000])
        return record
    record["ok"] = True
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmarks", default="linpack,whet",
                        help="comma-separated benchmark names")
    parser.add_argument("--machines", nargs="+",
                        default=["superscalar:4", "superscalar:8"],
                        help="machine preset specs")
    parser.add_argument("--kill-every", type=int, default=2, metavar="N",
                        help="kill at every Nth node boundary (default 2)")
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (default: a fresh tempdir)")
    parser.add_argument("--manifest", default=None, metavar="PATH",
                        help="write a JSON manifest of every scenario")
    parser.add_argument("--keep", action="store_true",
                        help="keep the scratch directory on success")
    args = parser.parse_args(argv)

    workdir = args.workdir or tempfile.mkdtemp(prefix="resume-smoke-")
    os.makedirs(workdir, exist_ok=True)
    suite_args = ["--benchmarks", *args.benchmarks.split(","),
                  "--machines", *args.machines]
    baseline = os.path.join(workdir, "clean.jsonl")

    clean = repro(
        ["suite", "--flow", *suite_args,
         "--cache-dir", os.path.join(workdir, "cache-clean"),
         "--run-id", "clean", "--report", baseline],
        workdir=workdir,
    )
    if clean.returncode != 0:
        print("baseline flow run failed:", file=sys.stderr)
        sys.stderr.write(clean.stderr)
        return 1
    before, after = journal_sets(
        os.path.join(workdir, "cache-clean", "flow", "runs", "clean.jsonl"))
    total = len(before | after)
    print(f"baseline: {total} nodes -> {baseline}")

    scenarios = []
    for ordinal in range(1, total + 1, max(1, args.kill_every)):
        scenarios.append((f"kill{ordinal}", f"kill@{ordinal}", frozenset()))
    if total >= 2:
        # Tear the first node's checkpoint, then die two nodes later:
        # the journal claims node 1 completed, but its checkpoint is
        # truncated, so resume must recompute it (and only it) among
        # the pre-kill nodes.
        kill_at = min(total, 3)
        # Node order in the journal is execution order; ordinal 1 is
        # the first node_done event.
        first_node = None
        from repro.flow import read_journal

        for event in read_journal(os.path.join(
                workdir, "cache-clean", "flow", "runs", "clean.jsonl")):
            if event.get("event") == "node_done":
                first_node = event["node"]
                break
        scenarios.append(("torn", f"torn-write@1,kill@{kill_at}",
                          frozenset([first_node])))

    results = []
    failures = 0
    for label, faults, allowed in scenarios:
        record = run_scenario(label, faults, suite_args=suite_args,
                              workdir=workdir, baseline=baseline,
                              allowed_overlap=allowed)
        results.append(record)
        status = "ok" if record["ok"] else "FAIL"
        detail = "" if record["ok"] else f" -- {record.get('error', '?')}"
        print(f"{label:8s} [{faults}] {status}{detail}")
        if not record["ok"]:
            failures += 1

    manifest = {
        "workdir": workdir,
        "benchmarks": args.benchmarks,
        "machines": args.machines,
        "nodes": total,
        "scenarios": results,
        "failures": failures,
    }
    if args.manifest:
        parent = os.path.dirname(args.manifest)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.manifest, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2)
            handle.write("\n")
        print(f"manifest -> {args.manifest}")

    if failures:
        print(f"FAIL: {failures}/{len(results)} scenario(s) diverged "
              f"(scratch kept at {workdir})", file=sys.stderr)
        return 1
    print(f"all {len(results)} scenarios bit-identical after resume")
    if not args.keep and args.workdir is None:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
