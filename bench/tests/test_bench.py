"""Tests of the benchmark harness itself.

Run with ``python -m pytest bench/tests -q`` from the repository root
(under a minute: one ``--quick`` run plus one single-workload run).
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

_spec = importlib.util.spec_from_file_location(
    "bench_run", os.path.join(BENCH, "run.py"))
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def load_reference() -> dict:
    with open(bench_run.REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)["rows"]


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("quick") / "results.json"
    return run_bench("--quick", "--out", str(out))


def test_quick_run_prints_every_declared_metric_with_its_unit(quick):
    assert quick.returncode == 0, quick.stdout[-3000:] + quick.stderr
    with open(bench_run.DECLARATION, encoding="utf-8") as handle:
        declared = json.load(handle)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        pattern = (rf"^\s+{re.escape(metric['name'])}\s+"
                   rf"{re.escape(metric['unit'])}\s")
        assert re.search(pattern, quick.stdout, re.M), metric["name"]
    for name in ("fail_ratio", "rows_mismatched"):
        assert re.search(rf"^\s+{name}\s+\S+\s+0\b", quick.stdout, re.M)
    line = last_json(quick.stdout)
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] > 0
    names = {f"{w}.{m['name']}" for w in bench_run.WORKLOADS
             for m in declared["per_layer"]}
    assert set(line["metrics"]) == names


def test_declaration_is_well_formed():
    with open(bench_run.DECLARATION, encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] \
        == list(bench_run.WORKLOADS)
    metrics = declared["end_to_end"] + declared["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}",
                            metric["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_tampered_reference_row_fails_the_run(tmp_path):
    # A copy of the benchmark beside the real sources, with one row off.
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench_run.DECLARATION, tmp_path)
    os.symlink(bench_run.SRC, tmp_path / "src")
    rows = load_reference()
    rows["list/whet@base"]["minor_cycles"] += 1
    (tmp_path / "bench" / "reference" / "rows.json").write_text(
        json.dumps({"rows": rows}))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--quick",
         "--workload", "grid_cold", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout[-3000:] + proc.stderr
    assert "rows differ from the reference" in proc.stdout
    line = last_json(proc.stdout)
    assert line["correct"] is False and line["failed"] == 0


def test_reference_agrees_with_the_committed_baseline_report():
    rows = load_reference()
    assert bench_run.baseline_mismatches(rows) == []
    pinned = [key for key in rows
              if key.split("/")[1].split("@")[0] in ("linpack", "whet",
                                                      "stanford")
              and key.split("@")[1] in ("base", "superscalar-4",
                                        "superpipelined-4")
              and key.startswith("list/")]
    assert len(pinned) == 9


def test_reference_covers_every_cell_any_seed_can_run():
    keys = set(load_reference())
    machines = {f"superpipelined-superscalar-{n}x{m}"
                for n, m in bench_run.SHAPES}
    machines |= {"base", "superscalar-2", "superscalar-4", "superscalar-8",
                 "superpipelined-4", "multititan-w1", "cray1-w1"}
    assert {f"list/{b}@{m}" for b in bench_run.BENCHMARKS
            for m in machines} <= keys
    assert {f"exact-target/{b}@superpipelined-4"
            for b in bench_run.EXACT_BENCHMARKS} <= keys
    assert bench_run.design_machines(0, 16) == bench_run.design_machines(
        0, 16)
    assert bench_run.design_machines(0, 16) != bench_run.design_machines(
        1, 16)


def _doc(run_s: list[float], backend: str = "numpy") -> dict:
    values = {"run_s": run_s}
    return {
        "env": {"python": "3", "backend": backend, "cpu_count": 2,
                "quick": False, "seed": 0},
        "workloads": {"grid_cold": {
            "end_to_end": {m: bench_run.stats(v) for m, v in values.items()},
            "values": values,
        }},
    }


def _compare(tmp_path, a: dict, b: dict) -> int:
    paths = []
    for name, doc in (("a.json", a), ("b.json", b)):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return bench_run.main(["--compare", *paths])


def test_compare_labels_each_pair(tmp_path, capsys):
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert _compare(tmp_path, _doc(base), _doc(base)) == 0
    assert "no worse" in capsys.readouterr().out
    assert _compare(tmp_path, _doc(base),
                    _doc([v * 1.3 for v in base])) == 1
    assert "worse" in capsys.readouterr().out
    assert _compare(tmp_path, _doc(base), _doc([0.5, 1.0, 1.5, 2.0])) == 1
    assert "unresolved" in capsys.readouterr().out
    assert _compare(tmp_path, _doc(base),
                    _doc([v * 0.7 for v in base])) == 0
    assert "better" in capsys.readouterr().out


def test_compare_refuses_documents_from_different_backends(tmp_path):
    with pytest.raises(bench_run.SetupError, match="backend"):
        _compare(tmp_path, _doc([1.0]), _doc([1.0], backend="scalar"))
