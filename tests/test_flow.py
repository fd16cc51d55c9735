"""Tests for the checkpointed workflow DAG engine (repro.flow)."""

from __future__ import annotations

import dataclasses
import json
import os
import signal

import pytest

from repro.flow import (
    FlowDag,
    FlowError,
    FlowNode,
    FlowRunner,
    FlowStateStore,
    journal_path,
    read_journal,
    run_flow,
    run_sweep_flow,
    state_dir,
)
from repro.engine.cache import TraceCache
from repro.flow.state import JournalError


# ---------------------------------------------------------------------------
# DAG structure and signatures
# ---------------------------------------------------------------------------


def _node(name, fingerprint="fp", deps=(), kind="t"):
    return FlowNode(name=name, kind=kind, fingerprint=fingerprint,
                    deps=tuple(deps))


class TestFlowDag:
    def test_duplicate_node_rejected(self):
        dag = FlowDag()
        dag.add(_node("a"))
        with pytest.raises(FlowError, match="duplicate"):
            dag.add(_node("a"))

    def test_unknown_dependency_rejected(self):
        dag = FlowDag()
        dag.add(_node("a", deps=("ghost",)))
        with pytest.raises(FlowError, match="unknown node 'ghost'"):
            dag.validate()

    def test_cycle_detected(self):
        dag = FlowDag()
        dag.add(_node("a", deps=("b",)))
        dag.add(_node("b", deps=("a",)))
        with pytest.raises(FlowError, match="cycle"):
            dag.validate()

    def test_topological_order_deterministic(self):
        dag = FlowDag()
        dag.add(_node("z"))
        dag.add(_node("a"))
        dag.add(_node("m", deps=("z", "a")))
        assert dag.topological_order() == ["z", "a", "m"]

    def test_signatures_ignore_names(self):
        def build(cell_name):
            dag = FlowDag()
            dag.add(_node("compile", fingerprint="src-hash"))
            dag.add(_node(cell_name, fingerprint="machine-hash",
                          deps=("compile",)))
            return dag

        a = build("cell:000").signatures()
        b = build("cell:renamed").signatures()
        assert a["cell:000"] == b["cell:renamed"]
        assert a["compile"] == b["compile"]

    def test_fingerprint_change_invalidates_downstream_only(self):
        def build(fp):
            dag = FlowDag()
            dag.add(_node("a", fingerprint=fp))
            dag.add(_node("b", fingerprint="b"))
            dag.add(_node("c", fingerprint="c", deps=("a",)))
            dag.add(_node("d", fingerprint="d", deps=("b",)))
            return dag

        s1 = build("v1").signatures()
        s2 = build("v2").signatures()
        assert s1["a"] != s2["a"]
        assert s1["c"] != s2["c"]
        assert s1["b"] == s2["b"]
        assert s1["d"] == s2["d"]

    def test_downstream_closure(self):
        dag = FlowDag()
        dag.add(_node("a"))
        dag.add(_node("b", deps=("a",)))
        dag.add(_node("c", deps=("b",)))
        dag.add(_node("x"))
        assert dag.downstream(["a"]) == {"a", "b", "c"}
        assert dag.downstream(["x"]) == {"x"}
        with pytest.raises(FlowError):
            dag.downstream(["ghost"])


# ---------------------------------------------------------------------------
# The engine, on synthetic DAGs
# ---------------------------------------------------------------------------


class _Kill(Exception):
    """In-process stand-in for the SIGKILL a kill fault delivers."""


def _chain_dag(n=4, fingerprints=None):
    """a0 <- a1 <- ... <- a(n-1), value = dep value + 1."""
    dag = FlowDag()
    for i in range(n):
        fp = (fingerprints or {}).get(i, f"fp{i}")
        deps = (f"a{i - 1}",) if i else ()
        dag.add(FlowNode(name=f"a{i}", kind="t", fingerprint=fp,
                         deps=deps, payload=i))
    return dag


def _runners(trace):
    def func(name, payload, deps):
        trace.append(name)
        return sum(v for v in deps.values() if v is not None) + 1

    return {"t": FlowRunner("t", func, local=True)}


class TestRunFlow:
    def test_executes_and_restores(self, tmp_path):
        root = str(tmp_path)
        trace = []
        r1 = run_flow(_chain_dag(), _runners(trace), root=root)
        assert r1.ok and len(r1.executed) == 4 and not r1.restored
        assert r1.values["a3"] == 4

        trace.clear()
        r2 = run_flow(_chain_dag(), _runners(trace), root=root)
        assert not r2.executed and len(r2.restored) == 4
        assert trace == []
        assert r2.values == r1.values

    def test_fingerprint_change_reexecutes_downstream_slice(self, tmp_path):
        root = str(tmp_path)
        trace = []
        run_flow(_chain_dag(), _runners(trace), root=root)

        trace.clear()
        changed = _chain_dag(fingerprints={2: "fp2-edited"})
        r = run_flow(changed, _runners(trace), root=root)
        assert sorted(r.restored) == ["a0", "a1"]
        assert sorted(r.executed) == ["a2", "a3"]
        assert trace == ["a2", "a3"]

    def test_missing_runner_rejected(self, tmp_path):
        with pytest.raises(FlowError, match="no runner"):
            run_flow(_chain_dag(), {}, root=str(tmp_path))

    def test_failed_node_skips_dependents(self, tmp_path):
        def func(name, payload, deps):
            if name == "a1":
                raise ValueError("boom")
            return 1

        runners = {"t": FlowRunner("t", func, local=True)}
        r = run_flow(_chain_dag(3), runners, root=str(tmp_path))
        assert not r.ok
        assert r.statuses == {"a0": "executed", "a1": "failed",
                              "a2": "skipped"}
        assert "a1" in r.failed and "a2" in r.failed

    def test_validate_rejection_forces_recompute(self, tmp_path):
        root = str(tmp_path)
        trace = []

        def validate(value):
            return None if value >= 0 else "negative"

        def func(name, payload, deps):
            trace.append(name)
            return sum(v for v in deps.values() if v is not None) + 1

        runners = {"t": FlowRunner("t", func, validate=validate,
                                   local=True)}
        run_flow(_chain_dag(2), runners, root=root)

        # Corrupt a2's checkpoint semantically: overwrite with -5.
        sigs = _chain_dag(2).signatures()
        store = FlowStateStore(state_dir(root))
        store.store(sigs["a1"], "a1", "t", -5)

        trace.clear()
        r = run_flow(_chain_dag(2), runners, root=root)
        assert r.restored == ["a0"]
        assert r.executed == ["a1"]
        assert r.values["a1"] == 2

    def test_kill_and_resume(self, tmp_path):
        from repro.engine.faults import FaultPlan

        root = str(tmp_path)
        trace = []

        def kill_action(node, ordinal):
            raise _Kill(f"{node}@{ordinal}")

        with pytest.raises(_Kill):
            run_flow(_chain_dag(), _runners(trace), root=root,
                     run_id="r1", faults=FaultPlan.parse("kill@2"),
                     kill_action=kill_action)

        events = read_journal(journal_path(root, "r1"))
        done = [e["node"] for e in events if e["event"] == "node_done"]
        assert done == ["a0", "a1"]

        trace.clear()
        r = run_flow(_chain_dag(), _runners(trace), root=root,
                     run_id="r1")
        assert sorted(r.restored) == ["a0", "a1"]
        assert sorted(r.executed) == ["a2", "a3"]
        assert r.values["a3"] == 4
        # The journal records the resume boundary.
        events = read_journal(journal_path(root, "r1"))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "flow_start"
        assert "flow_resume" in kinds
        assert kinds[-1] == "flow_end"

    def test_restored_nodes_never_fire_faults(self, tmp_path):
        from repro.engine.faults import FaultPlan

        root = str(tmp_path)

        def kill_action(node, ordinal):
            raise _Kill(node)

        # Warm every checkpoint first, then rerun with a kill@1 plan:
        # all nodes restore, no node *executes*, so the ordinal never
        # reaches 1 and the kill cannot fire.
        run_flow(_chain_dag(), _runners([]), root=root)
        r = run_flow(_chain_dag(), _runners([]), root=root,
                     faults=FaultPlan.parse("kill@1"),
                     kill_action=kill_action)
        assert r.ok and len(r.restored) == 4

    def test_torn_checkpoint_recomputed_on_resume(self, tmp_path):
        from repro.engine.faults import FaultPlan

        root = str(tmp_path)
        trace = []

        def kill_action(node, ordinal):
            raise _Kill(node)

        # Tear a1's checkpoint as written, then die after a2.
        with pytest.raises(_Kill):
            run_flow(_chain_dag(), _runners(trace), root=root,
                     run_id="r1",
                     faults=FaultPlan.parse("torn-write@2,kill@3"),
                     kill_action=kill_action)
        events = read_journal(journal_path(root, "r1"))
        done = [e["node"] for e in events if e["event"] == "node_done"]
        assert done == ["a0", "a1", "a2"]  # journal claims a1 done...

        trace.clear()
        r = run_flow(_chain_dag(), _runners(trace), root=root,
                     run_id="r1")
        # ...but its checkpoint is torn, so it recomputes.
        assert "a1" in r.executed
        assert "a0" in r.restored
        assert r.values["a3"] == 4

    def test_renamed_node_restores_old_checkpoint(self, tmp_path):
        root = str(tmp_path)
        dag = FlowDag()
        dag.add(FlowNode(name="x", kind="t", fingerprint="same"))
        run_flow(dag, _runners([]), root=root)

        # Signatures exclude names: a renamed (or re-indexed) node with
        # identical content restores the old node's checkpoint.
        renamed = FlowDag()
        renamed.add(FlowNode(name="y", kind="t", fingerprint="same"))
        r = run_flow(renamed, _runners([]), root=root)
        assert r.restored == ["y"] and not r.executed


class TestJournalErrors:
    def test_missing_journal(self, tmp_path):
        with pytest.raises(JournalError, match="no journal"):
            read_journal(journal_path(str(tmp_path), "ghost"))

    def test_empty_journal(self, tmp_path):
        path = journal_path(str(tmp_path), "empty")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        open(path, "w").close()
        with pytest.raises(JournalError, match="empty"):
            read_journal(path)

    def test_wrong_first_event(self, tmp_path):
        path = journal_path(str(tmp_path), "bad")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write(json.dumps({"event": "node_done"}) + "\n")
        with pytest.raises(JournalError, match="flow_start"):
            read_journal(path)

    def test_torn_final_line_tolerated(self, tmp_path):
        path = journal_path(str(tmp_path), "torn")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write(json.dumps(
                {"event": "flow_start", "version": 1}) + "\n")
            handle.write('{"event": "node_do')  # torn mid-write
        events = read_journal(path)
        assert len(events) == 1

    def test_bad_run_id_rejected(self, tmp_path):
        with pytest.raises(JournalError):
            journal_path(str(tmp_path), "../escape")


# ---------------------------------------------------------------------------
# The sweep flow against the real engine (acceptance: incremental slice)
# ---------------------------------------------------------------------------


def _sweep(plan, cache_dir, **kwargs):
    return run_sweep_flow(plan, cache=TraceCache(str(cache_dir)), **kwargs)


class TestSweepFlowIncremental:
    def test_machine_preset_change_reruns_only_its_slice(self, tmp_path):
        from repro.engine.plan import plan_sweep
        from repro.machine.presets import resolve

        s4, s8 = resolve("superscalar:2"), resolve("superscalar:4")
        plan1 = plan_sweep(["whet"], [s4, s8])
        result1, fr1 = _sweep(plan1, tmp_path)
        # 1 compile + 2 cells + rows, all cold.
        assert len(fr1.executed) == 4 and not fr1.restored

        # Same plan again: everything restores.
        _, fr2 = _sweep(plan1, tmp_path)
        assert not fr2.executed and len(fr2.restored) == 4

        # Swap one machine preset: only its cells (and the rows
        # aggregate downstream of them) re-run.
        plan2 = plan_sweep(["whet"], [s4, resolve("superpipelined:2")])
        result3, fr3 = _sweep(plan2, tmp_path)
        assert sorted(n.split(":")[0] for n in fr3.executed) \
            == ["cell", "rows"]
        assert any("superpipelined-2" in n for n in fr3.executed)
        assert len(fr3.restored) == 2  # the compile + the s4 cell
        assert all("superpipelined-2" not in n for n in fr3.restored)
        cells = {c.machine: c for c in result3.cells}
        assert cells[s4.name].parallelism \
            == {c.machine: c for c in result1.cells}[s4.name].parallelism

    def test_options_change_reruns_only_that_benchmark(self, tmp_path):
        from repro.engine.plan import plan_sweep
        from repro.machine.presets import resolve
        from repro.opt.options import OptLevel

        machine = resolve("superscalar:4")
        plan1 = plan_sweep(["linpack", "whet"], [machine])
        _, fr1 = _sweep(plan1, tmp_path)
        assert len(fr1.executed) == 5  # 2 compiles + 2 cells + rows

        # Change one benchmark's compile options (stands in for editing
        # its source: the compile fingerprint is the trace key over
        # source + options).
        cells = [
            dataclasses.replace(
                cell,
                options=dataclasses.replace(cell.options,
                                            opt_level=OptLevel.LOCAL))
            if cell.benchmark == "whet" else cell
            for cell in plan1.cells
        ]
        plan2 = dataclasses.replace(plan1, cells=tuple(cells))
        _, fr2 = _sweep(plan2, tmp_path)
        executed = sorted(fr2.executed)
        assert "rows" in executed
        assert all("whet" in n or n == "rows" for n in executed)
        assert len(executed) == 3  # whet compile + whet cell + rows
        assert sum("linpack" in n for n in fr2.restored) == 2

    def test_flow_rows_match_classic_executor(self, tmp_path):
        from repro.engine.executor import execute
        from repro.engine.plan import plan_sweep
        from repro.machine.presets import resolve
        from repro.obs.recorder import Recorder

        # Wall-clock fields, and the replay counters, which depend on
        # what the memo store already held when each path ran.
        unstable = {"seconds", "compile_seconds", "compile_cached",
                    "cached", "replay"}

        def stable(fields: dict) -> dict:
            return {k: v for k, v in fields.items() if k not in unstable}

        plan = plan_sweep(["whet"], [resolve("superscalar:4"),
                                     resolve("superpipelined:2")],
                          observe=True)
        flow_rec, classic_rec = Recorder(), Recorder()
        flow_result, _ = run_sweep_flow(
            plan, cache=TraceCache(str(tmp_path / "flow")),
            recorder=flow_rec)
        classic = execute(plan, recorder=classic_rec)

        assert len(flow_result.cells) == len(classic.cells) == 2
        for a, b in zip(flow_result.cells, classic.cells):
            assert a.stalls is not None
            assert stable(dataclasses.asdict(a)) \
                == stable(dataclasses.asdict(b))
            assert a.checksum_ok and a.status == "ok"

        def cell_events(rec):
            return [stable(e) for e in rec.events_named("cell")]

        assert cell_events(flow_rec) == cell_events(classic_rec)
        assert len(cell_events(flow_rec)) == 2


class TestRestoredFlowReport:
    def test_primed_rerun_reports_no_misses_or_memo_hits(self, cli,
                                                         tmp_path):
        from repro.obs.recorder import read_jsonl

        args = ("suite", "--flow", "--benchmarks", "whet",
                "--machines", "superscalar:4", "superpipelined:2",
                "--cache-dir", str(tmp_path / "cache"))
        reports = []
        for run in ("first", "rerun"):
            path = tmp_path / f"{run}.jsonl"
            code, _, _ = cli(*args, "--report", str(path))
            assert code == 0
            events = read_jsonl(str(path))
            reports.append((
                next(e for e in events if e["event"] == "flow"),
                next(e for e in events if e["event"] == "engine"),
            ))
        (flow, engine), (reflow, rerun) = reports
        # The first run's one compile may be served from the
        # in-process memo; either way it executes every node.
        assert flow["executed"] == flow["nodes"]
        assert engine["cache_hits"] + engine["cache_misses"] == 1
        assert engine["memo_hits"] + engine["memo_misses"] > 0
        # The rerun restores every node: nothing compiled, nothing
        # replayed, so no misses and no replay-memo counters.
        assert reflow["executed"] == 0
        assert reflow["restored"] == reflow["nodes"]
        assert rerun["cache_hits"] == 1 and rerun["cache_misses"] == 0
        assert rerun["memo_hits"] == rerun["memo_misses"] == 0
        # ... and spends no compile or simulation time.
        assert engine["sim_seconds"] > 0
        assert rerun["compile_seconds"] == rerun["sim_seconds"] == 0

    def test_compile_time_counts_the_compile_node(self, tmp_path):
        from repro.engine.plan import plan_sweep
        from repro.machine.presets import resolve

        plan = plan_sweep(["whet"], [resolve("superscalar:4"),
                                     resolve("superpipelined:2")])
        first, fr = _sweep(plan, tmp_path)
        node = next(n for n in fr.executed if n.startswith("compile:"))
        assert not fr.values[node]["cached"]
        assert first.report.compile_seconds >= fr.values[node]["seconds"] > 0
        again, fr2 = _sweep(plan, tmp_path)
        assert not fr2.executed
        assert again.report.compile_seconds == 0
        assert again.report.sim_seconds == 0


# ---------------------------------------------------------------------------
# CLI error contracts (resume/diff/dash exit 2 on bad stores)
# ---------------------------------------------------------------------------


@pytest.fixture
def cli(capsys):
    """Invoke the CLI in-process, preserving the SIGTERM handler."""
    from repro.__main__ import main

    old = signal.getsignal(signal.SIGTERM)

    def invoke(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse or _parse_benchmarks
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    yield invoke
    signal.signal(signal.SIGTERM, old)


class TestCliErrors:
    @pytest.mark.parametrize("flag", ["--sample-resources", "--live"])
    def test_flow_rejects_unsupported_flags(self, cli, tmp_path, flag):
        report = tmp_path / "r.jsonl"
        code, out, err = cli("suite", "--flow", flag,
                             "--benchmarks", "whet",
                             "--cache-dir", str(tmp_path),
                             "--report", str(report))
        assert code == 2
        assert f"--flow does not support {flag}" in err
        assert out == ""
        assert not report.exists()

    def test_resume_missing_journal(self, cli, tmp_path):
        code, _, err = cli("resume", "ghost",
                           "--cache-dir", str(tmp_path))
        assert code == 2
        assert "no journal" in err

    def test_resume_empty_journal(self, cli, tmp_path):
        path = journal_path(str(tmp_path), "empty")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        open(path, "w").close()
        code, _, err = cli("resume", "empty",
                           "--cache-dir", str(tmp_path))
        assert code == 2
        assert "empty" in err

    def test_resume_foreign_journal(self, cli, tmp_path):
        path = journal_path(str(tmp_path), "foreign")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write(json.dumps({
                "event": "flow_start", "version": 1,
                "flow": {"kind": "prime", "spec": {}},
            }) + "\n")
        code, _, err = cli("resume", "foreign",
                           "--cache-dir", str(tmp_path))
        assert code == 2
        assert "not started by" in err

    def test_diff_missing_ledger(self, cli, tmp_path):
        code, _, err = cli("diff", "latest", "latest~1",
                           "--ledger", str(tmp_path / "none.sqlite"))
        assert code == 2
        assert "no ledger" in err

    def test_dash_missing_ledger(self, cli, tmp_path):
        code, _, err = cli("dash",
                           "--ledger", str(tmp_path / "none.sqlite"),
                           "--out", str(tmp_path / "d.html"))
        assert code == 2
        assert "no ledger" in err

    def test_dash_empty_ledger(self, cli, tmp_path):
        from repro.obs.history import HistoryLedger

        ledger_path = tmp_path / "empty.sqlite"
        HistoryLedger(str(ledger_path)).close()
        code, _, err = cli("dash", "--ledger", str(ledger_path),
                           "--out", str(tmp_path / "d.html"))
        assert code == 2
        assert "no runs" in err
        assert not (tmp_path / "d.html").exists()


class TestFlowEventSchema:
    def test_flow_event_validates(self):
        from repro.flow import flow_event
        from repro.obs.schema import check_event

        class _FR:
            run_id = "r"
            dag_signature = "d" * 64
            statuses = {"a": "executed", "b": "restored"}
            executed = ["a"]
            restored = ["b"]
            failed = {}
            seconds = 0.5

        event = dict(flow_event(_FR()), event="flow")
        assert check_event(event) == []

    def test_flow_event_node_conservation_enforced(self):
        from repro.obs.schema import check_event

        bad = {"event": "flow", "run_id": "r", "nodes": 3,
               "executed": 1, "restored": 1, "failed": 0}
        errors = check_event(bad)
        assert any("conservation" in e or "nodes" in e for e in errors)

    def test_flow_report_passes_full_schema_check(self, tmp_path):
        from repro.engine.plan import plan_sweep
        from repro.machine.presets import resolve
        from repro.obs.recorder import JsonlRecorder
        from repro.obs.schema import SCHEMA_VERSION, check_file

        path = tmp_path / "flow-report.jsonl"
        plan = plan_sweep(["whet"], [resolve("superscalar:4")],
                          observe=True)
        with JsonlRecorder(str(path)) as rec:
            rec.emit("run_start", schema=SCHEMA_VERSION, run_id="t",
                     machines=["superscalar-4"])
            run_sweep_flow(plan, cache=TraceCache(str(tmp_path / "c")),
                           recorder=rec)
            rec.emit("run_end", seconds=0.0, counters=dict(rec.counters))
        assert check_file(str(path)) == []


class TestBenchGapFlow:
    def test_flow_reports_same_cycles_as_executor(self, tmp_path):
        import importlib.util
        from pathlib import Path

        from repro.flow import list_runs

        script = Path(__file__).resolve().parent.parent / "scripts" \
            / "bench_gap.py"
        spec = importlib.util.spec_from_file_location("bench_gap", script)
        bench_gap = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_gap)

        def gap(out, *extra):
            argv = ["--benchmarks", "whet", "--machines", "superscalar:4",
                    "--output", str(out), *extra]
            assert bench_gap.main(argv) == 0
            return json.loads(out.read_text())["gap"]

        cache_dir = tmp_path / "cache"
        flow = gap(tmp_path / "flow.json", "--flow",
                   "--cache-dir", str(cache_dir))
        classic = gap(tmp_path / "classic.json")
        # One journaled flow run per scheduler backend.
        assert len(list_runs(str(cache_dir))) \
            == len(bench_gap.DEFAULT_SCHEDULERS)
        assert [c["cycles"] for c in flow["cells"]] \
            == [c["cycles"] for c in classic["cells"]]
        assert set(flow["cells"][0]["cycles"]) \
            == set(bench_gap.DEFAULT_SCHEDULERS)
