"""Tests for run reports, the recorder JSONL format, the CLI surface,
and the stdlib schema validator in scripts/ (pinned against the package
schema so the two copies cannot drift)."""

from __future__ import annotations

import importlib.util
import json
import sys
import threading
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.machine import base_machine, ideal_superscalar
from repro.obs.recorder import JsonlRecorder, Recorder, read_jsonl
from repro.obs.report import (
    build_suite_report,
    default_report_machines,
    render_profile_table,
    render_stall_table,
    stall_row,
)
from repro.obs.schema import EVENT_SCHEMA, SCHEMA_VERSION
from repro.obs.stalls import STALL_CAUSES

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"

TIN = (
    "proc main(): int { var i, s: int; s = 0; i = 0;"
    " while (i < 20) { s = s + i; i = i + 1; } return s; }"
)


def load_validator():
    spec = importlib.util.spec_from_file_location(
        "check_report_schema", SCRIPTS_DIR / "check_report_schema.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def validator():
    return load_validator()


@pytest.fixture(scope="module")
def whet_report(tmp_path_factory):
    """One observed benchmark run, shared across the module's tests."""
    path = tmp_path_factory.mktemp("report") / "run.jsonl"
    with JsonlRecorder(path) as rec:
        report = build_suite_report(
            benchmarks=["whet"],
            machines=[base_machine(), ideal_superscalar(4)],
            recorder=rec,
            run_id="test-run",
        )
    return report, path


class TestSchemaMirror:
    """scripts/check_report_schema.py must match the package schema."""

    def test_event_schema_pinned(self, validator):
        assert validator.EVENT_SCHEMA == EVENT_SCHEMA

    def test_schema_version_pinned(self, validator):
        assert validator.SCHEMA_VERSION == SCHEMA_VERSION

    def test_stall_causes_pinned(self, validator):
        assert tuple(validator.STALL_CAUSES) == STALL_CAUSES


class TestJsonlRecorder:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlRecorder(path) as rec:
            rec.emit("run_start", schema=SCHEMA_VERSION, run_id="rt")
            rec.incr("things")
            rec.emit("run_end", seconds=0.0, counters=dict(rec.counters))
        events = read_jsonl(path)
        assert [e["event"] for e in events] == ["run_start", "run_end"]
        assert events[0]["run_id"] == "rt"
        assert events[1]["counters"] == {"things": 1}

    def test_lines_are_compact_sorted_json(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlRecorder(path) as rec:
            rec.emit("run_start", schema=1, run_id="z", b=2, a=1)
        line = path.read_text().strip()
        record = json.loads(line)
        assert list(record) == sorted(record)
        assert ": " not in line and ", " not in line


class TestRecorderThreadSafety:
    def test_concurrent_emits_produce_no_torn_lines(self, tmp_path):
        """Hammer one recorder from many threads: every line must parse
        and every event must arrive intact (single write() per line
        under the recorder's lock)."""
        path = tmp_path / "hammer.jsonl"
        n_threads, n_events = 8, 250
        payload = "x" * 256  # long enough that torn writes would show

        with JsonlRecorder(path) as rec:
            def hammer(tid: int) -> None:
                for i in range(n_events):
                    rec.emit("cell", thread=tid, seq=i, payload=payload)
                    rec.incr("events")

            threads = [threading.Thread(target=hammer, args=(t,))
                       for t in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        events = read_jsonl(path)  # raises on any torn/corrupt line
        assert len(events) == n_threads * n_events
        assert all(e["payload"] == payload for e in events)
        for tid in range(n_threads):
            seqs = [e["seq"] for e in events if e["thread"] == tid]
            assert seqs == list(range(n_events))  # per-thread order kept
        assert rec.counters["events"] == n_threads * n_events


class TestRunReport:
    def test_report_structure(self, whet_report):
        report, _ = whet_report
        assert report.run_id == "test-run"
        assert [br.benchmark for br in report.benchmarks] == ["whet"]
        br = report.benchmarks[0]
        assert br.checksum_ok
        assert br.instructions > 0
        assert [t.config_name for t in br.timings] == ["base",
                                                       "superscalar-4"]
        assert report.conservation_holds()

    def test_render_mentions_everything(self, whet_report):
        report, _ = whet_report
        text = report.render()
        assert "whet" in text
        assert "compile profile" in text
        assert "stall attribution" in text
        for cause in ("raw_dep", "memory_order", "unit_conflict"):
            assert cause in text
        assert "checksum ok" in text

    def test_jsonl_stream_is_complete(self, whet_report):
        report, path = whet_report
        events = read_jsonl(path)
        names = [e["event"] for e in events]
        assert names[0] == "run_start"
        assert names[-1] == "run_end"
        assert names.count("timing") == 2
        assert names.count("compile") == 1
        assert any(n == "compile_pass" for n in names)
        timing = next(e for e in events if e["event"] == "timing")
        stalls = timing["stalls"]
        total = (sum(stalls[c] for c in STALL_CAUSES)
                 + stalls["issued_cycles"])
        assert total == timing["minor_cycles"]

    def test_generated_report_passes_validator(self, whet_report, validator):
        _, path = whet_report
        assert validator.check_file(str(path)) == []

    def test_default_report_machines(self):
        names = [c.name for c in default_report_machines()]
        assert names[0] == "base"
        assert len(names) == len(set(names)) >= 5


class TestRendering:
    def test_stall_row_requires_observation(self):
        from repro.sim.timing import simulate
        from repro.sim.trace import Trace

        timing = simulate(Trace(static=[]), base_machine())
        with pytest.raises(ValueError):
            stall_row(timing)

    def test_stall_table(self, whet_report):
        report, _ = whet_report
        text = render_stall_table(report.benchmarks[0].timings, title="t")
        assert text.splitlines()[0].strip() == "t"
        assert "base" in text and "superscalar-4" in text

    def test_profile_table_includes_scheduler_line(self, whet_report):
        report, _ = whet_report
        text = render_profile_table(report.benchmarks[0].profile)
        assert "scheduler:" in text
        assert "blocks scheduled" in text


class TestValidatorRejections:
    def write(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def ok_start(self):
        return json.dumps({"event": "run_start", "schema": SCHEMA_VERSION,
                           "run_id": "x"})

    def ok_end(self):
        return json.dumps({"event": "run_end", "seconds": 0.1,
                           "counters": {}})

    def test_accepts_minimal_valid_file(self, validator, tmp_path):
        path = self.write(tmp_path, [self.ok_start(), self.ok_end()])
        assert validator.check_file(path) == []
        assert validator.main([path]) == 0

    def test_rejects_invalid_json(self, validator, tmp_path):
        path = self.write(tmp_path, [self.ok_start(), "{oops", self.ok_end()])
        assert any("invalid JSON" in e for e in validator.check_file(path))

    def test_rejects_unknown_event(self, validator, tmp_path):
        path = self.write(tmp_path, [
            self.ok_start(), json.dumps({"event": "mystery"}), self.ok_end(),
        ])
        assert any("unknown event" in e for e in validator.check_file(path))

    def test_rejects_missing_field(self, validator, tmp_path):
        path = self.write(tmp_path, [
            self.ok_start(),
            json.dumps({"event": "compile", "benchmark": "x",
                        "seconds": 0.1}),
            self.ok_end(),
        ])
        assert any("n_passes" in e for e in validator.check_file(path))

    def test_rejects_wrong_schema_version(self, validator, tmp_path):
        path = self.write(tmp_path, [
            json.dumps({"event": "run_start", "schema": 99, "run_id": "x"}),
            self.ok_end(),
        ])
        assert any("schema" in e for e in validator.check_file(path))

    def test_rejects_missing_run_end(self, validator, tmp_path):
        path = self.write(tmp_path, [self.ok_start()])
        assert any("run_end" in e for e in validator.check_file(path))

    def test_rejects_conservation_violation(self, validator, tmp_path):
        stalls = {c: 0 for c in STALL_CAUSES}
        stalls["raw_dep"] = 5
        stalls["issued_cycles"] = 1
        stalls["by_class"] = {"load": dict.fromkeys(
            list(STALL_CAUSES), 0) | {"raw_dep": 5}}
        path = self.write(tmp_path, [
            self.ok_start(),
            json.dumps({"event": "timing", "benchmark": "b", "machine": "m",
                        "instructions": 3, "minor_cycles": 99,
                        "base_cycles": 3.0, "parallelism": 1.0, "cpi": 1.0,
                        "stalls": stalls}),
            self.ok_end(),
        ])
        assert any("conservation" in e for e in validator.check_file(path))

    def test_rejects_bad_rollup(self, validator, tmp_path):
        stalls = dict.fromkeys(list(STALL_CAUSES), 0)
        stalls["raw_dep"] = 5
        stalls["issued_cycles"] = 1
        stalls["by_class"] = {}
        path = self.write(tmp_path, [
            self.ok_start(),
            json.dumps({"event": "timing", "benchmark": "b", "machine": "m",
                        "instructions": 3, "minor_cycles": 6,
                        "base_cycles": 3.0, "parallelism": 1.0, "cpi": 1.0,
                        "stalls": stalls}),
            self.ok_end(),
        ])
        assert any("roll-up" in e for e in validator.check_file(path))

    def test_rejects_negative_counts(self, validator, tmp_path):
        path = self.write(tmp_path, [
            self.ok_start(),
            json.dumps({"event": "compile", "benchmark": "x",
                        "seconds": -0.1, "n_passes": 3}),
            self.ok_end(),
        ])
        assert any("negative" in e for e in validator.check_file(path))

    def test_rejects_bad_span(self, validator, tmp_path):
        path = self.write(tmp_path, [
            self.ok_start(),
            json.dumps({"event": "span", "name": "engine.run", "cat": "e",
                        "track": "main", "start_us": 0.0, "dur_us": -3.0,
                        "span_id": 0, "parent_id": None}),
            self.ok_end(),
        ])
        assert any("dur_us" in e for e in validator.check_file(path))

    def test_rejects_histogram_conservation_violation(self, validator,
                                                      tmp_path):
        hist = {"bounds": [1, 10], "counts": [1, 1, 1], "count": 5,
                "sum": 12.0}
        path = self.write(tmp_path, [
            self.ok_start(),
            json.dumps({"event": "metrics", "counters": {}, "gauges": {},
                        "histograms": {"lat": hist}}),
            self.ok_end(),
        ])
        assert any("bucket" in e for e in validator.check_file(path))

    def test_rejects_cache_conservation_violation(self, validator,
                                                  tmp_path):
        counters = {"cache.gets": 5, "cache.hits": 1, "cache.misses": 1,
                    "cache.corrupt": 0}
        path = self.write(tmp_path, [
            self.ok_start(),
            json.dumps({"event": "metrics", "counters": counters,
                        "gauges": {}, "histograms": {}}),
            self.ok_end(),
        ])
        assert any("cache" in e for e in validator.check_file(path))

    def test_rejects_broken_memo_store_family(self, validator, tmp_path):
        # The trace-cache family balances; only cache.memo_* is broken.
        counters = {"cache.gets": 2, "cache.hits": 2,
                    "cache.memo_gets": 4, "cache.memo_hits": 1,
                    "cache.memo_misses": 2}
        path = self.write(tmp_path, [
            self.ok_start(),
            json.dumps({"event": "metrics", "counters": counters,
                        "gauges": {}, "histograms": {}}),
            self.ok_end(),
        ])
        errors = validator.check_file(path)
        assert len(errors) == 1
        assert "cache.memo_*" in errors[0]

    def test_accepts_valid_span_and_metrics(self, validator, tmp_path):
        hist = {"bounds": [1, 10], "counts": [2, 1, 1], "count": 4,
                "sum": 20.0}
        counters = {"cache.gets": 2, "cache.hits": 1, "cache.misses": 1,
                    "cache.corrupt": 0}
        path = self.write(tmp_path, [
            self.ok_start(),
            json.dumps({"event": "span", "name": "engine.run", "cat": "e",
                        "track": "main", "start_us": 0.0, "dur_us": 3.0,
                        "span_id": 0, "parent_id": None}),
            json.dumps({"event": "metrics", "counters": counters,
                        "gauges": {"engine.workers": 2},
                        "histograms": {"lat": hist}}),
            self.ok_end(),
        ])
        assert validator.check_file(path) == []

    def test_main_reports_failure(self, validator, tmp_path, capsys):
        path = self.write(tmp_path, ["{oops"])
        assert validator.main([path]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_main_without_args_is_usage_error(self, validator, capsys):
        assert validator.main([]) == 2


class TestCli:
    @pytest.fixture()
    def tin_file(self, tmp_path):
        path = tmp_path / "demo.tin"
        path.write_text(TIN)
        return str(path)

    def test_measure_plain_unchanged(self, tin_file, capsys):
        assert main(["measure", tin_file]) == 0
        out = capsys.readouterr().out
        assert "instr/cycle" in out
        assert "stall" not in out

    def test_measure_profile(self, tin_file, capsys):
        assert main(["measure", tin_file, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "compile profile" in out
        assert "raw_dep" in out

    def test_measure_report_emits_valid_jsonl(self, tin_file, tmp_path,
                                              validator, capsys):
        report = tmp_path / "out" / "measure.jsonl"
        assert main(["measure", tin_file, "--profile",
                     "--report", str(report)]) == 0
        assert report.exists()
        assert validator.check_file(str(report)) == []
        events = [e["event"] for e in read_jsonl(report)]
        assert events[0] == "run_start" and events[-1] == "run_end"
        assert "timing" in events

    def test_report_command(self, tmp_path, validator, capsys):
        out_path = tmp_path / "suite.jsonl"
        assert main(["report", "--benchmarks", "whet",
                     "-o", str(out_path), "--quiet"]) == 0
        captured = capsys.readouterr().out
        assert "conservation law: holds" in captured
        assert validator.check_file(str(out_path)) == []

    def test_report_command_renders(self, tmp_path, capsys):
        out_path = tmp_path / "suite.jsonl"
        assert main(["report", "--benchmarks", "whet",
                     "-o", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "stall attribution" in out
        assert "compile profile" in out


class TestSweepObservability:
    def test_sweep_emits_events_with_stalls(self, tmp_path, validator):
        from repro.analysis.sweep import sweep

        path = tmp_path / "sweep.jsonl"
        with JsonlRecorder(path) as rec:
            rec.emit("run_start", schema=SCHEMA_VERSION, run_id="sweep")
            rows = sweep(["whet"], [base_machine()], observe=True,
                         recorder=rec)
            rec.emit("run_end", seconds=0.0, counters=dict(rec.counters))
        assert rows[0].stalls is not None
        assert validator.check_file(str(path)) == []
        event = next(e for e in read_jsonl(path)
                     if e["event"] == "sweep_row")
        assert "stalls" in event

    def test_sweep_default_has_no_stalls(self):
        from repro.analysis.sweep import sweep

        rows = sweep(["whet"], [base_machine()])
        assert rows[0].stalls is None


class TestReportInputCli:
    """``repro report --input``: summarize an existing JSONL report."""

    def test_summarizes_report(self, whet_report, capsys):
        _, path = whet_report
        assert main(["report", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run report" in out and "test-run" in out
        assert "run_start" in out and "timing" in out

    def test_missing_file_prints_one_line(self, tmp_path, capsys):
        assert main(["report", "--input", str(tmp_path / "nope.jsonl")]) == 1
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert "Traceback" not in err

    def test_empty_file_prints_one_line(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["report", "--input", str(path)]) == 1
        assert "no valid events" in capsys.readouterr().err

    def test_truncated_report_warns_and_summarizes(self, whet_report,
                                                   tmp_path, capsys):
        _, src = whet_report
        lines = Path(src).read_text().splitlines()
        path = tmp_path / "truncated.jsonl"
        # Drop run_end and tear the last remaining line mid-record.
        path.write_text("\n".join(lines[:-2] + [lines[-2][:10]]) + "\n")
        assert main(["report", "--input", str(path)]) == 0
        captured = capsys.readouterr()
        assert "skipped 1 malformed line(s)" in captured.err
        assert "no run_end event" in captured.out


class TestTraceCli:
    """``repro trace``: self-profile tree from a report's span events."""

    @pytest.fixture(scope="class")
    def traced_report(self, tmp_path_factory):
        from repro.engine.executor import execute
        from repro.engine.plan import plan_sweep

        path = tmp_path_factory.mktemp("trace") / "run.jsonl"
        plan = plan_sweep(["whet"], [base_machine(), ideal_superscalar(4)])
        with JsonlRecorder(path) as rec:
            rec.emit("run_start", schema=SCHEMA_VERSION, run_id="traced")
            execute(plan, recorder=rec)  # recorder auto-enables tracing
            rec.emit("run_end", seconds=0.0, counters=dict(rec.counters))
        return str(path)

    def test_prints_profile_tree_and_metrics(self, traced_report, capsys):
        assert main(["trace", traced_report]) == 0
        out = capsys.readouterr().out
        assert f"self-profile: {traced_report}" in out
        assert "engine.run" in out and "simulate" in out
        assert "replay memo:" in out

    def test_chrome_export(self, traced_report, tmp_path, capsys):
        chrome = tmp_path / "out" / "trace.json"
        assert main(["trace", traced_report, "--chrome", str(chrome)]) == 0
        assert "Chrome trace written" in capsys.readouterr().out
        doc = json.loads(chrome.read_text())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert any(e["name"] == "engine.run" for e in complete)

    def test_report_without_spans_fails_clearly(self, tmp_path, capsys):
        path = tmp_path / "plain.jsonl"
        path.write_text(json.dumps(
            {"event": "run_start", "schema": SCHEMA_VERSION,
             "run_id": "x"}) + "\n")
        assert main(["trace", str(path)]) == 1
        assert "no span events" in capsys.readouterr().err

    def test_missing_file_fails_clearly(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "gone.jsonl")]) == 1
        assert "cannot read" in capsys.readouterr().err
