"""Tests for the run-history ledger, cross-run diffing, and the dashboard.

Covers :mod:`repro.obs.history` (content-addressed SQLite ledger,
lossless per-cell round-trips, idempotent ingestion),
:mod:`repro.obs.diff` (per-metric regression policy and gating), and
:mod:`repro.obs.dash` (the self-contained HTML dashboard whose embedded
JSON must equal the ledger export exactly), plus the ``repro
ingest`` / ``repro diff`` / ``repro dash`` CLI surface.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.__main__ import main as cli_main
from repro.engine.executor import execute
from repro.engine.faults import FaultPlan
from repro.engine.plan import plan_sweep
from repro.engine.resilience import RetryPolicy
from repro.obs.dash import render_dashboard, write_dashboard
from repro.obs.diff import DiffPolicy, diff_payloads, load_diff_side
from repro.obs.history import (
    HistoryLedger,
    LedgerError,
    fingerprint_payload,
    payload_from_events,
)
from repro.obs.recorder import JsonlRecorder, read_jsonl
from repro.obs.schema import SCHEMA_VERSION

#: Fast retry policy so faulted runs don't sleep for real.
FAST = RetryPolicy(base_delay=0.001, max_delay=0.01, group_timeout=60.0)

#: The paper's full grid — the round-trip acceptance runs on all of it.
ALL_BENCHES = ["ccom", "grr", "linpack", "livermore", "met", "stanford",
               "whet", "yacc"]
SEVEN_MACHINES = ["base", "superscalar:2", "superscalar:4",
                  "superscalar:8", "superpipelined:4", "multititan",
                  "cray1"]

#: Small grid for the cheaper per-behavior tests.
BENCHES = ["whet", "linpack"]
MACHINES = ["base", "superscalar:4"]


@pytest.fixture(autouse=True)
def _no_env(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_LEDGER", raising=False)


def _write_report(path, benches, machines, faults=None, workers=1):
    plan = plan_sweep(benches, machines, observe=True)
    with JsonlRecorder(str(path)) as rec:
        rec.emit("run_start", schema=SCHEMA_VERSION, run_id="history-test")
        result = execute(plan, workers=workers, recorder=rec,
                         policy=FAST, faults=faults)
        rec.emit("run_end", seconds=0.0, counters=dict(rec.counters))
    return result


@pytest.fixture(scope="module")
def faulted_grid_report(tmp_path_factory):
    """One faulted full-grid (8x7) observed run, as (events, path)."""
    path = tmp_path_factory.mktemp("ledger") / "faulted_grid.jsonl"
    _write_report(path, ALL_BENCHES, SEVEN_MACHINES, workers=2,
                  faults=FaultPlan.parse("crash@whet#1"))
    return list(read_jsonl(path)), str(path)


def _tiny_report(run_id: str, minor_cycles: int = 120) -> list[dict]:
    """A one-cell run report built without running anything; distinct
    ``run_id``s are distinct ledger content."""
    return [
        {"event": "run_start", "schema": SCHEMA_VERSION, "run_id": run_id},
        {"event": "timing", "benchmark": "whet", "machine": "base",
         "instructions": 100, "minor_cycles": minor_cycles,
         "base_cycles": float(minor_cycles),
         "parallelism": 100 / minor_cycles, "cpi": minor_cycles / 100},
        {"event": "run_end", "seconds": 0.0, "counters": {}},
    ]


def _write_events(path, events: list[dict]) -> str:
    path.write_text("".join(json.dumps(e) + "\n" for e in events))
    return str(path)


class TestPayloadFromEvents:
    def test_cells_carry_every_measurement(self, faulted_grid_report):
        events, path = faulted_grid_report
        payload = payload_from_events(events, source=path)
        assert payload["kind"] == "report"
        assert payload["run_id"] == "history-test"
        assert len(payload["cells"]) == \
            len(ALL_BENCHES) * len(SEVEN_MACHINES)
        for cell in payload["cells"]:
            assert isinstance(cell["instructions"], int)
            assert isinstance(cell["minor_cycles"], int)
            assert isinstance(cell["parallelism"], float)
            assert cell["stalls"] is not None
            # Conservation survives the join into the payload.
            stalls = cell["stalls"]
            causes = [v for k, v in stalls.items()
                      if k not in ("issued_cycles", "by_class")]
            assert sum(causes) + stalls["issued_cycles"] == \
                cell["minor_cycles"]
        assert payload["engine"] is not None
        assert payload["engine"]["cells"] == len(payload["cells"])

    def test_fault_history_survives(self, faulted_grid_report):
        events, path = faulted_grid_report
        payload = payload_from_events(events, source=path)
        retried = [c for c in payload["cells"] if c["status"] == "retried"]
        assert retried, "the injected crash must surface as retried cells"
        assert all(c["attempts"] > 1 for c in retried)
        assert all(c["history"] for c in retried)


class TestLedgerRoundTrip:
    def test_lossless_for_every_field(self, faulted_grid_report, tmp_path):
        """ledger.payload() is the exact inverse of ingestion — every
        numeric field of a faulted full-grid report survives."""
        events, path = faulted_grid_report
        expected = payload_from_events(events, source=path)
        with HistoryLedger(str(tmp_path / "ledger.sqlite")) as ledger:
            result = ledger.ingest_report(path)
            assert result.created
            assert ledger.payload(result.run_ref) == expected

    def test_double_ingest_is_idempotent(self, faulted_grid_report,
                                         tmp_path):
        events, path = faulted_grid_report
        with HistoryLedger(str(tmp_path / "ledger.sqlite")) as ledger:
            first = ledger.ingest_report(path)
            second = ledger.ingest_report(path)
            assert first.created and not second.created
            assert first.run_ref == second.run_ref
            assert first.fingerprint == second.fingerprint
            assert len(ledger.runs()) == 1

    def test_identical_faulted_runs_collapse(self, tmp_path):
        """Two identical runs — including under fault injection — ingest
        to identical ledger rows (one content-addressed entry)."""
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            _write_report(path, BENCHES, MACHINES, workers=2,
                          faults=FaultPlan.parse("crash@whet#1"))
        with HistoryLedger(str(tmp_path / "ledger.sqlite")) as ledger:
            first = ledger.ingest_report(str(paths[0]))
            second = ledger.ingest_report(str(paths[1]))
            assert first.created and not second.created
            assert first.fingerprint == second.fingerprint
            assert len(ledger.runs()) == 1
            # And the two source files' rows would have been identical.
            rows = ledger.cells(first.run_ref)
            fresh = payload_from_events(
                list(read_jsonl(paths[1])), source=str(paths[1]))
            for stored, cell in zip(rows, fresh["cells"]):
                stored = dict(stored)
                cell = dict(cell)
                # Wall-clock seconds legitimately differ between runs.
                stored.pop("seconds"), cell.pop("seconds")
                stored.pop("history"), cell.pop("history")
                assert stored == cell

    def test_resource_events_round_trip(self, tmp_path):
        events = [
            {"event": "run_start", "schema": SCHEMA_VERSION,
             "run_id": "res"},
            {"event": "resource", "track": "main", "rss_mb": 41.5,
             "rss_peak_mb": 42.25, "cpu_seconds": 1.125, "samples": 7},
            {"event": "resource", "track": "worker-123", "rss_mb": 39.0,
             "rss_peak_mb": 40.5, "cpu_seconds": 0.5, "samples": 3},
            {"event": "run_end", "seconds": 0.0, "counters": {}},
        ]
        expected = payload_from_events(events)
        assert len(expected["resources"]) == 2
        with HistoryLedger(str(tmp_path / "ledger.sqlite")) as ledger:
            result = ledger.ingest_report(events)
            assert ledger.resources(result.run_ref) == \
                expected["resources"]


class TestFingerprint:
    def test_wall_clock_is_excluded(self, faulted_grid_report):
        events, path = faulted_grid_report
        payload = payload_from_events(events, source=path)
        slowed = copy.deepcopy(payload)
        for cell in slowed["cells"]:
            if cell["seconds"] is not None:
                cell["seconds"] = cell["seconds"] * 100
        slowed["wall_seconds"] = 999.0
        assert fingerprint_payload(slowed) == fingerprint_payload(payload)

    def test_measurements_are_included(self, faulted_grid_report):
        events, path = faulted_grid_report
        payload = payload_from_events(events, source=path)
        drifted = copy.deepcopy(payload)
        drifted["cells"][0]["instructions"] += 1
        assert fingerprint_payload(drifted) != fingerprint_payload(payload)

    def test_status_is_included(self, faulted_grid_report):
        events, path = faulted_grid_report
        payload = payload_from_events(events, source=path)
        worse = copy.deepcopy(payload)
        worse["cells"][0]["status"] = "degraded"
        assert fingerprint_payload(worse) != fingerprint_payload(payload)


class TestResolve:
    @pytest.fixture()
    def ledger(self, tmp_path):
        with HistoryLedger(str(tmp_path / "ledger.sqlite")) as ledger:
            for i in range(3):
                ledger.ingest_report(_tiny_report(f"run-{i}"))
            yield ledger

    def test_numeric_id(self, ledger):
        assert ledger.resolve("2") == 2

    def test_latest_and_back(self, ledger):
        assert ledger.resolve("latest") == 3
        assert ledger.resolve("latest~1") == 2
        assert ledger.resolve("latest~2") == 1

    def test_fingerprint_prefix(self, ledger):
        fingerprint = ledger.runs()[0]["fingerprint"]
        assert ledger.resolve(fingerprint[:12]) == 1

    def test_bad_references(self, ledger):
        for ref in ("99", "latest~9", "latest~x", "nonsense"):
            with pytest.raises(LedgerError):
                ledger.resolve(ref)


class TestDiffPolicy:
    def test_identical_runs_have_no_differences(self, faulted_grid_report):
        events, path = faulted_grid_report
        payload = payload_from_events(events, source=path)
        result = diff_payloads(payload, copy.deepcopy(payload))
        assert result.ok
        assert result.entries == []
        assert result.render() == "no differences"

    def test_deterministic_drift_gates(self, faulted_grid_report):
        events, path = faulted_grid_report
        a = payload_from_events(events, source=path)
        b = copy.deepcopy(a)
        b["cells"][0]["instructions"] += 10
        result = diff_payloads(a, b)
        assert not result.ok
        assert any(e.metric == "instructions" for e in result.regressions)

    def test_status_worsening_gates(self, faulted_grid_report):
        events, path = faulted_grid_report
        a = payload_from_events(events, source=path)
        b = copy.deepcopy(a)
        ok_cell = next(c for c in b["cells"] if c["status"] == "ok")
        ok_cell["status"] = "degraded"
        result = diff_payloads(a, b)
        assert any(e.metric == "status" for e in result.regressions)
        # The reverse direction (recovery) is a finding, not a gate.
        recovered = diff_payloads(b, a)
        assert all(e.metric != "status" for e in recovered.regressions)

    def test_seconds_only_warn(self, faulted_grid_report):
        events, path = faulted_grid_report
        a = payload_from_events(events, source=path)
        b = copy.deepcopy(a)
        for cell in b["cells"]:
            if cell["seconds"]:
                cell["seconds"] *= 3
        result = diff_payloads(a, b)
        assert result.ok
        assert any(e.metric == "seconds" for e in result.entries)

    def test_warn_only_downgrades_everything(self):
        a = payload_from_events(_tiny_report("run"))
        b = payload_from_events(_tiny_report("run", minor_cycles=150))
        assert not diff_payloads(a, b).ok
        result = diff_payloads(a, b, DiffPolicy(warn_only=True))
        assert result.ok and result.entries

    def test_missing_cell_gates(self, faulted_grid_report):
        events, path = faulted_grid_report
        a = payload_from_events(events, source=path)
        b = copy.deepcopy(a)
        b["cells"] = b["cells"][1:]
        result = diff_payloads(a, b)
        assert any(e.metric == "presence" for e in result.regressions)

    def test_as_dict_shape(self):
        a = payload_from_events(_tiny_report("run"))
        b = payload_from_events(_tiny_report("run", minor_cycles=150))
        doc = diff_payloads(a, b).as_dict()
        assert doc["ok"] is False
        assert doc["regressions"] >= 1
        assert all({"scope", "key", "metric", "a", "b", "regression",
                    "message"} <= set(e) for e in doc["entries"])


class TestDashboard:
    @pytest.fixture()
    def export(self, faulted_grid_report, tmp_path):
        events, path = faulted_grid_report
        with HistoryLedger(str(tmp_path / "ledger.sqlite")) as ledger:
            ledger.ingest_report(path)
            ledger.ingest_report(_tiny_report("tiny-1"))
            ledger.ingest_report(_tiny_report("tiny-2"))
            yield ledger.export()

    @staticmethod
    def _embedded_blob(html: str) -> dict:
        marker = '<script id="ledger-data" type="application/json">'
        start = html.index(marker) + len(marker)
        end = html.index("</script>", start)
        return json.loads(html[start:end].replace("<\\/", "</"))

    def test_embedded_json_equals_export_exactly(self, export):
        html = render_dashboard(export)
        assert self._embedded_blob(html) == export

    def test_three_run_ledger_renders(self, export):
        assert len(export["runs"]) == 3
        html = render_dashboard(export, title="three runs")
        assert "<title>three runs</title>" in html
        assert "3 ledger entries" in html

    def test_self_contained(self, export):
        html = render_dashboard(export)
        # No external fetches of any kind: no resource tags, no network
        # APIs, no CSS imports.  (The SVG xmlns constant is the one
        # legitimate absolute URL.)
        for needle in ("src=", "href=", "fetch(", "XMLHttpRequest",
                       "@import", "url(", "<link", "import("):
            assert needle not in html, needle
        assert html.count("http://www.w3.org/2000/svg") == 1

    def test_flaky_cells_embedded(self, export):
        assert export["flaky"], "faulted run must contribute flaky cells"
        blob = self._embedded_blob(render_dashboard(export))
        assert blob["flaky"] == export["flaky"]

    def test_write_dashboard_creates_parents(self, export, tmp_path):
        out = tmp_path / "deep" / "dash.html"
        write_dashboard(str(out), export)
        assert self._embedded_blob(
            out.read_text(encoding="utf-8")) == export


class TestCli:
    @pytest.fixture()
    def small_report(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_report(path, ["whet"], ["base"])
        return str(path)

    def test_ingest_then_dash(self, small_report, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.sqlite")
        assert cli_main(["ingest", small_report, "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "ingested as run #1" in out
        # Re-ingesting dedups and still exits 0.
        assert cli_main(["ingest", small_report, "--ledger", ledger]) == 0
        assert "already present" in capsys.readouterr().out
        dash = str(tmp_path / "dash.html")
        assert cli_main(["dash", "--ledger", ledger, "--out", dash]) == 0
        with HistoryLedger(ledger) as db:
            export = db.export()
        html = open(dash, encoding="utf-8").read()
        assert TestDashboard._embedded_blob(html) == export

    def test_ingest_missing_file_fails(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.sqlite")
        assert cli_main(["ingest", str(tmp_path / "nope.jsonl"),
                         "--ledger", ledger]) == 1
        assert "no such file" in capsys.readouterr().err
        # A .json document is not a run report either.
        document = tmp_path / "bench.json"
        document.write_text("{}")
        assert cli_main(["ingest", str(document),
                         "--ledger", ledger]) == 1
        assert "expected a .jsonl run report" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["", '{"event": "run_st\n'],
                             ids=["empty", "torn"])
    def test_ingest_report_without_run_start_fails(self, tmp_path, capsys,
                                                   content):
        """An empty report, or one holding only torn lines, is not a
        run: ingest exits 1 and the ledger stays empty."""
        report = tmp_path / "bad.jsonl"
        report.write_text(content)
        ledger = str(tmp_path / "ledger.sqlite")
        assert cli_main(["ingest", str(report), "--ledger", ledger]) == 1
        assert "no run_start event" in capsys.readouterr().err
        with HistoryLedger(ledger) as db:
            assert db.runs() == []
            with pytest.raises(LedgerError, match="no run_start"):
                db.ingest_report(str(report))
            assert db.runs() == []

    def test_diff_identical_files_exits_zero(self, small_report, capsys):
        assert cli_main(["diff", small_report, small_report]) == 0
        assert "no differences" in capsys.readouterr().out

    @staticmethod
    def _drifted_pair(tmp_path) -> tuple[str, str]:
        return (_write_events(tmp_path / "a.jsonl", _tiny_report("run")),
                _write_events(tmp_path / "b.jsonl",
                              _tiny_report("run", minor_cycles=150)))

    def test_diff_warn_only_exits_zero(self, tmp_path):
        a, b = self._drifted_pair(tmp_path)
        assert cli_main(["diff", a, b]) == 1
        assert cli_main(["diff", a, b, "--warn-only"]) == 0

    def test_diff_json_output(self, tmp_path, capsys):
        a, b = self._drifted_pair(tmp_path)
        assert cli_main(["diff", a, b, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False and doc["regressions"] >= 1

    def test_diff_ledger_references(self, small_report, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.sqlite")
        assert cli_main(["ingest", small_report, "--ledger", ledger]) == 0
        capsys.readouterr()
        assert cli_main(["diff", "latest", "latest", "--ledger",
                         ledger]) == 0
        assert "no differences" in capsys.readouterr().out

    def test_diff_unresolvable_reference_exits_two(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.sqlite")
        assert cli_main(["diff", "latest", "latest",
                         "--ledger", ledger]) == 2
        assert "diff:" in capsys.readouterr().err
        # Existing files that are not run reports are refused too.
        document = tmp_path / "bench.json"
        document.write_text("{}")
        assert cli_main(["diff", str(document), str(document)]) == 2
        assert "expected a .jsonl run report" in capsys.readouterr().err

    def test_file_vs_file_diff_creates_no_ledger(self, small_report,
                                                 tmp_path, monkeypatch):
        ledger = tmp_path / "never.sqlite"
        monkeypatch.setenv("REPRO_LEDGER", str(ledger))
        assert cli_main(["diff", small_report, small_report]) == 0
        assert not ledger.exists()


class TestLoadDiffSide:
    def test_rejects_unknown_extension(self, tmp_path):
        for name in ("report.txt", "bench.json"):
            path = tmp_path / name
            path.write_text("{}")
            with pytest.raises(ValueError):
                load_diff_side(str(path))

    def test_requires_ledger_for_references(self):
        with pytest.raises(ValueError):
            load_diff_side("latest")


class TestConcurrentWriters:
    """Two simultaneous ingest processes must never die 'locked'."""

    HAMMER = """
import json, os, sys, time
sys.path.insert(0, sys.argv[1])
from repro.obs.history import HistoryLedger

ledger_path, report, start_file = sys.argv[2], sys.argv[3], sys.argv[4]
own_reports = json.loads(sys.argv[5])
while not os.path.exists(start_file):
    time.sleep(0.001)
for i in range(4):
    # A fresh connection per ingest, like repeated `repro ingest`
    # invocations racing from CI shards.
    with HistoryLedger(ledger_path) as ledger:
        ledger.ingest_report(report)
    if i < len(own_reports):
        with HistoryLedger(ledger_path) as ledger:
            ledger.ingest_report(own_reports[i])
print("DONE")
"""

    def test_two_process_ingest_hammer(self, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        report = tmp_path / "report.jsonl"
        _write_report(report, ["whet"], ["base"])
        ledger_path = tmp_path / "history.sqlite"
        start = tmp_path / "go"

        per_proc = 4
        own_reports = {
            who: [_write_events(tmp_path / f"own-{who}-{i}.jsonl",
                                _tiny_report(f"own-{who}-{i}"))
                  for i in range(per_proc)]
            for who in range(2)
        }

        src = str(Path(__file__).resolve().parent.parent / "src")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", self.HAMMER, src,
                 str(ledger_path), str(report), str(start),
                 json.dumps(own_reports[who])],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True)
            for who in range(2)
        ]
        start.write_text("go")
        outs = [proc.communicate(timeout=120) for proc in procs]
        for proc, (out, err) in zip(procs, outs):
            assert proc.returncode == 0, (out, err)
            assert "DONE" in out
            assert "locked" not in err.lower()

        with HistoryLedger(str(ledger_path)) as ledger:
            data = ledger.export()
        # The shared report deduped to one run; every distinct report
        # landed exactly once despite the racing writers.
        run_ids = sorted(run["run_id"] for run in data["runs"])
        assert run_ids == sorted(
            ["history-test"]
            + [f"own-{who}-{i}" for who in range(2)
               for i in range(per_proc)])

    def test_identical_content_race_dedupes(self, tmp_path):
        """Both writers ingest the SAME content: exactly one run wins."""
        import subprocess
        import sys
        from pathlib import Path

        report = tmp_path / "report.jsonl"
        _write_report(report, ["whet"], ["base"])
        ledger_path = tmp_path / "history.sqlite"
        start = tmp_path / "go"
        src = str(Path(__file__).resolve().parent.parent / "src")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", self.HAMMER, src,
                 str(ledger_path), str(report), str(start),
                 json.dumps([])],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True)
            for _ in range(2)
        ]
        start.write_text("go")
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, (out, err)
            assert "locked" not in err.lower()

        with HistoryLedger(str(ledger_path)) as ledger:
            data = ledger.export()
        assert len(data["runs"]) == 1
        assert data["runs"][0]["kind"] == "report"
