"""Tests for the execution engine, its trace cache, and the public API.

Covers the guarantees the engine advertises: parallel execution is
bit-identical to serial, the on-disk trace cache hits on a second run
without recompiling and invalidates when the source or options change,
and the :mod:`repro.api` facade keeps a stable keyword-only surface.
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle
import weakref

import pytest

import repro.api as api
from repro.benchmarks import suite
from repro.engine import executor
from repro.engine.cache import (
    NULL_TRACE_CACHE,
    TraceCache,
    open_cache,
    trace_key,
)
from repro.engine.executor import execute
from repro.engine.plan import Cell, plan_sweep
from repro.machine.presets import (
    ideal_superscalar,
    paper_machines,
    preset_names,
    resolve,
)
from repro.obs.recorder import Recorder
from repro.obs.schema import EVENT_SCHEMA
from repro.opt.options import CompilerOptions, OptLevel
from repro.sim import memo, replay

#: A small grid that still exercises >1 compile group and >1 machine.
BENCHES = ["whet", "linpack"]
MACHINES = ["base", "superscalar:4"]


def _rows(workers, cache=None, observe=True):
    plan = plan_sweep(BENCHES, MACHINES, observe=observe)
    return execute(plan, workers=workers, cache=cache)


class TestMachineResolver:
    def test_fixed_presets(self):
        assert resolve("base").name == "base"
        assert resolve("multititan").name == "multititan-w1"
        assert resolve("cray1").name == "cray1-w1"

    def test_parametric_presets(self):
        assert resolve("superscalar:4").issue_width == 4
        assert resolve("ideal_superscalar:8").issue_width == 8
        assert resolve("superpipelined:4").superpipeline_degree == 4
        config = resolve("superpipelined-superscalar:3x2")
        assert (config.issue_width, config.superpipeline_degree) == (3, 2)

    def test_spelling_variants(self):
        for spec in ("SuperScalar:4", "superscalar-4", "superscalar_4",
                     " superscalar:4 "):
            assert resolve(spec).name == resolve("superscalar:4").name

    def test_config_passthrough(self):
        config = ideal_superscalar(4)
        assert resolve(config) is config

    def test_unknown_and_malformed(self):
        with pytest.raises(ValueError, match="known presets"):
            resolve("vliw")
        with pytest.raises(ValueError, match="needs a degree"):
            resolve("superscalar")
        with pytest.raises(ValueError, match="degrees N x M"):
            resolve("superpipelined-superscalar:3")

    def test_preset_names_resolve(self):
        for name in preset_names():
            spec = (name.replace(":N", ":4").replace("xM", "x2"))
            resolve(spec)

    def test_paper_machines(self):
        names = [c.name for c in paper_machines()]
        assert len(names) == 7
        assert names[0] == "base"


class TestFingerprints:
    def test_suite_memo_key_matches_fingerprint(self):
        # The engine's compile groups and the disk cache must key on the
        # same option fields or they disagree about identity.
        options = CompilerOptions(opt_level=OptLevel(2), unroll=4)
        cell = Cell("whet", options, resolve("base"))
        assert cell.compile_key() == ("whet", options.fingerprint())

    def test_machine_config_pickles(self):
        config = ideal_superscalar(4)
        clone = pickle.loads(pickle.dumps(config))
        assert clone.fingerprint() == config.fingerprint()
        assert dict(clone.latencies) == dict(config.latencies)

    def test_trace_key_sensitivity(self):
        options = CompilerOptions()
        key = trace_key("proc main(): int { return 1; }", options)
        assert key != trace_key("proc main(): int { return 2; }", options)
        assert key != trace_key(
            "proc main(): int { return 1; }",
            CompilerOptions(opt_level=OptLevel(2)),
        )
        # Scheduling target is part of compilation identity too.
        assert key != trace_key(
            "proc main(): int { return 1; }",
            CompilerOptions(schedule_for=resolve("cray1")),
        )

    def test_trace_key_is_stable(self):
        options = CompilerOptions()
        assert (trace_key("proc main(): int { return 1; }", options)
                == trace_key("proc main(): int { return 1; }", options))


class TestSerialParallelIdentical:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_bit_identical_rows_and_stalls(self, workers):
        serial = _rows(workers=1)
        parallel = _rows(workers=workers)
        assert len(serial.cells) == len(parallel.cells) == 4
        for s, p in zip(serial.cells, parallel.cells):
            assert (s.benchmark, s.machine) == (p.benchmark, p.machine)
            assert s.instructions == p.instructions
            assert s.minor_cycles == p.minor_cycles
            assert s.base_cycles == p.base_cycles
            assert s.parallelism == p.parallelism
            assert s.checksum_ok and p.checksum_ok
            assert s.stalls.as_dict() == p.stalls.as_dict()

    def test_api_sweep_matches_engine(self):
        rows = api.sweep(api.plan(BENCHES, MACHINES)).rows
        cells = _rows(workers=1).cells
        assert [(r.benchmark, r.machine, r.parallelism) for r in rows] \
            == [(c.benchmark, c.machine, c.parallelism) for c in cells]

    def test_plan_order_is_preserved(self):
        result = _rows(workers=2, observe=False)
        expected = [(b, resolve(m).name) for b in BENCHES for m in MACHINES]
        assert [(c.benchmark, c.machine) for c in result.cells] == expected

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            _rows(workers=0)


class TestTraceCache:
    def test_round_trip(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        bench = suite.get("whet")
        options = suite.default_options(bench)
        result = suite.run_benchmark(bench, options)
        key = trace_key(bench.source(), options)
        cache.store(key, result)
        loaded = cache.load(key)
        assert loaded is not None
        assert loaded.value == result.value
        assert loaded.instructions == result.instructions
        assert loaded.trace.ops == result.trace.ops
        assert cache.stats.as_dict() == {"gets": 1, "hits": 1,
                                         "misses": 0, "corrupt": 0,
                                         "stores": 1, "debris": 0}

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        key = "ab" + "0" * 62
        path = cache.path_for(key)
        import os

        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert cache.load(key) is None
        assert not os.path.exists(path)

    def test_second_run_hits_with_zero_recompiles(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        first = _rows(workers=1, cache=cache)
        assert first.report.cache_hits == 0
        assert first.report.cache_misses == 2  # one per compile group
        assert cache.stats.stores == 2

        # A second handle on the same directory, as a new process opens.
        second_cache = TraceCache(str(tmp_path))
        second = _rows(workers=1, cache=second_cache)
        assert second.report.cache_hits == 2
        assert second.report.cache_misses == 0
        assert second_cache.stats.stores == 0  # nothing was recompiled
        # The warm rows are the cold rows, stall for stall.
        assert len(first.cells) == len(second.cells) == 4
        for a, b in zip(first.cells, second.cells):
            assert (a.benchmark, a.machine) == (b.benchmark, b.machine)
            assert a.instructions == b.instructions
            assert a.minor_cycles == b.minor_cycles
            assert a.base_cycles == b.base_cycles
            assert a.parallelism == b.parallelism
            assert a.stalls.as_dict() == b.stalls.as_dict()

    def test_parallel_run_populates_shared_cache(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        _rows(workers=2, cache=cache, observe=False)
        second = _rows(workers=2, cache=TraceCache(str(tmp_path)),
                       observe=False)
        assert second.report.cache_hits == 2
        assert second.report.cache_misses == 0

    def test_options_change_invalidates(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        plan_a = plan_sweep(["whet"], ["base"])
        execute(plan_a, cache=cache)
        plan_b = plan_sweep(
            ["whet"], ["base"],
            options=CompilerOptions(opt_level=OptLevel(1)),
            options_label="O1",
        )
        result = execute(plan_b, cache=TraceCache(str(tmp_path)))
        assert result.report.cache_hits == 0
        assert result.report.cache_misses == 1

    def test_null_cache(self):
        assert not NULL_TRACE_CACHE.enabled
        assert NULL_TRACE_CACHE.load("00" * 32) is None
        assert open_cache(None).enabled is False
        assert open_cache("somewhere", no_cache=True).enabled is False
        assert open_cache("somewhere").enabled is True


class TestGroupScope:
    """Replay state lives for one compile group: the engine keeps no
    payload in memory and releases each trace's vectorized plan
    arrays when its group ends (on both backends)."""

    @staticmethod
    def _numbers(cell):
        return (cell.benchmark, cell.machine, cell.instructions,
                cell.minor_cycles, cell.base_cycles, cell.parallelism,
                cell.stalls.as_dict())

    @staticmethod
    def _spy_traces(monkeypatch, keep):
        """Collect what ``keep(trace)`` returns for every replay."""
        kept = []
        real = executor.simulate

        def spy(trace, *args, **kwargs):
            kept.append(keep(trace))
            return real(trace, *args, **kwargs)

        monkeypatch.setattr(executor, "simulate", spy)
        return kept

    def test_plan_vec_released_and_rerun_reads_the_store(self, tmp_path,
                                                         monkeypatch):
        plan = plan_sweep(BENCHES, MACHINES, observe=True)
        cache = TraceCache(str(tmp_path))
        runs = []
        for _ in range(2):
            # The trace owns its stream arrays, so they die with it.
            refs = self._spy_traces(
                monkeypatch, lambda trace: weakref.ref(trace.run_starts))
            runs.append(execute(plan, cache=cache))
            assert len(refs) == len(plan.cells)
            assert all(ref() is None for ref in refs)  # none outlives it
        assert not hasattr(memo, "_REGISTRY")
        first, second = runs
        assert len(second.cells) == len(BENCHES) * len(MACHINES)
        assert [self._numbers(c) for c in second.cells] == \
            [self._numbers(c) for c in first.cells]
        assert second.report.memo_persisted_hits > 0

    @pytest.mark.skipif(replay.BACKEND != "numpy",
                        reason="plan entries exist only under NumPy")
    def test_primed_rerun_adopts_every_plan(self, tmp_path, monkeypatch):
        """With no plan in memory, a rerun on a primed store takes each
        trace's plan from its entry: no merge pass counts a pair."""
        plan = plan_sweep(BENCHES, MACHINES, observe=True)
        cache = TraceCache(str(tmp_path))
        first = execute(plan, cache=cache)
        traces = self._spy_traces(monkeypatch, lambda trace: trace)
        counted = []
        real_counter = replay.Counter

        def counter(iterable=()):
            if isinstance(iterable, zip):
                counted.append(iterable)
            return real_counter(iterable)

        monkeypatch.setattr(replay, "Counter", counter)
        second = execute(plan, cache=cache)
        assert not counted
        assert len(traces) == len(plan.cells)
        assert all(trace._plan.loaded for trace in traces)
        assert [self._numbers(c) for c in second.cells] == \
            [self._numbers(c) for c in first.cells]
        assert second.report.cache_misses == 0

    def test_each_group_trims_the_heap(self, monkeypatch):
        """Every group hands the freed heap back when it ends, so the
        next group's peak RSS does not depend on where the allocator
        placed the last one's arrays."""
        trims = []
        monkeypatch.setattr(executor, "_trim_heap",
                            lambda: trims.append(None))
        plan = plan_sweep(BENCHES, MACHINES, observe=True)
        execute(plan)
        assert len(trims) == len(BENCHES)

    def test_heap_trim_is_skipped_without_malloc_trim(self, monkeypatch):
        monkeypatch.setattr(executor, "_malloc_trim", lambda: None)
        executor._trim_heap()


class TestObservability:
    def test_cell_and_engine_events(self):
        rec = Recorder()
        plan = plan_sweep(["whet"], MACHINES, observe=True)
        execute(plan, recorder=rec)
        kinds = [event["event"] for event in rec.events]
        assert kinds.count("cell") == 2
        assert kinds.count("engine") == 1
        engine = [e for e in rec.events if e["event"] == "engine"][0]
        assert engine["cells"] == 2
        assert engine["workers"] == 1
        for field in EVENT_SCHEMA["engine"]:
            assert field in engine
        cell = [e for e in rec.events if e["event"] == "cell"][0]
        for field in EVENT_SCHEMA["cell"]:
            assert field in cell

    def test_parallel_events_match_serial(self):
        serial, parallel = Recorder(), Recorder()
        execute(plan_sweep(BENCHES, MACHINES), recorder=serial)
        execute(plan_sweep(BENCHES, MACHINES), workers=2,
                recorder=parallel)

        def strip(events):
            return [
                {k: v for k, v in e.items() if k != "seconds"}
                for e in events if e["event"] == "cell"
            ]

        assert strip(serial.events) == strip(parallel.events)


class TestBenchmarkListParsing:
    def test_forms(self):
        parse = suite.parse_benchmark_list
        assert parse(None) is None
        assert parse([]) is None
        assert parse("whet") == ["whet"]
        assert parse("linpack,whet") == ["linpack", "whet"]
        assert parse(["linpack,whet", "yacc"]) == ["linpack", "whet",
                                                  "yacc"]
        assert parse(["linpack whet"]) == ["linpack", "whet"]

    def test_unknown_names(self):
        with pytest.raises(ValueError, match="dhrystone"):
            suite.parse_benchmark_list("dhrystone")


class TestApiSurface:
    """Snapshot of the facade: signature changes must be deliberate."""

    EXPECTED = {
        "compile": "(source: 'str', *, options: "
                   "'CompilerOptions | None' = None, tracer=None, "
                   "scheduler: 'str | None' = None) -> 'Program'",
        "run": "(program: 'Program | str', *, options: "
               "'CompilerOptions | None' = None) -> 'RunResult'",
        "simulate": "(trace: 'Trace', machine: 'MachineConfig | str', "
                    "*, observe: 'bool' = False) -> 'TimingResult'",
        "measure": "(benchmark: 'Benchmark | str', machine: "
                   "'MachineConfig | str', *, options: "
                   "'CompilerOptions | None' = None, observe: 'bool' "
                   "= False, scheduler: 'str | None' = None) "
                   "-> 'TimingResult'",
        "plan": "(benchmarks, machines, *, options: "
                "'CompilerOptions | None' = None, options_label: 'str' "
                "= 'default', schedule_for_target: 'bool' = False, "
                "observe: 'bool' = False, scheduler: 'str | None' "
                "= None) -> 'Plan'",
        "sweep": "(plan: 'Plan', *, workers: 'int' = 1, cache_dir: "
                 "'str | None' = None, no_cache: 'bool' = False, "
                 "recorder: 'Recorder | None' = None, policy: "
                 "'RetryPolicy | None' = None, faults: "
                 "'FaultPlan | None' = None, tracer: "
                 "'Tracer | None' = None, metrics: "
                 "'MetricsRegistry | None' = None, progress=None, "
                 "scheduler: 'str | None' = None) -> 'SweepResult'",
        "schedulers": "() -> 'dict[str, str]'",
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_signature(self, name):
        assert str(inspect.signature(getattr(api, name))) \
            == self.EXPECTED[name]

    def test_all_exports(self):
        for name in api.__all__:
            assert hasattr(api, name)
        # The facade is re-exported from the package root.
        import repro

        assert repro.measure is api.measure
        assert repro.sweep is api.sweep
        assert repro.simulate is api.simulate

    def test_measure_accepts_preset_names(self):
        timing = api.measure("whet", "superscalar:4")
        assert timing.config_name == "superscalar-4"
        assert timing.parallelism > 1.0


class TestApiBehavior:
    def test_run_source_text(self):
        result = api.run("proc main(): int { return 6 * 7; }")
        assert result.value == 42

    def test_simulate_trace(self):
        result = api.run("proc main(): int { return 6 * 7; }")
        timing = api.simulate(result.trace, "base")
        assert timing.instructions == result.instructions

    def test_sweep_result_summary(self):
        result = api.sweep(api.plan(["whet"], MACHINES))
        text = result.summary()
        assert "whet" in text
        assert "harmonic mean" in text
        assert result.engine.cells == 2


class TestRecordedReference:
    """A cached run carries its benchmark's reference checksum, so a
    trace-cache hit never runs the pure-Python reference."""

    @staticmethod
    def _count_references(monkeypatch, value=None):
        bench = suite.get("whet")
        calls = []

        def reference():
            calls.append(None)
            return bench.reference() if value is None else value

        monkeypatch.setitem(suite._REGISTRY, "whet",
                            dataclasses.replace(bench, reference=reference))
        return calls

    def test_hit_uses_the_recorded_reference(self, tmp_path, monkeypatch):
        calls = self._count_references(monkeypatch)
        cache = TraceCache(str(tmp_path))
        options = suite.default_options(suite.get("whet"))
        run, cached, ok = executor.acquire_run("whet", options, cache)
        assert (cached, ok, len(calls)) == (False, True, 1)
        assert run.reference == run.value
        run, cached, ok = executor.acquire_run("whet", options, cache)
        assert (cached, ok, len(calls)) == (True, True, 1)

    def test_entry_without_reference_computes_it(self, tmp_path,
                                                 monkeypatch):
        cache = TraceCache(str(tmp_path))
        bench = suite.get("whet")
        options = suite.default_options(bench)
        run = suite.run_benchmark(bench, options)
        del run.reference  # as unpickled from an older entry
        cache.store(trace_key(bench.source(), options), run)
        calls = self._count_references(
            monkeypatch, value=run.value + bench.fp_tolerance + 1)
        _, cached, ok = executor.acquire_run("whet", options, cache)
        assert (cached, ok, len(calls)) == (True, False, 1)


class TestCacheFormat:
    """The cache format tag and structural validation guard the v2
    trace layout: stale or corrupt entries are dropped and recompiled,
    never deserialized into garbage."""

    def test_format_tag_participates_in_the_key(self, monkeypatch):
        bench = suite.get("whet")
        options = suite.default_options(bench)
        current = trace_key(bench.source(), options)
        from repro.engine import cache as cache_mod

        monkeypatch.setattr(cache_mod, "_FORMAT", "trace-v1")
        stale = trace_key(bench.source(), options)
        assert stale != current, \
            "bumping the format tag must invalidate every old entry"

    def test_stale_format_entry_is_never_served(self, tmp_path,
                                                monkeypatch):
        """An entry written under an old format tag misses under the
        current one (its key differs), forcing a recompile."""
        from repro.engine import cache as cache_mod

        cache = TraceCache(str(tmp_path))
        bench = suite.get("whet")
        options = suite.default_options(bench)
        result = suite.run_benchmark(bench, options)
        with monkeypatch.context() as patch:
            patch.setattr(cache_mod, "_FORMAT", "trace-v1")
            cache.store(trace_key(bench.source(), options), result)
        assert cache.load(trace_key(bench.source(), options)) is None
        assert cache.stats.misses == 1

    def test_wrong_payload_type_is_dropped(self, tmp_path):
        import os

        cache = TraceCache(str(tmp_path))
        key = "cd" + "1" * 62
        path = cache.path_for(key)
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as handle:
            pickle.dump({"not": "a run result"}, handle)
        assert cache.load(key) is None
        assert not os.path.exists(path), \
            "a structurally invalid entry must be removed"

    def test_invalid_trace_payload_is_dropped(self, tmp_path):
        """A pickle that *is* a RunResult but whose trace violates the
        v2 invariants (as a stale layout would) is treated as corrupt."""
        import os

        cache = TraceCache(str(tmp_path))
        bench = suite.get("whet")
        options = suite.default_options(bench)
        result = suite.run_benchmark(bench, options)
        # Corrupt the run-length encoding: drop an address so the
        # mem-op count no longer matches the side array.
        result.trace.mem_addrs.pop()
        key = "ef" + "2" * 62
        cache.store(key, result)
        assert os.path.exists(cache.path_for(key))
        loaded = cache.load(key)
        assert loaded is None
        assert not os.path.exists(cache.path_for(key))
        assert cache.stats.misses == 0
        assert cache.stats.corrupt == 1
        assert cache.stats.gets == 1
