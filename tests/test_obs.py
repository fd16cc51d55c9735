"""Tests for the observability layer: stall attribution, recorder, profile.

The stall-attribution cases are hand-built traces where the breakdown is
known exactly, plus a hypothesis property asserting the conservation law
``stalled + issued_cycles == minor_cycles`` on random traces and random
machines.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks import suite
from repro.errors import TraceError
from repro.isa import InstrClass, Opcode, build
from repro.isa.registers import virtual
from repro.machine import (
    MachineConfig,
    base_machine,
    ideal_superscalar,
    superpipelined,
    unit,
)
from repro.obs import (
    NULL_RECORDER,
    NULL_TRACER,
    STALL_CAUSES,
    Recorder,
    StallBreakdown,
    Tracer,
    compile_passes,
)
from repro.opt.driver import compile_source
from repro.opt.options import CompilerOptions, OptLevel
from repro.sim.timing import simulate
from repro.sim.trace import Trace

from .test_property import random_trace_strategy


def chain(n: int, klass_lat: int = 4) -> tuple[Trace, MachineConfig]:
    """A pure RAW chain on a wide ideal machine with ADDSUB latency."""
    lats = {k: 1 for k in InstrClass}
    lats[InstrClass.ADDSUB] = klass_lat
    cfg = MachineConfig(name="chain", issue_width=8, latencies=lats)
    trace = Trace.from_instructions(
        [build.alui(Opcode.ADDI, virtual(i + 1), virtual(i), 1)
         for i in range(n)]
    )
    return trace, cfg


def assert_conservation(result) -> None:
    s = result.stalls
    assert s is not None
    assert s.stalled + s.issued_cycles == result.minor_cycles
    # the per-class roll-up must sum back to the per-cause totals
    for i, cause in enumerate(STALL_CAUSES):
        assert sum(row[i] for row in s.by_class.values()) == s.get(cause)


class TestStallAttribution:
    def test_pure_raw_chain_is_all_raw_dep(self):
        trace, cfg = chain(6, klass_lat=4)
        result = simulate(trace, cfg, observe=True)
        assert_conservation(result)
        s = result.stalls
        # 5 inter-instruction gaps of (lat-1)=3 wait cycles each, plus a
        # 3-cycle drain counted as issued_cycles (final issue + drain)
        assert s.raw_dep == 5 * 4
        assert s.memory_order == s.unit_conflict == s.issue_width == 0
        assert s.control == 0
        assert s.issued_cycles == 4
        assert set(s.by_class) == {InstrClass.ADDSUB}

    def test_store_load_pair_is_memory_order(self):
        instrs = [
            build.sw(virtual(1), virtual(100), 0),
            build.lw(virtual(2), virtual(101), 0),
        ]
        trace = Trace.from_instructions(instrs, addrs=[64, 64])
        lats = {k: 1 for k in InstrClass}
        lats[InstrClass.STORE] = 4
        cfg = MachineConfig(name="slowstore", issue_width=2, latencies=lats)
        result = simulate(trace, cfg, observe=True)
        assert_conservation(result)
        s = result.stalls
        assert s.memory_order == 4  # load waits minor cycles 0..3
        assert s.raw_dep == s.unit_conflict == s.issue_width == 0
        assert set(s.by_class) == {InstrClass.LOAD}

    def test_disjoint_addresses_do_not_charge_memory_order(self):
        instrs = [
            build.sw(virtual(1), virtual(100), 0),
            build.lw(virtual(2), virtual(101), 0),
        ]
        trace = Trace.from_instructions(instrs, addrs=[64, 65])
        lats = {k: 1 for k in InstrClass}
        lats[InstrClass.STORE] = 4
        cfg = MachineConfig(name="slowstore", issue_width=2, latencies=lats)
        result = simulate(trace, cfg, observe=True)
        assert result.stalls.memory_order == 0
        assert_conservation(result)

    def test_single_unit_machine_is_all_unit_conflict(self):
        instrs = [
            build.alu(Opcode.MUL, virtual(i), virtual(50 + i),
                      virtual(80 + i))
            for i in range(3)
        ]
        cfg = MachineConfig(
            name="slowmul",
            issue_width=2,
            units=(
                unit("mul", [InstrClass.INTMUL], issue_latency=3),
                unit("rest",
                     [k for k in InstrClass if k != InstrClass.INTMUL],
                     multiplicity=2),
            ),
        )
        result = simulate(Trace.from_instructions(instrs), cfg, observe=True)
        assert_conservation(result)
        s = result.stalls
        # issues at 0, 3, 6: two waits of 3 cycles, all on the mul unit
        assert s.unit_conflict == 6
        assert s.raw_dep == s.memory_order == s.issue_width == 0

    def test_wide_ideal_machine_is_issue_width_only(self):
        trace = Trace.from_instructions(
            [build.alui(Opcode.ADDI, virtual(i), virtual(100 + i), 1)
             for i in range(12)]
        )
        result = simulate(trace, ideal_superscalar(4), observe=True)
        assert_conservation(result)
        s = result.stalls
        assert s.issue_width == 2  # the first instr of cycles 1 and 2
        assert s.raw_dep == s.memory_order == s.unit_conflict == 0

    def test_base_machine_full_throughput_is_width_limited(self):
        trace = Trace.from_instructions(
            [build.alui(Opcode.ADDI, virtual(i), virtual(100 + i), 1)
             for i in range(10)]
        )
        result = simulate(trace, base_machine(), observe=True)
        assert_conservation(result)
        assert result.stalls.issue_width == 9
        assert result.stalls.issued_cycles == 1

    def test_branch_stall_policy_charges_control(self):
        instrs = [
            build.bnez(virtual(1), "somewhere"),
            build.alui(Opcode.ADDI, virtual(2), virtual(100), 1),
        ]
        trace = Trace(static=instrs)
        trace.append(0)
        trace.append(1)
        lats = {k: 1 for k in InstrClass}
        lats[InstrClass.BRANCH] = 3
        cfg = MachineConfig(name="br", issue_width=2, latencies=lats,
                            branch_policy="stall")
        result = simulate(trace, cfg, observe=True)
        assert_conservation(result)
        assert result.stalls.control == 3
        # the paper's perfect-prediction model never charges control
        perfect = simulate(trace, cfg.with_branch_policy("perfect"),
                           observe=True)
        assert perfect.stalls.control == 0

    def test_empty_trace(self):
        result = simulate(Trace(static=[]), base_machine(), observe=True)
        assert result.stalls.stalled == 0
        assert result.stalls.issued_cycles == 0
        assert_conservation(result)

    def test_observed_matches_unobserved_cycles(self):
        trace, cfg = chain(12, klass_lat=3)
        fast = simulate(trace, cfg)
        observed = simulate(trace, cfg, observe=True)
        assert fast.minor_cycles == observed.minor_cycles
        assert fast.base_cycles == observed.base_cycles
        assert fast.stalls is None
        assert observed.stalls is not None


@settings(max_examples=80, deadline=None)
@given(
    trace=random_trace_strategy(),
    width=st.integers(1, 8),
    load_lat=st.integers(1, 6),
    store_lat=st.integers(1, 6),
    add_lat=st.integers(1, 5),
    mem_multiplicity=st.integers(0, 2),
)
def test_conservation_on_random_traces(
    trace, width, load_lat, store_lat, add_lat, mem_multiplicity
):
    """sum(stalls) + issued cycles == minor_cycles on random programs."""
    lats = {k: 1 for k in InstrClass}
    lats[InstrClass.LOAD] = load_lat
    lats[InstrClass.STORE] = store_lat
    lats[InstrClass.ADDSUB] = add_lat
    units = ()
    if mem_multiplicity:
        units = (
            unit("mem", [InstrClass.LOAD, InstrClass.STORE],
                 issue_latency=2, multiplicity=mem_multiplicity),
            unit("rest", [k for k in InstrClass
                          if k not in (InstrClass.LOAD, InstrClass.STORE)],
                 multiplicity=width),
        )
    cfg = MachineConfig(name="rand", issue_width=width, latencies=lats,
                        units=units)
    observed = simulate(trace, cfg, observe=True)
    assert_conservation(observed)
    # observing must not perturb the model
    fast = simulate(trace, cfg)
    assert fast.minor_cycles == observed.minor_cycles


@settings(max_examples=40, deadline=None)
@given(trace=random_trace_strategy(), degree=st.integers(1, 4))
def test_conservation_on_superpipelined_machines(trace, degree):
    observed = simulate(trace, superpipelined(degree), observe=True)
    assert_conservation(observed)


class TestStallBreakdown:
    def test_charge_and_rollup(self):
        s = StallBreakdown()
        s.charge(InstrClass.LOAD, 1, 3)
        s.charge(InstrClass.LOAD, 2, 2)
        s.charge(InstrClass.ADDSUB, 1, 1)
        assert s.raw_dep == 4
        assert s.memory_order == 2
        assert s.stalled == 6
        assert s.class_totals() == {InstrClass.LOAD: 5, InstrClass.ADDSUB: 1}

    def test_charge_ignores_non_positive(self):
        s = StallBreakdown()
        s.charge(InstrClass.LOAD, 0, 0)
        s.charge(InstrClass.LOAD, 0, -2)
        assert s.stalled == 0
        assert not s.by_class

    def test_get_rejects_unknown_cause(self):
        with pytest.raises(KeyError):
            StallBreakdown().get("cache_miss")

    def test_as_dict_is_json_shaped(self):
        import json

        s = StallBreakdown(raw_dep=3, issued_cycles=2)
        s.charge(InstrClass.LOAD, 3, 5)
        payload = json.loads(json.dumps(s.as_dict()))
        assert payload["raw_dep"] == 3
        assert payload["by_class"]["load"]["unit_conflict"] == 5

    def test_merged_with(self):
        a = StallBreakdown(raw_dep=1, issued_cycles=2)
        a.charge(InstrClass.LOAD, 1, 1)
        b = StallBreakdown(issue_width=4, issued_cycles=3)
        b.charge(InstrClass.LOAD, 4, 4)
        merged = a.merged_with(b)
        assert merged.raw_dep == 2  # 1 direct + 1 via charge
        assert merged.issue_width == 8
        assert merged.issued_cycles == 5
        assert merged.by_class[InstrClass.LOAD] == [0, 1, 0, 0, 4]


class TestTimingResultSummary:
    def test_summary_without_stalls(self):
        trace, cfg = chain(4)
        text = simulate(trace, cfg).summary()
        assert "chain" in text and "4 instructions" in text
        assert "stall" not in text

    def test_summary_with_stalls(self):
        trace, cfg = chain(4)
        text = simulate(trace, cfg, observe=True).summary()
        assert "raw_dep 12" in text

    def test_empty_run_is_nan_free(self):
        result = simulate(Trace(static=[]), base_machine())
        assert result.parallelism == 0.0
        assert result.cpi == 0.0
        assert result.parallelism == result.parallelism  # not NaN
        assert "parallelism 0.00" in result.summary()

    def test_as_dict(self):
        trace, cfg = chain(3)
        record = simulate(trace, cfg, observe=True).as_dict()
        assert record["machine"] == "chain"
        assert record["stalls"]["raw_dep"] == 8


class TestTraceInvariants:
    def test_memory_instruction_requires_address(self):
        trace = Trace(static=[build.lw(virtual(1), virtual(100), 8)])
        with pytest.raises(TraceError):
            trace.append(0)

    def test_non_memory_instruction_rejects_address(self):
        trace = Trace(
            static=[build.alui(Opcode.ADDI, virtual(1), virtual(2), 1)]
        )
        with pytest.raises(TraceError):
            trace.append(0, 64)

    def test_out_of_range_static_index(self):
        trace = Trace(static=[])
        with pytest.raises(TraceError):
            trace.append(0)

    def test_valid_appends_still_work(self):
        trace = Trace(static=[
            build.lw(virtual(1), virtual(100), 8),
            build.alui(Opcode.ADDI, virtual(2), virtual(1), 1),
        ])
        trace.append(0, 40)
        trace.append(1)
        assert trace.addrs == [40, -1]

    def test_from_instructions_checks_supplied_addrs(self):
        instrs = [build.sw(virtual(1), virtual(100), 0)]
        with pytest.raises(TraceError):
            Trace.from_instructions(instrs, addrs=[-1])


class TestRecorder:
    def test_counters_and_events(self):
        rec = Recorder()
        rec.incr("runs")
        rec.incr("runs", 2)
        rec.emit("timing", benchmark="x", machine="base", instructions=1,
                 minor_cycles=1, base_cycles=1.0, parallelism=1.0, cpi=1.0)
        assert rec.counters["runs"] == 3
        assert rec.events_named("timing")[0]["machine"] == "base"

    def test_null_recorder_records_nothing(self):
        NULL_RECORDER.incr("a")
        NULL_RECORDER.emit("timing", benchmark="x")
        assert NULL_RECORDER.counters == {}
        assert NULL_RECORDER.events == []
        assert not NULL_RECORDER.enabled


PROFILE_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "compile_profile.json").read_text())


def profiled_compile(source: str, options: CompilerOptions):
    """Compile under a tracer; returns the pass profile read off the
    ``pass.*`` spans under one ``compile.run`` span."""
    tracer = Tracer()
    with tracer.span("compile.run", cat="compile") as root:
        compile_source(source, options, tracer)
    return compile_passes(tracer.spans, root)


class TestCompileProfile:
    def test_profiled_compile_records_passes(self):
        source = (
            "proc main(): int { var i, s: int; s = 0; i = 0;"
            " while (i < 9) { s = s + i; i = i + 1; } return s; }"
        )
        passes = profiled_compile(source, CompilerOptions())
        names = [p.name for p in passes]
        assert names[0] == "parse"
        assert "codegen" in names and "schedule" in names
        assert sum(p.seconds for p in passes) > 0.0
        by_name = {p.name: p for p in passes}
        sched = by_name["schedule"]
        assert sched.blocks_after >= sched.sched_blocks >= 0
        # codegen phases have no sizes; later phases do
        assert by_name["parse"].instrs_before == -1
        assert by_name["local-opt"].instrs_before > 0
        # local optimization never grows the program
        assert by_name["local-opt"].instr_delta <= 0

    def test_opt_level_controls_recorded_passes(self):
        passes = profiled_compile(
            "proc main(): int { return 3; }",
            CompilerOptions(opt_level=OptLevel.NONE),
        )
        names = [p.name for p in passes]
        assert "local-opt" not in names
        assert "schedule" not in names

    def test_as_dict_and_rows(self):
        passes = profiled_compile("proc main(): int { return 1 + 2; }",
                                  CompilerOptions())
        rows = [p.as_dict() for p in passes]
        assert [r["pass"] for r in rows] == [p.name for p in passes]
        assert all(r["seconds"] >= 0.0 for r in rows)

    @pytest.mark.parametrize("name", sorted(PROFILE_GOLDEN))
    def test_span_view_matches_golden(self, name):
        """Pass names, sizes and scheduler counts equal the ones the
        pass timer measured before the profile moved onto spans
        (``tests/golden/compile_profile.json``)."""
        bench = suite.get(name)
        passes = profiled_compile(bench.source(),
                                  suite.default_options(bench))
        golden = PROFILE_GOLDEN[name]
        assert [[p.name, p.instrs_before, p.instrs_after,
                 p.blocks_before, p.blocks_after]
                for p in passes] == golden["passes"]
        sched = next(p for p in passes if p.name == "schedule")
        assert {"blocks_seen": sched.blocks_after,
                "blocks_scheduled": sched.sched_blocks,
                "instructions": sched.sched_instrs} == golden["sched"]

    def test_golden_covers_the_suite(self):
        assert sorted(PROFILE_GOLDEN) == sorted(
            b.name for b in suite.all_benchmarks())

    def test_null_profile_measures_nothing(self):
        compile_source("proc main(): int { return 42; }",
                       CompilerOptions(), NULL_TRACER)
        assert NULL_TRACER.spans == []
        assert not NULL_TRACER.enabled

    def test_default_compile_has_no_profiling_side_effects(self):
        program = compile_source("proc main(): int { return 42; }")
        assert program.functions
