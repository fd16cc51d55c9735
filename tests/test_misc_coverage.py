"""Coverage tests for the printer, trace utilities, suite plumbing,
pipeviz vector diagram, and the errors hierarchy."""

import pytest

from repro import errors
from repro.analysis.pipeviz import render_vector_diagram
from repro.benchmarks import suite
from repro.isa import InstrClass, MemRef, Opcode, build, format_instruction
from repro.isa.registers import RA, SP, ZERO, virtual
from repro.machine import ideal_superscalar, superpipelined_superscalar
from repro.machine.metrics import machine_degree
from repro.opt.options import CompilerOptions, OptLevel
from repro.sim.trace import Trace


class TestPrinter:
    CASES = [
        (build.alu(Opcode.ADD, virtual(0), virtual(1), virtual(2)),
         "add v0 <- v1, v2"),
        (build.alui(Opcode.ADDI, virtual(0), virtual(1), -3),
         "addi v0 <- v1, -3"),
        (build.li(virtual(0), 7), "li v0 <- 7"),
        (build.lif(virtual(0), 2.5), "lif v0 <- 2.5"),
        (build.mov(virtual(0), virtual(1)), "mov v0 <- v1"),
        (build.lw(virtual(0), SP, 4), "lw v0 <- 4(sp)"),
        (build.sw(virtual(0), ZERO, 16), "sw 16(zero) <- v0"),
        (build.beqz(virtual(0), "L1"), "beqz v0, L1"),
        (build.bnez(virtual(0), "L2"), "bnez v0, L2"),
        (build.jump("L3"), "j L3"),
        (build.call("f"), "call f"),
        (build.ret(), "ret"),
        (build.nop(), "nop"),
        (build.halt(), "halt"),
    ]

    @pytest.mark.parametrize(
        "ins,expected", CASES, ids=[c[1].split()[0] for c in CASES]
    )
    def test_format(self, ins, expected):
        assert format_instruction(ins) == expected

    def test_frame_slot_marker_rendering(self):
        ins = build.lw(virtual(0), SP, 3, frame_slot=3)
        assert "#3(sp)" in format_instruction(ins)

    def test_mem_annotation_rendering(self):
        ins = build.lw(virtual(0), ZERO, 20, mem=MemRef(obj="g:x", offset=0))
        text = format_instruction(ins)
        assert "g:x+0" in text

    def test_comment_rendering(self):
        ins = build.nop()
        ins.comment = "hello"
        assert "hello" in format_instruction(ins)

    def test_unary_ops(self):
        ins = build.unary(Opcode.FNEG, virtual(0), virtual(1))
        assert format_instruction(ins) == "fneg v0 <- v1"
        ins = build.unary(Opcode.CVTIF, virtual(0), virtual(1))
        assert format_instruction(ins) == "cvtif v0 <- v1"


class TestTrace:
    def test_from_instructions_default_addresses(self):
        instrs = [
            build.lw(virtual(0), ZERO, 100),
            build.li(virtual(1), 5),
        ]
        trace = Trace.from_instructions(instrs)
        assert trace.addrs == [100, -1]

    def test_explicit_addresses(self):
        instrs = [build.sw(virtual(0), virtual(1), 0)]
        trace = Trace.from_instructions(instrs, addrs=[321])
        assert trace.addrs == [321]

    def test_len_and_iteration(self):
        instrs = [build.nop(), build.nop()]
        trace = Trace.from_instructions(instrs)
        assert len(trace) == 2
        assert len(list(trace.instructions())) == 2

    def test_class_counts(self):
        instrs = [
            build.lw(virtual(0), ZERO, 100),
            build.li(virtual(1), 5),
            build.li(virtual(2), 6),
        ]
        counts = Trace.from_instructions(instrs).class_counts()
        assert counts[InstrClass.LOAD] == 1
        assert counts[InstrClass.MOVE] == 2


class TestSuitePlumbing:
    def test_options_cache_key_distinguishes(self):
        a = CompilerOptions().fingerprint()
        b = CompilerOptions(unroll=2).fingerprint()
        c = CompilerOptions(opt_level=OptLevel.NONE).fingerprint()
        d = CompilerOptions(schedule_for=ideal_superscalar(3)).fingerprint()
        assert len({a, b, c, d}) == 4

    def test_duplicate_registration_rejected(self):
        from repro.benchmarks.suite import Benchmark, register

        with pytest.raises(ValueError):
            register(Benchmark(
                name="whet", description="dup",
                source=lambda: "", reference=lambda: 0,
            ))

    def test_descriptions_present(self):
        for bench in suite.all_benchmarks():
            assert bench.description


class TestVectorDiagram:
    def test_rows_and_overlap(self):
        text = render_vector_diagram(n_elements=4)
        lines = [l for l in text.splitlines() if "|" in l]
        assert len(lines) == 3
        first = lines[0].index("#")
        second = lines[1].index("#")
        assert second == first + 1  # chained: one cycle of skew

    def test_reports_ops_per_cycle(self):
        assert "ops/cycle" in render_vector_diagram()


class TestMetricsExtra:
    def test_superpipelined_superscalar_degree(self):
        # (n=2, m=3): latencies are 3 minor cycles = 1 base cycle
        cfg = superpipelined_superscalar(2, 3)
        assert machine_degree(cfg) == pytest.approx(1.0)


class TestErrors:
    def test_hierarchy(self):
        for exc in (
            errors.TinSyntaxError,
            errors.TinSemanticError,
            errors.CodegenError,
            errors.MachineConfigError,
            errors.SimulationError,
            errors.RegisterAllocationError,
            errors.SchedulingError,
        ):
            assert issubclass(exc, errors.ReproError)

    def test_syntax_error_formats_position(self):
        err = errors.TinSyntaxError("boom", line=3, column=9)
        assert "3:9" in str(err)
        assert err.line == 3 and err.column == 9

    def test_syntax_error_without_position(self):
        assert str(errors.TinSyntaxError("boom")) == "boom"
