"""Unit tests for alias analysis and the pipeline scheduler."""

import pytest

from repro.errors import SchedulingError
from repro.isa import BasicBlock, Function, InstrClass, MemRef, Opcode, build
from repro.isa.registers import Reg, virtual
from repro.machine import MachineConfig, base_machine, ideal_superscalar
from repro.opt.alias import bind_array_parameters, may_conflict
from repro.opt.options import AliasLevel, CompilerOptions, OptLevel
from repro.sched.dag import build_dag
from repro.sched.listsched import schedule_block
from repro.sim.timing import simulate
from repro.sim.trace import Trace
from tests.helpers import run_tin


def scalar(name: str, offset: int = 0) -> MemRef:
    return MemRef(obj=name, offset=offset)


def array(name: str, offset=None, affine=None, affine_vars=(),
          may_alias=False) -> MemRef:
    return MemRef(obj=name, offset=offset, affine=affine,
                  affine_vars=affine_vars, may_alias_all=may_alias,
                  is_array=True)


class TestMayConflict:
    def test_none_conflicts_with_everything(self):
        assert may_conflict(None, scalar("g:x"), AliasLevel.AFFINE)

    def test_known_addresses_compare_at_any_level(self):
        a, b = scalar("g:x"), scalar("g:y")
        assert not may_conflict(a, b, AliasLevel.CONSERVATIVE)
        assert may_conflict(a, scalar("g:x"), AliasLevel.CONSERVATIVE)

    def test_known_array_elements_compare(self):
        a = array("g:t", offset=1)
        b = array("g:t", offset=2)
        assert not may_conflict(a, b, AliasLevel.CONSERVATIVE)
        assert may_conflict(a, array("g:t", offset=1), AliasLevel.AFFINE)

    def test_computed_address_conflicts_conservatively(self):
        a = array("g:t")          # runtime index
        b = scalar("g:x")
        assert may_conflict(a, b, AliasLevel.CONSERVATIVE)
        assert not may_conflict(a, b, AliasLevel.OBJECT)

    def test_object_level_separates_objects(self):
        a, b = array("g:t"), array("g:u")
        assert may_conflict(a, b, AliasLevel.CONSERVATIVE)
        assert not may_conflict(a, b, AliasLevel.OBJECT)

    def test_param_may_alias_arrays_but_not_scalars(self):
        p = array("p:f:a", may_alias=True)
        assert may_conflict(p, array("g:t"), AliasLevel.OBJECT)
        assert not may_conflict(p, scalar("g:x"), AliasLevel.OBJECT)

    def test_distinct_params_independent_at_affine(self):
        p = array("p:f:a", may_alias=True)
        q = array("p:f:b", may_alias=True)
        assert may_conflict(p, q, AliasLevel.OBJECT)
        assert not may_conflict(p, q, AliasLevel.AFFINE)

    def test_same_object_runtime_indices_conflict(self):
        a = array("g:t", affine=("(i)", 0))
        b = array("g:t", affine=("(i)", 1))
        # position-free oracle cannot apply the affine rule
        assert may_conflict(a, b, AliasLevel.AFFINE)


class TestDag:
    def _block(self, instrs):
        return BasicBlock("b", list(instrs))

    def test_raw_edge_carries_latency(self):
        block = self._block([
            build.lw(virtual(0), virtual(9), 0),
            build.alui(Opcode.ADDI, virtual(1), virtual(0), 1),
        ])
        lats = {k: 1 for k in InstrClass}
        lats[InstrClass.LOAD] = 7
        cfg = MachineConfig(name="m", latencies=lats)
        dag = build_dag(block, cfg)
        assert dag.succs[0][1] == 7

    def test_war_and_waw_edges(self):
        block = self._block([
            build.alui(Opcode.ADDI, virtual(1), virtual(0), 1),   # reads v0
            build.alui(Opcode.ADDI, virtual(0), virtual(2), 1),   # WAR
            build.alui(Opcode.ADDI, virtual(0), virtual(3), 1),   # WAW
        ])
        dag = build_dag(block, base_machine())
        assert 1 in dag.succs[0]
        assert 2 in dag.succs[1]

    def test_conservative_memory_serializes(self):
        mem_t = array("g:t")
        block = self._block([
            build.sw(virtual(0), virtual(8), 0, mem=mem_t),
            build.lw(virtual(1), virtual(9), 0, mem=array("g:u")),
        ])
        dag = build_dag(block, base_machine(), AliasLevel.CONSERVATIVE)
        assert 1 in dag.succs[0]
        dag2 = build_dag(block, base_machine(), AliasLevel.OBJECT)
        assert 1 not in dag2.succs[0]

    def test_affine_disambiguation_with_side_condition(self):
        key = "(s:f:i)"
        block = self._block([
            build.sw(virtual(0), virtual(8), 0,
                     mem=array("g:t", affine=(key, 0), affine_vars=("s:f:i",))),
            build.lw(virtual(1), virtual(8), 1,
                     mem=array("g:t", affine=(key, 1), affine_vars=("s:f:i",))),
        ])
        dag = build_dag(block, base_machine(), AliasLevel.AFFINE)
        assert 1 not in dag.succs[0]

    def test_affine_blocked_by_index_redefinition(self):
        key = "(s:f:i)"
        home_i = Reg(30)
        block = self._block([
            build.sw(virtual(0), virtual(8), 0,
                     mem=array("g:t", affine=(key, 0), affine_vars=("s:f:i",))),
            build.alui(Opcode.ADDI, home_i, home_i, 1),  # i changes!
            build.lw(virtual(1), virtual(8), 1,
                     mem=array("g:t", affine=(key, 1), affine_vars=("s:f:i",))),
        ])
        dag = build_dag(
            block, base_machine(), AliasLevel.AFFINE,
            home_bindings={"s:f:i": home_i},
        )
        assert 2 in dag.succs[0]

    def test_call_is_barrier(self):
        block = self._block([
            build.alui(Opcode.ADDI, virtual(1), virtual(0), 1),
            build.call("g"),
            build.alui(Opcode.ADDI, virtual(2), virtual(9), 1),
        ])
        dag = build_dag(block, base_machine())
        assert 1 in dag.succs[0]
        assert 2 in dag.succs[1]

    def test_terminator_is_last(self):
        block = self._block([
            build.alui(Opcode.ADDI, virtual(1), virtual(0), 1),
            build.alui(Opcode.ADDI, virtual(2), virtual(9), 1),
            build.jump("L"),
        ])
        dag = build_dag(block, base_machine())
        assert 2 in dag.succs[0] and 2 in dag.succs[1]

    def test_topological_order_detects_cycles(self):
        from repro.sched.dag import DepDAG

        dag = DepDAG(2, [dict(), dict()], [dict(), dict()])
        dag.add_edge(0, 1, 1)
        dag.preds[0][1] = 1  # manufacture a cycle
        dag.succs[1][0] = 1
        with pytest.raises(ValueError):
            dag.topological_order()


class TestScheduler:
    def test_interleaves_independent_chains(self):
        # two chains of 3; unscheduled in-order issue needs 5 cycles on a
        # 2-wide machine, scheduled needs 3
        instrs = []
        for base in (100, 200):
            for i in range(3):
                instrs.append(build.alui(
                    Opcode.ADDI, virtual(base + i + 1), virtual(base + i), 1
                ))
        block = BasicBlock("b", instrs)
        cfg = ideal_superscalar(2)
        before = simulate(Trace.from_instructions(block.instrs), cfg)
        schedule_block(block, cfg)
        after = simulate(Trace.from_instructions(block.instrs), cfg)
        assert after.minor_cycles < before.minor_cycles
        assert after.minor_cycles == 3

    def test_respects_memory_dependences(self):
        mem = array("g:t")
        instrs = [
            build.sw(virtual(0), virtual(8), 0, mem=mem),
            build.lw(virtual(1), virtual(8), 0, mem=mem),
            build.alui(Opcode.ADDI, virtual(2), virtual(1), 1),
        ]
        block = BasicBlock("b", instrs)
        schedule_block(block, ideal_superscalar(4), AliasLevel.CONSERVATIVE)
        ops = [ins.op for ins in block.instrs]
        assert ops.index(Opcode.SW) < ops.index(Opcode.LW)

    def test_schedule_reduces_stalls_with_latencies(self):
        lats = {k: 1 for k in InstrClass}
        lats[InstrClass.LOAD] = 6
        cfg = MachineConfig(name="slowload", issue_width=1, latencies=lats)
        instrs = [
            build.lw(virtual(0), virtual(9), 0, mem=array("g:t", offset=0)),
            build.alui(Opcode.ADDI, virtual(1), virtual(0), 1),  # stalls
            build.alui(Opcode.ADDI, virtual(2), virtual(8), 1),
            build.alui(Opcode.ADDI, virtual(3), virtual(7), 1),
        ]
        block = BasicBlock("b", instrs)
        before = simulate(Trace.from_instructions(block.instrs), cfg)
        schedule_block(block, cfg)
        after = simulate(Trace.from_instructions(block.instrs), cfg)
        assert after.minor_cycles < before.minor_cycles

    def test_scheduled_code_same_result(self):
        src = """
        var a, b, c, d: int;
        proc main(): int {
            a = 1; b = 2; c = 3; d = 4;
            a = b + c * d;
            b = a - d;
            return a * 100 + b;
        }
        """
        plain = run_tin(src, CompilerOptions(opt_level=OptLevel.NONE))
        sched = run_tin(src, CompilerOptions(opt_level=OptLevel.SCHEDULE))
        assert plain.value == sched.value

    def test_scheduler_verifies_topology(self):
        # schedule_block on any real block must not raise
        instrs = [
            build.alui(Opcode.ADDI, virtual(i + 1), virtual(i), 1)
            for i in range(5)
        ] + [build.jump("L")]
        block = BasicBlock("b", instrs)
        schedule_block(block, ideal_superscalar(4))
        assert block.instrs[-1].op is Opcode.J


BIND_SRC = """
var xs: float[8];
var ys: float[8];
proc axpy(dst: float[], src: float[], n: int) {
    var i: int;
    for i = 0 to n - 1 {
        dst[i] = dst[i] + src[i] * 2.0;
    }
}
proc main(): int {
    var i: int;
    for i = 0 to 7 { xs[i] = float(i); ys[i] = 1.0; }
    axpy(ys, xs, 8);
    return int(ys[7]);
}
"""


class TestInterproceduralBinding:
    def test_unique_bindings_are_applied(self):
        from repro.lang import parse
        from repro.lang.codegen import generate
        from repro.lang.semantics import check

        module = parse(BIND_SRC)
        program = generate(module, check(module))
        bound = bind_array_parameters(program)
        assert bound > 0
        axpy = program.functions["axpy"]
        objs = {
            ins.mem.obj for ins in axpy.instructions()
            if ins.mem is not None and ins.mem.is_array
        }
        assert "g:xs" in objs and "g:ys" in objs
        assert not any(obj.startswith("p:") for obj in objs)

    def test_conflicting_bindings_left_alone(self):
        src = BIND_SRC.replace(
            "axpy(ys, xs, 8);", "axpy(ys, xs, 8); axpy(xs, ys, 8);"
        )
        from repro.lang import parse
        from repro.lang.codegen import generate
        from repro.lang.semantics import check

        module = parse(src)
        program = generate(module, check(module))
        bind_array_parameters(program)
        axpy = program.functions["axpy"]
        objs = {
            ins.mem.obj for ins in axpy.instructions()
            if ins.mem is not None and ins.mem.is_array
        }
        assert all(obj.startswith("p:") for obj in objs)

    def test_binding_preserves_semantics(self):
        expected = int(1.0 + 7.0 * 2.0)
        for careful in (False, True):
            opts = CompilerOptions(careful=careful)
            assert run_tin(BIND_SRC, opts).value == expected
