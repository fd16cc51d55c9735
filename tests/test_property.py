"""Property-based tests (hypothesis) for core invariants."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.isa import BasicBlock, Opcode, build
from repro.isa.registers import Reg, virtual
from repro.machine import MachineConfig, base_machine, ideal_superscalar
from repro.opt.options import CompilerOptions, OptLevel
from repro.sched.listsched import schedule_block
from repro.sim.timing import simulate
from repro.sim.trace import Trace
from repro.analysis.stats import harmonic_mean
from tests.helpers import run_tin_value

# ------------------------------------------------------------ expression trees

VARS = ["va", "vb", "vc"]
VAR_VALUES = {"va": 7, "vb": -3, "vc": 11}


def exprs(depth: int):
    """Strategy producing (tin_text, python_value) pairs of int exprs."""
    leaf = st.one_of(
        st.integers(min_value=-50, max_value=50).map(
            lambda v: (f"({v})" if v < 0 else str(v), v)
        ),
        st.sampled_from(VARS).map(lambda name: (name, VAR_VALUES[name])),
    )
    if depth == 0:
        return leaf

    def combine(children):
        (lt, lv), op, (rt, rv) = children
        if op == "+":
            return (f"({lt} + {rt})", lv + rv)
        if op == "-":
            return (f"({lt} - {rt})", lv - rv)
        if op == "*":
            return (f"({lt} * {rt})", lv * rv)
        if op == "&":
            return (f"({lt} & {rt})", lv & rv)
        if op == "|":
            return (f"({lt} | {rt})", lv | rv)
        return (f"({lt} ^ {rt})", lv ^ rv)

    sub = exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, st.sampled_from("+-*&|^"), sub).map(combine),
    )


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pair=exprs(3), level=st.sampled_from([OptLevel.NONE, OptLevel.REGALLOC]))
def test_expression_compilation_matches_python(pair, level):
    text, expected = pair
    src = (
        f"var va, vb, vc: int;\n"
        f"proc main(): int {{ va = 7; vb = -3; vc = 11;"
        f" return {text}; }}"
    )
    assert run_tin_value(src, CompilerOptions(opt_level=level)) == expected


# -------------------------------------------------------- straight-line blocks
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from(VARS),
            st.sampled_from("+-*"),
            st.sampled_from(VARS + ["5", "3"]),
        ),
        min_size=1,
        max_size=12,
    ),
    level=st.sampled_from(list(OptLevel)),
)
def test_straight_line_programs_match_python(steps, level):
    env = dict(VAR_VALUES)
    lines = []
    for dst, op, src in steps:
        lines.append(f"{dst} = {dst} {op} {src};")
        rhs = env[src] if src in env else int(src)
        if op == "+":
            env[dst] = env[dst] + rhs
        elif op == "-":
            env[dst] = env[dst] - rhs
        else:
            env[dst] = env[dst] * rhs
    expected = env["va"] + 2 * env["vb"] + 3 * env["vc"]
    src_text = (
        "var va, vb, vc: int;\n"
        "proc main(): int { va = 7; vb = -3; vc = 11;\n"
        + "\n".join(lines)
        + "\nreturn va + 2 * vb + 3 * vc; }"
    )
    assert run_tin_value(
        src_text, CompilerOptions(opt_level=level)
    ) == expected


# --------------------------------------------------------------- timing model
def random_trace_strategy():
    """Traces of ALU/memory ops over a small physical register set."""
    regs = [Reg(20 + i) for i in range(6)]

    def to_trace(spec):
        instrs = []
        addrs = []
        for kind, d, a, b, addr in spec:
            if kind == 0:
                instrs.append(build.alu(Opcode.ADD, regs[d], regs[a], regs[b]))
                addrs.append(-1)
            elif kind == 1:
                instrs.append(build.lw(regs[d], regs[a], 0))
                addrs.append(64 + addr)
            else:
                instrs.append(build.sw(regs[d], regs[a], 0))
                addrs.append(64 + addr)
        trace = Trace(static=instrs)
        for i, addr in enumerate(addrs):
            trace.append(i, addr)
        return trace

    step = st.tuples(
        st.integers(0, 2), st.integers(0, 5), st.integers(0, 5),
        st.integers(0, 5), st.integers(0, 7),
    )
    return st.lists(step, min_size=1, max_size=30).map(to_trace)


@settings(max_examples=60, deadline=None)
@given(trace=random_trace_strategy(), width=st.integers(1, 7))
def test_wider_issue_never_slower(trace, width):
    narrow = simulate(trace, ideal_superscalar(width))
    wide = simulate(trace, ideal_superscalar(width + 1))
    assert wide.minor_cycles <= narrow.minor_cycles


@settings(max_examples=60, deadline=None)
@given(trace=random_trace_strategy(), lat=st.integers(1, 6))
def test_longer_latency_never_faster(trace, lat):
    from repro.isa import InstrClass

    lats_short = {k: lat for k in InstrClass}
    lats_long = {k: lat + 1 for k in InstrClass}
    short = simulate(trace, MachineConfig(name="s", latencies=lats_short))
    longer = simulate(trace, MachineConfig(name="l", latencies=lats_long))
    assert longer.minor_cycles >= short.minor_cycles


@settings(max_examples=60, deadline=None)
@given(trace=random_trace_strategy())
def test_base_machine_never_stalls(trace):
    result = simulate(trace, base_machine())
    assert result.minor_cycles == len(trace)


@settings(max_examples=60, deadline=None)
@given(trace=random_trace_strategy(), width=st.integers(1, 8))
def test_parallelism_bounded_by_width(trace, width):
    result = simulate(trace, ideal_superscalar(width))
    assert result.parallelism <= width + 1e-9


# ----------------------------------------------------------------- scheduling
@settings(max_examples=40, deadline=None)
@given(trace=random_trace_strategy())
def test_scheduler_emits_valid_permutation(trace):
    block = BasicBlock("b", list(trace.instructions()))
    original = list(block.instrs)
    # schedule_block internally re-verifies topological validity
    schedule_block(block, ideal_superscalar(4))
    assert sorted(map(id, block.instrs)) == sorted(map(id, original))


# ------------------------------------------------------------------ statistics
@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1,
                max_size=10))
def test_harmonic_mean_bounds(values):
    hm = harmonic_mean(values)
    assert min(values) - 1e-9 <= hm <= max(values) + 1e-9
