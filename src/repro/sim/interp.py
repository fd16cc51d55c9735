"""Functional instruction-level interpreter.

Plays the role of the paper's "fast instruction-level simulator": it
executes a compiled :class:`~repro.isa.program.Program` with real data,
producing the program's result plus a dynamic :class:`~repro.sim.trace.Trace`
that the timing model replays under different machine configurations.

The machine state is a flat word-addressed memory (each word holds a Python
int or float), a register file, and a program counter over the *flattened*
program (all functions' blocks laid out consecutively).

Trace recording is run-structured (format v2): executor closures append
only the effective addresses of memory operations; the outer fetch loop
detects maximal straight-line runs (``next pc == pc + 1``) and records
one ``(start, length)`` pair per run instead of two list entries per
dynamic instruction.  All three streams are ``array('i')`` buffers, the
trace's own storage, so handing them over copies nothing.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from ..errors import InterpBudgetError, SimulationError
from ..isa.instruction import Instruction
from ..isa.opcodes import Opcode
from ..isa.program import Program
from ..isa.registers import RA_INDEX, RV_INDEX, SP_INDEX, flat_index
from .trace import Trace

#: Word addresses below this are unmapped; catches null-ish pointers.
_GUARD_WORDS = 16


@dataclass(slots=True)
class RunResult:
    """Outcome of one functional execution."""

    value: int | float          # the entry function's return value
    trace: Trace
    instructions: int
    memory_words: int
    #: the suite benchmark's reference checksum, recorded with the run
    #: when the engine compiles it, so a trace-cache hit needs no
    #: reference computation (``None`` for runs outside the suite)
    reference: int | float | None = None


@dataclass(slots=True)
class Flattened:
    """A program flattened to a single instruction array."""

    instrs: list[Instruction]
    label_index: dict[str, int]
    entry_index: dict[str, int]   # function name -> first instruction
    start: int


def flatten(program: Program) -> Flattened:
    """Flatten a program's functions into one instruction array."""
    instrs: list[Instruction] = []
    label_index: dict[str, int] = {}
    entry_index: dict[str, int] = {}
    for fn in program.functions.values():
        entry_index[fn.name] = len(instrs)
        for block in fn.blocks:
            label_index[block.label] = len(instrs)
            instrs.extend(block.instrs)
    return Flattened(
        instrs=instrs,
        label_index=label_index,
        entry_index=entry_index,
        start=entry_index[program.entry],
    )


def _int_div(a: int, b: int) -> int:
    """C-style truncating integer division."""
    if b == 0:
        raise SimulationError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _int_mod(a: int, b: int) -> int:
    """C-style remainder: ``a - trunc(a/b) * b``."""
    return a - _int_div(a, b) * b


def run(
    program: Program,
    memory_words: int = 1 << 16,
    max_instructions: int = 200_000_000,
) -> RunResult:
    """Execute ``program`` from its entry stub until ``HALT``.

    Raises :class:`SimulationError` on illegal memory accesses, division by
    zero, or when ``max_instructions`` is exceeded (runaway loop guard; the
    guard is checked at run boundaries, so a handful of straight-line
    instructions may execute past the limit before the error is raised).
    """
    flat = flatten(program)
    instrs = flat.instrs
    label_index = flat.label_index
    entry_index = flat.entry_index
    n_static = len(instrs)

    max_reg = 0
    for ins in instrs:
        if ins.dest is not None and flat_index(ins.dest) > max_reg:
            max_reg = flat_index(ins.dest)
        for r in ins.srcs:
            if flat_index(r) > max_reg:
                max_reg = flat_index(r)
    regs: list = [0] * (max_reg + 1)
    regs[SP_INDEX] = memory_words

    mem: list = [0] * memory_words
    for g in program.globals_.values():
        if g.initial is not None:
            for i, value in enumerate(g.initial):
                mem[g.address + i] = value

    #: One entry per dynamic memory operation, in execution order.
    mem_addrs = array("i")

    # Pre-decode every static instruction into an executor closure.
    # Each executor mutates state and returns the next pc.
    executors: list = [None] * n_static

    for idx, ins in enumerate(instrs):
        op = ins.op
        dest = flat_index(ins.dest) if ins.dest is not None else -1
        if dest == 0:
            raise SimulationError(f"instruction {idx} writes register zero")
        srcs = tuple(flat_index(r) for r in ins.srcs)
        imm = ins.imm
        ex = None

        if op is Opcode.LW:
            base = srcs[0]
            off = imm

            def ex(pc, d=dest, b=base, o=off):
                a = regs[b] + o
                if a < _GUARD_WORDS or a >= memory_words:
                    raise SimulationError(f"load out of bounds: {a}")
                regs[d] = mem[a]
                mem_addrs.append(a)
                return pc + 1

        elif op is Opcode.SW:
            val, base = srcs
            off = imm

            def ex(pc, v=val, b=base, o=off):
                a = regs[b] + o
                if a < _GUARD_WORDS or a >= memory_words:
                    raise SimulationError(f"store out of bounds: {a}")
                mem[a] = regs[v]
                mem_addrs.append(a)
                return pc + 1

        elif op in (Opcode.LI, Opcode.LIF):

            def ex(pc, d=dest, v=imm):
                regs[d] = v
                return pc + 1

        elif op is Opcode.MOV:

            def ex(pc, d=dest, s=srcs[0]):
                regs[d] = regs[s]
                return pc + 1

        elif op is Opcode.BEQZ:
            target = label_index[ins.target]

            def ex(pc, s=srcs[0], t=target):
                return t if regs[s] == 0 else pc + 1

        elif op is Opcode.BNEZ:
            target = label_index[ins.target]

            def ex(pc, s=srcs[0], t=target):
                return t if regs[s] != 0 else pc + 1

        elif op is Opcode.J:
            target = label_index[ins.target]

            def ex(pc, t=target):
                return t

        elif op is Opcode.CALL:
            target = entry_index[ins.target]

            def ex(pc, t=target):
                regs[RA_INDEX] = pc + 1
                return t

        elif op is Opcode.RET:

            def ex(pc, s=srcs[0]):
                return regs[s]

        elif op is Opcode.HALT:

            def ex(pc):
                return -1

        elif op is Opcode.NOP:

            def ex(pc):
                return pc + 1

        else:
            fn = _ALU_FUNCS.get(op)
            if fn is None:  # pragma: no cover - all opcodes are covered
                raise SimulationError(f"no executor for opcode {op.value}")
            if ins.op.info.n_srcs == 2:
                a_i, b_i = srcs

                def ex(pc, d=dest, a=a_i, b=b_i, f=fn):
                    regs[d] = f(regs[a], regs[b])
                    return pc + 1

            elif ins.op.info.has_imm:
                a_i = srcs[0]

                def ex(pc, d=dest, a=a_i, v=imm, f=fn):
                    regs[d] = f(regs[a], v)
                    return pc + 1

            else:
                a_i = srcs[0]

                def ex(pc, d=dest, a=a_i, f=fn):
                    regs[d] = f(regs[a])
                    return pc + 1

        executors[idx] = ex

    pc = flat.start
    executed = 0
    budget = max_instructions
    run_starts = array("i")
    run_lengths = array("i")
    run_start = pc
    run_len = 0
    while pc >= 0:
        if pc >= n_static:
            raise SimulationError(f"pc ran off the end: {pc}")
        nxt = executors[pc](pc)
        run_len += 1
        if nxt != pc + 1:
            # A taken control transfer (or HALT) closes the current
            # straight-line run.  A run's length is bounded by the static
            # table, so checking the budget here keeps the guard sound.
            run_starts.append(run_start)
            run_lengths.append(run_len)
            executed += run_len
            run_start = nxt
            run_len = 0
            if executed > budget:
                raise InterpBudgetError(executed, pc, max_instructions)
        pc = nxt

    trace = Trace(
        static=instrs,
        run_starts=run_starts,
        run_lengths=run_lengths,
        mem_addrs=mem_addrs,
        n=executed,
    )
    return RunResult(
        value=regs[RV_INDEX],
        trace=trace,
        instructions=executed,
        memory_words=memory_words,
    )


_ALU_FUNCS = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.ADDI: lambda a, b: a + b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.DIV: _int_div,
    Opcode.MOD: _int_mod,
    Opcode.SEQ: lambda a, b: 1 if a == b else 0,
    Opcode.SNE: lambda a, b: 1 if a != b else 0,
    Opcode.SLT: lambda a, b: 1 if a < b else 0,
    Opcode.SLE: lambda a, b: 1 if a <= b else 0,
    Opcode.SGT: lambda a, b: 1 if a > b else 0,
    Opcode.SGE: lambda a, b: 1 if a >= b else 0,
    Opcode.SEQI: lambda a, b: 1 if a == b else 0,
    Opcode.SNEI: lambda a, b: 1 if a != b else 0,
    Opcode.SLTI: lambda a, b: 1 if a < b else 0,
    Opcode.SLEI: lambda a, b: 1 if a <= b else 0,
    Opcode.SGTI: lambda a, b: 1 if a > b else 0,
    Opcode.SGEI: lambda a, b: 1 if a >= b else 0,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.ANDI: lambda a, b: a & b,
    Opcode.ORI: lambda a, b: a | b,
    Opcode.XORI: lambda a, b: a ^ b,
    Opcode.SLL: lambda a, b: a << b,
    Opcode.SRL: lambda a, b: (a & 0xFFFFFFFFFFFFFFFF) >> b,
    Opcode.SRA: lambda a, b: a >> b,
    Opcode.SLLI: lambda a, b: a << b,
    Opcode.SRLI: lambda a, b: (a & 0xFFFFFFFFFFFFFFFF) >> b,
    Opcode.SRAI: lambda a, b: a >> b,
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
    Opcode.FDIV: lambda a, b: _float_div(a, b),
    Opcode.FNEG: lambda a: -a,
    Opcode.FEQ: lambda a, b: 1 if a == b else 0,
    Opcode.FNE: lambda a, b: 1 if a != b else 0,
    Opcode.FLT: lambda a, b: 1 if a < b else 0,
    Opcode.FLE: lambda a, b: 1 if a <= b else 0,
    Opcode.CVTIF: lambda a: float(a),
    Opcode.CVTFI: lambda a: int(a),
}


def _float_div(a: float, b: float) -> float:
    if b == 0:
        raise SimulationError("floating-point division by zero")
    return a / b
