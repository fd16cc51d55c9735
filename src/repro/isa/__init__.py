"""The MultiTitan-like RISC instruction set and program representation."""

from .. import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, globals(), {
    ".instruction": ("Instruction", "MemRef"),
    ".opcodes": ("COMPARE_IMM_FORM", "SIMPLE_CLASSES", "TERMINATORS",
                 "InstrClass", "Opcode", "OpcodeInfo"),
    ".program": ("BasicBlock", "Function", "GlobalVar", "Program",
                 "compute_dominators", "loop_depths", "natural_loops"),
    ".printer": ("format_function", "format_instruction",
                 "format_program"),
    ".registers": ("ARG_REGS", "RA", "RV", "SCRATCH0", "SCRATCH1", "SP",
                   "ZERO", "Reg", "RegisterFileSpec", "VirtualRegAllocator",
                   "virtual"),
})

__all__ = [
    "ARG_REGS",
    "BasicBlock",
    "COMPARE_IMM_FORM",
    "Function",
    "GlobalVar",
    "InstrClass",
    "Instruction",
    "MemRef",
    "Opcode",
    "OpcodeInfo",
    "Program",
    "RA",
    "RV",
    "Reg",
    "RegisterFileSpec",
    "SCRATCH0",
    "SCRATCH1",
    "SIMPLE_CLASSES",
    "SP",
    "TERMINATORS",
    "VirtualRegAllocator",
    "ZERO",
    "build",
    "compute_dominators",
    "format_function",
    "format_instruction",
    "format_program",
    "loop_depths",
    "natural_loops",
    "virtual",
]
