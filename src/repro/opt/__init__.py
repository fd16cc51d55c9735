"""Optimization passes and the compile-pipeline driver."""

from .. import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, globals(), {
    ".alias": ("bind_array_parameters", "may_conflict"),
    ".cleanup": ("cleanup_control_flow", "remove_redundant_jumps",
                 "thread_jumps"),
    ".dataflow": ("Liveness", "liveness"),
    ".driver": ("compile_module", "compile_source"),
    ".globalopt": ("loop_invariant_code_motion",),
    ".local": ("dead_code_elimination", "value_number_function"),
    ".options": ("AliasLevel", "CompilerOptions", "OptLevel"),
    ".regalloc": ("AllocationStats", "assign_temporaries",
                  "promote_variables"),
    ".unroll": ("UnrollStats", "unroll_module"),
})

__all__ = [
    "AliasLevel",
    "AllocationStats",
    "CompilerOptions",
    "Liveness",
    "OptLevel",
    "UnrollStats",
    "assign_temporaries",
    "bind_array_parameters",
    "cleanup_control_flow",
    "compile_module",
    "compile_source",
    "dead_code_elimination",
    "liveness",
    "loop_invariant_code_motion",
    "may_conflict",
    "promote_variables",
    "remove_redundant_jumps",
    "thread_jumps",
    "unroll_module",
    "value_number_function",
]
