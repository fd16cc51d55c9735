"""The compile pipeline: source -> optimized, scheduled machine code.

Order of phases (mirroring the paper's language system):

1. parse; loop unrolling (source-to-source, naive or careful);
2. semantic analysis; code generation (naive code, virtual registers);
3. intra-block optimization (value numbering) + dead-code elimination;
4. global optimization (loop-invariant code motion) + DCE;
5. global register allocation (home registers) + cleanup VN/DCE;
6. interprocedural alias binding (careful mode);
7. temporary assignment (linear scan onto the temp pool);
8. pipeline scheduling for the target machine description.

Every phase runs under one ``pass.<phase>`` span on the given
:class:`~repro.obs.trace.Tracer`.  When the tracer is enabled the span
args carry the program's instruction/block counts before and after the
phase (:func:`repro.obs.profile.compile_passes` reads them back as a
compile profile); with the default
:data:`~repro.obs.trace.NULL_TRACER` nothing is measured or counted.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..isa.program import Program
from ..lang import ast
from ..lang.codegen import generate
from ..lang.parser import parse
from ..lang.semantics import check
from ..obs.profile import PASS_PREFIX, program_size
from ..obs.trace import NULL_TRACER, Tracer
from ..sched import registry as sched_registry
from .alias import bind_array_parameters
from .cleanup import cleanup_control_flow
from .globalopt import loop_invariant_code_motion
from .local import dead_code_elimination, value_number_function
from .options import CompilerOptions, OptLevel
from .regalloc import assign_temporaries, promote_variables
from .unroll import resolve_partial_decls, unroll_module


@contextmanager
def _phase(tracer: Tracer, name: str, program: Program | None = None):
    """One ``pass.<name>`` span; sizes ``program`` before and after
    when the tracer is enabled.  Yields the span (None when disabled)."""
    with tracer.span(PASS_PREFIX + name, cat="compile") as span:
        if span is not None and program is not None:
            instrs, blocks = program_size(program)
            span.args["instrs_before"] = instrs
            span.args["blocks_before"] = blocks
        yield span
        if span is not None and program is not None:
            instrs, blocks = program_size(program)
            span.args["instrs_after"] = instrs
            span.args["blocks_after"] = blocks


def compile_source(
    source: str,
    options: CompilerOptions | None = None,
    tracer: Tracer = NULL_TRACER,
) -> Program:
    """Compile Tin source text under ``options`` (defaults to full opt)."""
    with _phase(tracer, "parse"):
        module = parse(source)
    return compile_module(module, options, tracer)


def compile_module(
    module: ast.Module,
    options: CompilerOptions | None = None,
    tracer: Tracer = NULL_TRACER,
) -> Program:
    """Compile a freshly parsed module.  The module is consumed (the
    unroller rewrites it in place); parse a new one per compilation."""
    opts = options or CompilerOptions()

    if opts.unroll > 1:
        with _phase(tracer, "unroll"):
            unroll_module(module, opts.unroll, opts.careful)
            resolve_partial_decls(module)

    with _phase(tracer, "semantics"):
        info = check(module)
    with _phase(tracer, "codegen"):
        program = generate(module, info)

    if opts.do_local:
        with _phase(tracer, "local-opt", program):
            for fn in program.functions.values():
                value_number_function(fn, opts.alias_level)
                dead_code_elimination(fn)
                cleanup_control_flow(fn)

    if opts.do_global:
        with _phase(tracer, "global-opt", program):
            for fn in program.functions.values():
                loop_invariant_code_motion(fn, opts.alias_level)
                dead_code_elimination(fn)
                cleanup_control_flow(fn)

    if opts.do_regalloc:
        with _phase(tracer, "regalloc", program):
            promote_variables(program, opts.regfile)
            if opts.do_local:
                for fn in program.functions.values():
                    value_number_function(fn, opts.alias_level)
                    dead_code_elimination(fn)

    if opts.careful:
        with _phase(tracer, "alias-binding", program):
            bind_array_parameters(program)

    with _phase(tracer, "temp-alloc", program):
        for fn in program.functions.values():
            assign_temporaries(fn, opts.regfile)

    if opts.do_schedule:
        backend = sched_registry.get(opts.scheduler)
        with _phase(tracer, "schedule", program) as span:
            for fn in program.functions.values():
                backend.schedule_function(
                    fn, opts.schedule_for, opts.alias_level,
                    opts.sched_heuristic,
                )
            if span is not None:
                # Backends reorder blocks of more than two instructions
                # and leave sizes unchanged, so the counts read off the
                # scheduled program are the ones scheduling saw.
                sizes = [len(block.instrs)
                         for fn in program.functions.values()
                         for block in fn.blocks if len(block.instrs) > 2]
                span.args["sched_blocks"] = len(sizes)
                span.args["sched_instrs"] = sum(sizes)

    with _phase(tracer, "validate", program):
        program.validate()
    return program
