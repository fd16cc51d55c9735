"""Pass-level compile profiles, read off the tracer's native spans.

The compile driver (:func:`repro.opt.driver.compile_module`) opens one
``pass.<phase>`` span per pipeline phase on the tracer it is given.
With an enabled tracer each span carries the program's instruction and
block counts before and after the phase in its args, and the
``pass.schedule`` span also counts the blocks the scheduler reorders
(those with more than two instructions) and their instructions.
:func:`compile_passes` turns one ``compile.run`` span's ``pass.*``
children into :class:`PassStat` rows, so the span tracer is the only
clock behind a compile profile.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Name prefix of the driver's per-phase spans.
PASS_PREFIX = "pass."


def program_size(program) -> tuple[int, int]:
    """(instructions, basic blocks) of a :class:`~repro.isa.Program`."""
    instrs = 0
    blocks = 0
    for fn in program.functions.values():
        for block in fn.blocks:
            blocks += 1
            instrs += len(block.instrs)
    return instrs, blocks


@dataclass(slots=True)
class PassStat:
    """One pipeline phase: wall time and program size before/after.

    Size fields are -1 for phases that run before code generation (there
    is no instruction stream to count yet).  ``sched_blocks`` and
    ``sched_instrs`` count the blocks the scheduler reorders and their
    instructions; they are -1 on every phase but ``schedule``.
    """

    name: str
    seconds: float
    instrs_before: int = -1
    instrs_after: int = -1
    blocks_before: int = -1
    blocks_after: int = -1
    sched_blocks: int = -1
    sched_instrs: int = -1

    @property
    def instr_delta(self) -> int:
        """Instructions added (positive) or removed (negative)."""
        if self.instrs_before < 0 or self.instrs_after < 0:
            return 0
        return self.instrs_after - self.instrs_before

    def as_dict(self) -> dict:
        return {
            "pass": self.name,
            "seconds": self.seconds,
            "instrs_before": self.instrs_before,
            "instrs_after": self.instrs_after,
            "blocks_before": self.blocks_before,
            "blocks_after": self.blocks_after,
        }


def compile_passes(spans, compile_span) -> list[PassStat]:
    """The ``pass.*`` children of ``compile_span``, in run order.

    ``spans`` is the tracer's span list (or spans rebuilt from a JSONL
    report); children are found by parent id, so spans merged from a
    worker process resolve the same way.
    """
    stats = []
    for span in spans:
        if (span.parent_id != compile_span.span_id
                or not span.name.startswith(PASS_PREFIX)):
            continue
        args = span.args
        stats.append(PassStat(
            name=span.name[len(PASS_PREFIX):],
            seconds=max(0, span.dur_ns) / 1e9,
            instrs_before=args.get("instrs_before", -1),
            instrs_after=args.get("instrs_after", -1),
            blocks_before=args.get("blocks_before", -1),
            blocks_after=args.get("blocks_after", -1),
            sched_blocks=args.get("sched_blocks", -1),
            sched_instrs=args.get("sched_instrs", -1),
        ))
    return stats
