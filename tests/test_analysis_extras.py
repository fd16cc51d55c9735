"""Tests for block statistics, the sweep API, and scheduler heuristics."""

import pytest

from repro.analysis.blockstats import block_stats
from repro.analysis.sweep import summarize, sweep
from repro.benchmarks import suite
from repro.errors import SchedulingError
from repro.isa import BasicBlock, Opcode, build
from repro.isa.registers import virtual
from repro.machine import base_machine, cray1, ideal_superscalar
from repro.opt.options import CompilerOptions
from repro.sched.listsched import schedule_block
from repro.sim.timing import simulate
from repro.sim.trace import Trace


class TestBlockStats:
    def test_straight_line_is_one_block(self):
        instrs = [build.li(virtual(i), i) for i in range(5)]
        stats = block_stats(Trace.from_instructions(instrs))
        assert stats.dynamic_blocks == 1
        assert stats.mean_block_length == 5.0
        assert stats.branch_frequency == 0.0

    def test_branches_delimit_blocks(self):
        instrs = [
            build.li(virtual(0), 1),
            build.bnez(virtual(0), "L"),
            build.li(virtual(1), 2),
            build.jump("L"),
        ]
        trace = Trace(static=instrs)
        for i in range(4):
            trace.append(i)
        stats = block_stats(trace)
        assert stats.dynamic_blocks == 2
        assert stats.branch_instructions == 2
        assert stats.mean_block_length == 2.0

    def test_histogram_buckets(self):
        instrs = [build.li(virtual(0), 1), build.jump("L")]
        trace = Trace(static=instrs)
        for _ in range(3):
            trace.append(0)
            trace.append(1)
        stats = block_stats(trace)
        assert dict(stats.histogram) == {2: 3}

    def test_suite_blocks_are_short(self):
        """The structural reason for ILP ~ 2: a control transfer every
        handful of instructions."""
        result = suite.run_benchmark(suite.get("grr"))
        stats = block_stats(result.trace)
        assert 2.0 < stats.mean_block_length < 12.0
        assert 0.05 < stats.branch_frequency < 0.4

    def test_block_length_correlates_with_ilp(self):
        lengths = {}
        ilps = {}
        for name in ("grr", "linpack"):
            result = suite.run_benchmark(suite.get(name))
            lengths[name] = block_stats(result.trace).mean_block_length
            ilps[name] = simulate(
                result.trace, ideal_superscalar(64)
            ).parallelism
        assert lengths["linpack"] > lengths["grr"]
        assert ilps["linpack"] > ilps["grr"]


class TestSweep:
    def test_sweep_rows_shape(self):
        rows = sweep(
            ["whet"], [base_machine(), ideal_superscalar(2)]
        )
        assert len(rows) == 2
        assert {r.machine for r in rows} == {"base", "superscalar-2"}
        base_row = next(r for r in rows if r.machine == "base")
        assert base_row.parallelism == pytest.approx(1.0)

    def test_summarize_renders_table(self):
        rows = sweep(["whet", "grr"], [base_machine()])
        text = summarize(rows)
        assert "whet" in text and "grr" in text
        assert "harmonic mean" in text

    def test_options_and_target_exclusive(self):
        with pytest.raises(ValueError):
            sweep(
                ["whet"], [base_machine()],
                options=CompilerOptions(),
                schedule_for_target=True,
            )

    def test_schedule_for_target(self):
        rows = sweep(
            ["whet"], [ideal_superscalar(4)], schedule_for_target=True
        )
        assert rows[0].parallelism > 1.0


class TestSchedulerHeuristics:
    def test_unknown_heuristic_rejected(self):
        block = BasicBlock("b", [build.nop(), build.nop(), build.nop()])
        with pytest.raises(SchedulingError):
            schedule_block(block, base_machine(), heuristic="magic")

    def test_options_validate_heuristic(self):
        with pytest.raises(ValueError):
            CompilerOptions(sched_heuristic="magic")

    def test_source_order_preserves_order_when_free(self):
        instrs = [
            build.li(virtual(i), i) for i in range(6)
        ]
        block = BasicBlock("b", list(instrs))
        schedule_block(block, base_machine(), heuristic="source-order")
        assert block.instrs == instrs

    def test_critical_path_beats_source_order_on_latency(self):
        """On a latency-heavy machine the critical-path priority must
        not lose to naive source order (harmonic mean over a kernel)."""
        cfg = cray1()
        vals = {}
        for heuristic in ("critical-path", "source-order"):
            opts = suite.default_options(
                suite.get("whet"),
                schedule_for=cfg, sched_heuristic=heuristic,
            )
            result = suite.run_benchmark(suite.get("whet"), opts)
            vals[heuristic] = simulate(result.trace, cfg).parallelism
        assert vals["critical-path"] >= vals["source-order"] - 1e-9
