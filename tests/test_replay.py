"""Tests for the block-memoized replay core (:mod:`repro.sim.replay`).

The central guarantee: memoized replay is *bit-identical* to forced
direct per-instruction replay — minor cycles, parallelism, full stall
breakdowns, and per-event issue schedules — on every machine shape
(ideal wide issue, superpipelined, branch-stall, functional-unit
conflicts).  Hypothesis drives that over random Tin programs; the rest
of the file pins the plan builder's invariants, the memo statistics
conservation law, and the blacklist fall-back.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings

from repro.benchmarks import suite
from repro.machine.presets import (
    ideal_superscalar,
    paper_machines,
    superscalar_with_class_conflicts,
)
from repro.opt.driver import compile_source
from repro.sim import replay as replay_mod
from repro.sim.interp import run as interp_run
from repro.sim.memo import MemoStore, replay_with_memo
from repro.sim.replay import ReplayCore, build_plan, plan_for
from repro.sim.timing import issue_schedule, simulate
from tests.test_fuzz_differential import _block, _program


def _edge_machines():
    """Machine shapes that stress every key component: the paper's
    seven, a branch-stall variant, and a unit-conflict variant."""
    machines = paper_machines()
    machines.append(replace(ideal_superscalar(2),
                            name="superscalar-2/br-stall",
                            branch_policy="stall"))
    machines.append(superscalar_with_class_conflicts(4))
    return machines


def _trace_for(source: str):
    program = compile_source(source, suite.default_options(suite.get("whet")))
    return interp_run(program).trace


def _assert_identical(trace, config):
    """Every replay mode equals the direct per-instruction replay: the
    memoized first run, the steady-state rerun on populated memo tables
    (the vectorized kernel under NumPy), and a fresh core adopting its
    memo from the persistent store."""
    memo = simulate(trace, config, observe=True)
    direct = simulate(trace, config, observe=True, memoize=False)
    label = f"{config.name}"
    assert memo.minor_cycles == direct.minor_cycles, label
    assert memo.base_cycles == direct.base_cycles, label
    assert memo.parallelism == direct.parallelism, label
    assert memo.stalls == direct.stalls, label
    assert (issue_schedule(trace, config)
            == issue_schedule(trace, config, memoize=False)), label
    core = ReplayCore(trace, config, observe=True)
    core.run()
    steady = core.run()
    with tempfile.TemporaryDirectory() as root:
        store = MemoStore(os.path.join(root, "memo"))
        replay_with_memo(store, trace, config, observe=True)
        adopted = replay_with_memo(store, trace, config, observe=True)
    assert adopted.stats.memo_persisted_hits, label
    for mode, got in (("steady-state", steady), ("adopted", adopted)):
        assert got.minor_cycles == direct.minor_cycles, (label, mode)
        assert got.stalls == direct.stalls, (label, mode)


class TestMemoizedEqualsDirect:
    """Bit-identity of the memoized path, randomized and pinned."""

    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow,
                               HealthCheck.data_too_large],
    )
    @given(body=_block(2, 0))
    def test_random_programs_all_machines(self, body):
        trace = _trace_for(_program(body))
        for config in _edge_machines():
            _assert_identical(trace, config)

    @pytest.mark.parametrize("bench_name",
                             ["whet", "livermore", "linpack", "stanford"])
    def test_real_benchmarks_all_machines(self, bench_name):
        bench = suite.get(bench_name)
        trace = suite.run_benchmark(
            bench, suite.default_options(bench)
        ).trace
        for config in _edge_machines():
            _assert_identical(trace, config)


class TestIssueSchedule:
    """The per-event schedule agrees with the cycle counts."""

    @pytest.mark.parametrize("bench_name", ["whet", "linpack"])
    def test_schedule_reconstructs_minor_cycles(self, bench_name):
        bench = suite.get(bench_name)
        trace = suite.run_benchmark(
            bench, suite.default_options(bench)
        ).trace
        for config in _edge_machines():
            times = issue_schedule(trace, config)
            timing = simulate(trace, config)
            assert len(times) == len(trace)
            assert all(a <= b for a, b in zip(times, times[1:])), \
                "in-order issue must yield non-decreasing issue times"
            completion = max(
                t + config.latencies[ins.op.klass]
                for t, ins in zip(times, trace.instructions())
            )
            assert completion == timing.minor_cycles


class TestPlan:
    def test_plan_is_deterministic(self):
        bench = suite.get("whet")
        trace = suite.run_benchmark(
            bench, suite.default_options(bench)
        ).trace
        a = build_plan(trace)
        b = build_plan(trace)
        assert a.schedule == b.schedule
        assert [blk.segments for blk in a.blocks] \
            == [blk.segments for blk in b.blocks]

    def test_plan_covers_trace_exactly(self):
        bench = suite.get("livermore")
        trace = suite.run_benchmark(
            bench, suite.default_options(bench)
        ).trace
        plan = plan_for(trace)
        blocks = plan.blocks
        assert sum(blocks[bid].n_instrs for bid in plan.schedule) \
            == len(trace)
        assert sum(blocks[bid].n_mem for bid in plan.schedule) \
            == len(trace.mem_addrs)
        # Flattening the scheduled segments reproduces the executed
        # static indices event for event.
        flat: list[int] = []
        for bid in plan.schedule:
            for start, length in blocks[bid].segments:
                flat.extend(range(start, start + length))
        assert flat == trace.ops

    def test_plan_is_cached_on_the_trace(self):
        bench = suite.get("whet")
        trace = suite.run_benchmark(
            bench, suite.default_options(bench)
        ).trace
        assert plan_for(trace) is plan_for(trace)


class TestReplayStats:
    def test_conservation_and_hits(self):
        bench = suite.get("whet")
        trace = suite.run_benchmark(
            bench, suite.default_options(bench)
        ).trace
        for config in _edge_machines():
            stats = simulate(trace, config).replay
            assert stats is not None
            assert stats.memo_instructions + stats.direct_instructions \
                == len(trace)
            assert stats.blocks == len(plan_for(trace).schedule)
            # Loop-dominated benchmark: the memo must carry most of it.
            assert stats.memo_instructions > len(trace) // 2

    def test_direct_mode_reports_no_memo_activity(self):
        bench = suite.get("whet")
        trace = suite.run_benchmark(
            bench, suite.default_options(bench)
        ).trace
        stats = simulate(trace, paper_machines()[0], memoize=False).replay
        assert stats.memo_hits == 0
        assert stats.memo_misses == 0
        assert stats.memo_instructions == 0
        assert stats.direct_instructions == len(trace)


class TestBlacklist:
    def test_blacklisted_blocks_stay_bit_identical(self, monkeypatch):
        """With an immediate blacklist every block falls back to direct
        replay after one miss — results must not change at all."""
        monkeypatch.setattr(replay_mod, "_BLACKLIST_MISSES", 1)
        bench = suite.get("whet")
        trace = suite.run_benchmark(
            bench, suite.default_options(bench)
        ).trace
        config = paper_machines()[2]
        memo = simulate(trace, config, observe=True)
        direct = simulate(trace, config, observe=True, memoize=False)
        assert memo.minor_cycles == direct.minor_cycles
        assert memo.stalls == direct.stalls
        # Every eligible block missed once and was then dropped.
        assert memo.replay.memo_hits == 0
        assert memo.replay.direct_instructions == len(trace)

    def test_blacklist_flag_is_set(self, monkeypatch):
        monkeypatch.setattr(replay_mod, "_BLACKLIST_MISSES", 1)
        bench = suite.get("whet")
        trace = suite.run_benchmark(
            bench, suite.default_options(bench)
        ).trace
        core = ReplayCore(trace, paper_machines()[0])
        core.run()
        assert any(block.eligible and table is None for block, table
                   in zip(core.plan.blocks, core._tables)), \
            "an eligible block should have been blacklisted"
