"""Ablation benches for the design choices DESIGN.md calls out.

These go beyond the paper's exhibits: each isolates one mechanism of the
system (temporary-register pressure, class conflicts, alias precision,
latency realism on the MultiTitan) and shows its effect on measured ILP.
"""

import pytest

from repro.analysis.stats import harmonic_mean
from repro.analysis.tables import format_table
from repro.benchmarks import suite
from repro.isa.registers import RegisterFileSpec
from repro.machine import (
    ideal_superscalar,
    multititan,
    superscalar_with_class_conflicts,
)
from repro.opt.options import AliasLevel, CompilerOptions
from repro.sim.timing import simulate

from conftest import run_of


def _save(results_dir, name: str, text: str) -> None:
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def test_temporary_register_pressure(benchmark, results_dir, trace_cache):
    """Paper, Section 4.4: "we have only forty temporary registers
    available, which limits the amount of parallelism we can exploit"."""

    def run():
        rows = []
        values = {}
        for n_temp in (6, 16, 40):
            opts = CompilerOptions(
                unroll=10, careful=True,
                regfile=RegisterFileSpec(n_temp=n_temp, n_home=26),
            )
            res = run_of(trace_cache, "linpack", opts)
            ilp = simulate(res.trace, ideal_superscalar(64)).parallelism
            values[n_temp] = ilp
            rows.append([n_temp, ilp])
        return values, format_table(["temporaries", "parallelism"], rows)

    values, table = benchmark.pedantic(run, rounds=1, iterations=1)
    _save(results_dir, "ablation_temp_pressure", table)
    assert values[40] > values[6]


def test_class_conflicts(benchmark, results_dir, trace_cache):
    """Section 2.3.2: not duplicating the memory unit creates class
    conflicts that shrink superscalar gains."""

    def run():
        rows = []
        values = {}
        for n_mem in (1, 2, 4):
            cfg = superscalar_with_class_conflicts(4, n_mem_units=n_mem)
            vals = [
                simulate(run_of(trace_cache, b).trace, cfg).parallelism
                for b in suite.all_benchmarks()
            ]
            values[n_mem] = harmonic_mean(vals)
            rows.append([n_mem, values[n_mem]])
        ideal = harmonic_mean([
            simulate(run_of(trace_cache, b).trace,
                     ideal_superscalar(4)).parallelism
            for b in suite.all_benchmarks()
        ])
        rows.append(["ideal", ideal])
        values["ideal"] = ideal
        return values, format_table(
            ["memory units (of 4-wide)", "harmonic-mean ILP"], rows
        )

    values, table = benchmark.pedantic(run, rounds=1, iterations=1)
    _save(results_dir, "ablation_class_conflicts", table)
    assert values[1] < values[4] <= values["ideal"] + 1e-9


def test_alias_precision(benchmark, results_dir, trace_cache):
    """Scheduler alias analysis: conservative vs object vs affine."""

    def run():
        rows = []
        values = {}
        for level in AliasLevel:
            opts = CompilerOptions(unroll=4, careful=True, alias=level)
            res = run_of(trace_cache, "linpack", opts)
            ilp = simulate(res.trace, ideal_superscalar(64)).parallelism
            values[level] = ilp
            rows.append([level.name.lower(), ilp])
        return values, format_table(["alias level", "parallelism"], rows)

    values, table = benchmark.pedantic(run, rounds=1, iterations=1)
    _save(results_dir, "ablation_alias_precision", table)
    assert values[AliasLevel.AFFINE] > values[AliasLevel.CONSERVATIVE]


def test_multititan_latency_realism(benchmark, results_dir, trace_cache):
    """Fig 4-4 generalized: the slightly superpipelined MultiTitan gains
    more from parallel issue than the CRAY-1, but less than the unit-
    latency fiction suggests."""

    def run():
        rows = []
        values = {}
        for label, factory in (
            ("unit", lambda w: multititan(w).with_unit_latencies()),
            ("real", multititan),
        ):
            base = None
            for width in (1, 2, 4):
                cfg = factory(width)
                vals = []
                for b in suite.all_benchmarks():
                    run_ = run_of(
                        trace_cache, b,
                        suite.default_options(b, schedule_for=cfg),
                    )
                    vals.append(simulate(run_.trace, cfg).parallelism)
                mean = harmonic_mean(vals)
                if base is None:
                    base = mean
                values[(label, width)] = mean / base
                rows.append([label, width, mean / base])
        return values, format_table(
            ["latencies", "issue width", "speedup vs single issue"], rows
        )

    values, table = benchmark.pedantic(run, rounds=1, iterations=1)
    _save(results_dir, "ablation_multititan_latency", table)
    assert values[("unit", 4)] > values[("real", 4)]
    # the MultiTitan (degree 1.7) still benefits somewhat, unlike the
    # CRAY-1 (degree 4.4)
    assert values[("real", 4)] > 1.1


def test_scheduler_heuristic(benchmark, results_dir, trace_cache):
    """List-scheduling priority function: critical path vs source order,
    on the latency-heavy CRAY-1 where priorities matter most."""

    def run():
        from repro.machine import cray1

        cfg = cray1()
        rows = []
        values = {}
        for heuristic in ("source-order", "critical-path"):
            vals = []
            for b in suite.all_benchmarks():
                opts = suite.default_options(
                    b, schedule_for=cfg, sched_heuristic=heuristic
                )
                res = run_of(trace_cache, b, opts)
                vals.append(simulate(res.trace, cfg).parallelism)
            values[heuristic] = harmonic_mean(vals)
            rows.append([heuristic, values[heuristic]])
        return values, format_table(
            ["heuristic", "harmonic-mean instr/cycle (CRAY-1)"], rows
        )

    values, table = benchmark.pedantic(run, rounds=1, iterations=1)
    _save(results_dir, "ablation_sched_heuristic", table)
    assert values["critical-path"] >= values["source-order"] - 1e-9


def test_block_length_structure(benchmark, results_dir, trace_cache):
    """Why the ceiling is ~2: dynamic basic blocks are short."""

    def run():
        from repro.analysis.blockstats import block_stats
        from repro.machine import ideal_superscalar

        rows = []
        data = {}
        for b in suite.all_benchmarks():
            res = run_of(trace_cache, b)
            stats = block_stats(res.trace)
            ilp = simulate(res.trace, ideal_superscalar(64)).parallelism
            data[b.name] = (stats.mean_block_length, ilp)
            rows.append([
                b.name, stats.mean_block_length,
                stats.branch_frequency * 100.0, ilp,
            ])
        return data, format_table(
            ["benchmark", "mean dyn. block length", "branch %",
             "available ILP"], rows,
        )

    data, table = benchmark.pedantic(run, rounds=1, iterations=1)
    _save(results_dir, "ablation_block_length", table)
    assert all(2.0 < length < 14.0 for length, _ in data.values())
