"""Extension benches: the model assumptions the paper cites but holds
fixed — branch prediction, run-time reordering, instruction caching."""

from repro.analysis.stats import harmonic_mean
from repro.analysis.tables import format_table
from repro.benchmarks import suite
from repro.isa.registers import RegisterFileSpec
from repro.machine import ideal_superscalar
from repro.opt.options import CompilerOptions
from repro.sim.cache import CacheConfig, simulate_with_icache
from repro.sim.limits import dataflow_limit, simulate_out_of_order
from repro.sim.timing import simulate

from conftest import run_of


def _save(results_dir, name: str, text: str) -> None:
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def test_branch_prediction_assumption(benchmark, results_dir, trace_cache):
    """Perfect prediction (the paper's model) vs stalling on branches
    (Riseman & Foster's inhibition)."""

    def run():
        cfg = ideal_superscalar(8)
        rows = []
        perfect, stalled = [], []
        for bench in suite.all_benchmarks():
            trace = run_of(trace_cache, bench).trace
            p = simulate(trace, cfg).parallelism
            s = simulate(trace, cfg.with_branch_policy("stall")).parallelism
            perfect.append(p)
            stalled.append(s)
            rows.append([bench.name, p, s, (p - s) / p * 100.0])
        rows.append(["harmonic mean", harmonic_mean(perfect),
                     harmonic_mean(stalled), 0.0])
        return (harmonic_mean(perfect), harmonic_mean(stalled)), format_table(
            ["benchmark", "perfect prediction", "branch stall", "loss %"],
            rows,
        )

    (p, s), table = benchmark.pedantic(run, rounds=1, iterations=1)
    _save(results_dir, "limits_branch_prediction", table)
    assert s < p


def test_out_of_order_window(benchmark, results_dir, trace_cache):
    """In-order + compile-time scheduling vs run-time reordering with
    renaming and perfect memory disambiguation (cf. Wall 1991)."""

    def run():
        cfg = ideal_superscalar(8)
        rows = []
        values = {}
        traces = {
            b.name: run_of(trace_cache, b).trace
            for b in suite.all_benchmarks()
        }
        inorder = harmonic_mean(
            simulate(t, cfg).parallelism for t in traces.values()
        )
        rows.append(["in-order + scheduling", inorder])
        values["inorder"] = inorder
        for window in (4, 16, 64):
            mean = harmonic_mean(
                simulate_out_of_order(t, cfg, window).parallelism
                for t in traces.values()
            )
            rows.append([f"out-of-order, window {window}", mean])
            values[window] = mean
        oracle = harmonic_mean(
            dataflow_limit(t).parallelism for t in traces.values()
        )
        rows.append(["dataflow limit (oracle)", oracle])
        values["oracle"] = oracle
        return values, format_table(
            ["issue model", "harmonic-mean ILP (8-wide)"], rows
        )

    values, table = benchmark.pedantic(run, rounds=1, iterations=1)
    _save(results_dir, "limits_out_of_order", table)
    assert values[4] <= values[16] <= values[64]
    assert values[64] > values["inorder"]
    assert values["oracle"] >= values[64]


def test_icache_vs_unrolling(benchmark, results_dir, trace_cache):
    """Section 4.4's caveat: limited instruction caches make large
    unrolling degrees decline."""

    def run():
        cache = CacheConfig(size_words=256, line_words=4, miss_penalty=20)
        cfg = ideal_superscalar(8)
        rows = []
        values = {}
        for factor in (1, 2, 4, 10):
            opts = CompilerOptions(
                unroll=factor, careful=True,
                regfile=RegisterFileSpec(n_temp=40, n_home=26),
            )
            result = run_of(trace_cache, "linpack", opts)
            ideal = simulate(result.trace, cfg).parallelism
            cached = simulate_with_icache(result.trace, cfg, cache)
            real = result.instructions / cached.timing.base_cycles
            values[factor] = (ideal, real, cached.miss_rate)
            rows.append([factor, ideal, real, cached.miss_rate * 100.0])
        return values, format_table(
            ["unroll", "ILP (no icache)", "ILP (256w icache)",
             "fetch miss %"], rows,
        )

    values, table = benchmark.pedantic(run, rounds=1, iterations=1)
    _save(results_dir, "limits_icache_unrolling", table)
    # the icache gap widens as the code grows
    gap1 = values[1][0] - values[1][1]
    gap10 = values[10][0] - values[10][1]
    assert gap10 > gap1
