"""Regenerate Figure 4-4: CRAY-1 issue with unit vs real latencies."""

from repro.analysis import experiments as E

from conftest import run_exhibit


def test_fig4_4(benchmark, results_dir, trace_cache):
    ex = run_exhibit(benchmark, results_dir, E.fig4_4,
                     cache=trace_cache)
    unit = dict(ex.data["unit"])
    real = dict(ex.data["real"])
    # unit latencies mispredict large speedups; real latencies give
    # almost none (the paper's point about ignoring latency)
    assert unit[8] > 1.8
    assert real[8] < 1.3
