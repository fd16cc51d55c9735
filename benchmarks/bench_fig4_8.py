"""Regenerate Figure 4-8: effect of optimization level on parallelism."""

from repro.analysis import experiments as E

from conftest import run_exhibit


def test_fig4_8(benchmark, results_dir, trace_cache):
    ex = run_exhibit(benchmark, results_dir, E.fig4_8,
                     cache=trace_cache)
    # pipeline scheduling is the one optimization that reliably raises
    # the available parallelism
    gains = [dict(p)[1] / dict(p)[0] for p in ex.data.values()]
    assert sum(1 for g in gains if g > 1.02) >= 4
    assert all(g > 0.95 for g in gains)
