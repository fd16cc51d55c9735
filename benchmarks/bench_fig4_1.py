"""Regenerate Figure 4-1: supersymmetry (superscalar vs superpipelined)."""

from repro.analysis import experiments as E

from conftest import run_exhibit


def test_fig4_1(benchmark, results_dir, trace_cache):
    ex = run_exhibit(benchmark, results_dir, E.fig4_1,
                     cache=trace_cache)
    ss = dict(ex.data["superscalar"])
    sp = dict(ex.data["superpipelined"])
    for degree in range(2, 9):
        assert sp[degree] < ss[degree]          # startup transient
        assert (ss[degree] - sp[degree]) / ss[degree] < 0.25
