"""Regenerate Figure 4-6: parallelism vs loop unrolling."""

from repro.analysis import experiments as E

from conftest import run_exhibit


def test_fig4_6(benchmark, results_dir, trace_cache):
    ex = run_exhibit(benchmark, results_dir, E.fig4_6,
                     cache=trace_cache)
    for bench in ("linpack", "livermore"):
        careful = dict(ex.data[f"{bench}.careful"])
        naive = dict(ex.data[f"{bench}.naive"])
        # careful unrolling wins; naive flattens
        assert careful[4] > naive[4]
        assert careful[10] > naive[10]
        assert abs(naive[10] - naive[4]) < 0.4
