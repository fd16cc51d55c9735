"""Regenerate Figure 4-5: instruction-level parallelism by benchmark."""

from repro.analysis import experiments as E

from conftest import run_exhibit


def test_fig4_5(benchmark, results_dir, trace_cache):
    ex = run_exhibit(benchmark, results_dir, E.fig4_5,
                     cache=trace_cache)
    finals = {name: pts[-1][1] for name, pts in ex.data.items()}
    assert max(finals, key=finals.get) in ("linpack", "livermore")
    assert all(1.3 < v < 4.0 for v in finals.values())
    # the paper's factor-of-two spread under a low ceiling
    assert 1.3 < max(finals.values()) / min(finals.values()) < 2.5
