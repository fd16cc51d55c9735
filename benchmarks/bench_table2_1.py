"""Regenerate Table 2-1: average degree of superpipelining."""

import pytest

from repro.analysis import experiments as E

from conftest import run_exhibit


def test_table2_1(benchmark, results_dir, trace_cache):
    ex = run_exhibit(benchmark, results_dir, E.table2_1,
                     cache=trace_cache)
    assert ex.data[("MultiTitan", "paper static mix")] == pytest.approx(1.7)
    assert ex.data[("CRAY-1", "paper static mix")] == pytest.approx(4.4)
