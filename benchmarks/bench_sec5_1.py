"""Regenerate the Section 5.1 cache-dilution example (plus measured)."""

import pytest

from repro.analysis import experiments as E

from conftest import run_exhibit


def test_sec5_1(benchmark, results_dir, trace_cache):
    ex = run_exhibit(benchmark, results_dir, E.sec5_1,
                     cache=trace_cache)
    without, with_misses = ex.data["example"]
    assert without == pytest.approx(2.0)
    assert with_misses == pytest.approx(4 / 3)
    measured_nc, measured_c = ex.data["measured"]
    assert measured_c < measured_nc
