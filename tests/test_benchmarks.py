"""Integration tests: the eight-benchmark suite end to end.

Every benchmark's checksum must match its pure-Python reference at every
optimization level and under unrolling — this exercises the entire
compiler, allocator, scheduler and simulator against real programs.
"""

import pytest

from repro.benchmarks import suite
from repro.isa.registers import RegisterFileSpec
from repro.machine import base_machine, ideal_superscalar
from repro.opt.options import CompilerOptions, OptLevel
from repro.sim.timing import simulate

NAMES = ["ccom", "grr", "linpack", "livermore", "met", "stanford", "whet",
         "yacc"]


def test_suite_has_the_papers_eight_benchmarks():
    assert [b.name for b in suite.all_benchmarks()] == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_reference_is_deterministic(name):
    bench = suite.get(name)
    assert bench.reference() == bench.reference()


@pytest.mark.parametrize("name", NAMES)
def test_checksum_at_every_opt_level(name, opt_level):
    bench = suite.get(name)
    expected = bench.reference()
    result = suite.run_benchmark(
        bench, CompilerOptions(opt_level=opt_level)
    )
    assert abs(result.value - expected) <= bench.fp_tolerance


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("careful", [False, True])
def test_checksum_under_unrolling(name, careful):
    bench = suite.get(name)
    expected = bench.reference()
    opts = CompilerOptions(
        unroll=4, careful=careful,
        regfile=RegisterFileSpec(n_temp=40, n_home=26),
    )
    result = suite.run_benchmark(bench, opts)
    assert abs(result.value - expected) <= bench.fp_tolerance


@pytest.mark.parametrize("name", NAMES)
def test_default_options_match_reference(name):
    bench = suite.get(name)
    result = suite.run_benchmark(bench)
    assert abs(result.value - bench.reference()) <= bench.fp_tolerance


@pytest.mark.parametrize("name", NAMES)
def test_parallelism_in_plausible_band(name):
    """The paper's central result: available ILP sits in a low band
    (roughly 1.6 to 3.2 across benchmarks)."""
    result = suite.run_benchmark(suite.get(name))
    ilp = simulate(result.trace, ideal_superscalar(64)).parallelism
    assert 1.3 <= ilp <= 4.0


def test_linpack_is_most_parallel_and_cluster_is_low():
    values = {}
    for name in NAMES:
        result = suite.run_benchmark(suite.get(name))
        values[name] = simulate(
            result.trace, ideal_superscalar(64)
        ).parallelism
    assert max(values, key=values.get) in ("linpack", "livermore")
    # "there is a factor of two difference ... but the ceiling is still
    # quite low"
    assert max(values.values()) / min(values.values()) < 2.5


def test_base_machine_parallelism_exactly_one():
    result = suite.run_benchmark(suite.get("whet"))
    timing = simulate(result.trace, base_machine())
    assert timing.parallelism == pytest.approx(1.0)


def test_measure_helper():
    timing = suite.measure("whet", ideal_superscalar(2))
    assert 1.0 < timing.parallelism <= 2.0


def test_default_overrides_applied():
    linpack = suite.get("linpack")
    opts = suite.default_options(linpack)
    assert opts.unroll == 4 and opts.careful
    over = suite.default_options(linpack, unroll=2)
    assert over.unroll == 2
