"""Unit tests for the cache cost model and cache simulator."""

import pytest

from repro.isa import build
from repro.isa.registers import virtual
from repro.machine import base_machine, ideal_superscalar
from repro.sim.cache import (
    TABLE_5_1,
    CacheConfig,
    CacheResult,
    parallel_issue_speedup_with_misses,
    simulate_with_cache,
)
from repro.sim.timing import simulate
from repro.sim.trace import Trace


class TestMissCostModel:
    def test_table_5_1_values(self):
        by_name = {row.machine: row for row in TABLE_5_1}
        vax = by_name["VAX 11/780"]
        assert vax.miss_cost_cycles == pytest.approx(6.0)
        assert vax.miss_cost_instructions == pytest.approx(0.6)
        titan = by_name["WRL Titan"]
        assert titan.miss_cost_cycles == pytest.approx(12.0)
        assert titan.miss_cost_instructions == pytest.approx(8.571, abs=1e-3)
        future = by_name["future superscalar"]
        assert future.miss_cost_cycles == pytest.approx(70.0)
        assert future.miss_cost_instructions == pytest.approx(140.0)

    def test_section_5_1_example(self):
        with_misses, without = parallel_issue_speedup_with_misses()
        assert without == pytest.approx(2.0)
        assert with_misses == pytest.approx(4.0 / 3.0)

    def test_cost_rises_down_the_table(self):
        costs = [row.miss_cost_instructions for row in TABLE_5_1]
        assert costs == sorted(costs)


class TestCacheConfig:
    def test_validates_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig(size_words=100, line_words=3)
        with pytest.raises(ValueError):
            CacheConfig(size_words=100, line_words=8)

    def test_line_count(self):
        assert CacheConfig(size_words=64, line_words=4).n_lines == 16


def loads_at(addresses, base_reg=100) -> Trace:
    instrs = [
        build.lw(virtual(i), virtual(base_reg + i), 0)
        for i in range(len(addresses))
    ]
    return Trace.from_instructions(instrs, addrs=list(addresses))


class TestCacheSimulation:
    def test_cold_misses_counted(self):
        cache = CacheConfig(size_words=64, line_words=4, miss_penalty=10)
        trace = loads_at([16, 17, 18, 19])  # one line
        result = simulate_with_cache(trace, base_machine(), cache)
        assert result.loads == 4
        assert result.load_misses == 1

    def test_conflict_misses(self):
        cache = CacheConfig(size_words=16, line_words=4, miss_penalty=10)
        # two addresses mapping to the same line index (16 words apart)
        trace = loads_at([16, 32, 16, 32])
        result = simulate_with_cache(trace, base_machine(), cache)
        assert result.load_misses == 4

    def test_hit_after_fill(self):
        cache = CacheConfig(size_words=64, line_words=4, miss_penalty=10)
        trace = loads_at([20, 20, 20])
        result = simulate_with_cache(trace, base_machine(), cache)
        assert result.load_misses == 1
        assert result.miss_rate == pytest.approx(1 / 3)

    def test_miss_penalty_extends_time(self):
        cache = CacheConfig(size_words=64, line_words=4, miss_penalty=25)
        trace = loads_at([20])
        without = simulate(trace, base_machine())
        with_cache = simulate_with_cache(trace, base_machine(), cache)
        assert with_cache.timing.minor_cycles == (
            without.minor_cycles + 25
        )

    def test_misses_dilute_wide_issue_speedup(self):
        # many independent loads: a 4-wide machine is 4x faster without
        # misses, but much less when every load misses
        cache = CacheConfig(size_words=16, line_words=1, miss_penalty=30)
        addresses = [16 + 64 * i for i in range(32)]  # all conflict
        trace = loads_at(addresses)
        base_nc = simulate(trace, base_machine()).base_cycles
        wide_nc = simulate(trace, ideal_superscalar(4)).base_cycles
        base_c = simulate_with_cache(trace, base_machine(), cache)
        wide_c = simulate_with_cache(trace, ideal_superscalar(4), cache)
        speedup_nc = base_nc / wide_nc
        speedup_c = (
            base_c.timing.base_cycles / wide_c.timing.base_cycles
        )
        assert speedup_nc > 3.0
        assert speedup_c < speedup_nc

    def test_zero_loads(self):
        trace = Trace.from_instructions(
            [build.li(virtual(0), 1)]
        )
        cache = CacheConfig()
        result = simulate_with_cache(trace, base_machine(), cache)
        assert result.loads == 0
        assert result.miss_rate == 0.0

