"""Trace stream storage: int32 arrays, list compatibility, identity.

A trace's three integer streams (``run_starts``, ``run_lengths``,
``mem_addrs``) are ``array('i')`` buffers.  Lists given to the
constructor, to :meth:`Trace.from_runs` or found in an old pickle are
coerced, so list-era cache entries still load; the fingerprint is the
same either way, so no key moves.
"""

from __future__ import annotations

import pickle
from array import array

import pytest

from repro.benchmarks import suite
from repro.engine.cache import TraceCache
from repro.errors import TraceError
from repro.isa import Opcode, build
from repro.isa.registers import virtual
from repro.machine.presets import resolve
from repro.sim.timing import simulate
from repro.sim.trace import Trace

STREAMS = ("run_starts", "run_lengths", "mem_addrs")


def _whet_run():
    bench = suite.get("whet")
    return suite.run_benchmark(bench, suite.default_options(bench))


def _as_lists(trace: Trace) -> Trace:
    return Trace(
        static=trace.static,
        run_starts=trace.run_starts.tolist(),
        run_lengths=trace.run_lengths.tolist(),
        mem_addrs=trace.mem_addrs.tolist(),
        n=trace.n,
    )


def _list_state(self):
    """``Trace.__getstate__`` as it was when the streams were lists."""
    return (self.static, self.run_starts.tolist(),
            self.run_lengths.tolist(), self.mem_addrs.tolist(), self.n)


class TestStorage:
    def test_interpreter_streams_are_int32_arrays(self):
        trace = _whet_run().trace
        for name in STREAMS:
            stream = getattr(trace, name)
            assert isinstance(stream, array), name
            assert stream.typecode == "i", name
        assert trace.mem_addrs.itemsize == 4

    def test_list_built_trace_equals_array_built(self):
        trace = _whet_run().trace
        listed = _as_lists(trace)
        for name in STREAMS:
            assert isinstance(getattr(listed, name), array), name
        assert listed == trace
        assert listed.fingerprint() == trace.fingerprint()

    def test_from_runs_coerces_lists(self):
        trace = _whet_run().trace
        rebuilt = Trace.from_runs(
            trace.static, trace.run_starts.tolist(),
            trace.run_lengths.tolist(), trace.mem_addrs.tolist(),
        )
        assert isinstance(rebuilt.mem_addrs, array)
        assert rebuilt == trace

    def test_pickle_round_trip_keeps_arrays(self):
        trace = _whet_run().trace
        loaded = pickle.loads(pickle.dumps(trace, protocol=5))
        assert loaded == trace
        assert all(isinstance(getattr(loaded, n), array) for n in STREAMS)
        assert loaded.fingerprint() == trace.fingerprint()


class TestOutOfRange:
    def _static(self):
        return [build.lw(virtual(1), virtual(100), 8),
                build.alui(Opcode.ADDI, virtual(2), virtual(1), 1)]

    def test_append_rejects_address_beyond_int32(self):
        trace = Trace(static=self._static())
        with pytest.raises(TraceError, match="32-bit"):
            trace.append(0, 2**31)
        assert trace.n == 0 and len(trace.mem_addrs) == 0
        trace.append(0, 2**31 - 1)
        assert trace.mem_addrs.tolist() == [2**31 - 1]

    def test_constructor_rejects_value_beyond_int32(self):
        with pytest.raises(TraceError, match="memory address 1099511627776"):
            Trace(static=self._static(), run_starts=[0], run_lengths=[1],
                  mem_addrs=[2**40], n=1)

    def test_from_runs_rejects_value_beyond_int32(self):
        with pytest.raises(TraceError, match="run length"):
            Trace.from_runs(self._static(), [0], [2**32], [16])

    def test_out_of_range_list_pickle_is_a_corrupt_cache_entry(
            self, tmp_path, monkeypatch):
        run = _whet_run()
        cache = TraceCache(str(tmp_path))
        key = "ab" + "3" * 62
        monkeypatch.setattr(
            Trace, "__getstate__",
            lambda self: _list_state(self)[:3] + ([2**40], self.n))
        cache.store(key, run)
        monkeypatch.undo()
        assert cache.load(key) is None
        assert cache.stats.corrupt == 1


class TestNegativeAddress:
    """``validate`` finds a negative address from the items' sign bytes
    and reports the first one, whatever the storage."""

    MESSAGE = "^negative effective address -8$"

    def _trace(self, mem_addrs):
        static = [build.lw(virtual(1), virtual(100), 8),
                  build.alui(Opcode.ADDI, virtual(2), virtual(1), 1)]
        return Trace(static=static, run_starts=[0, 0, 0],
                     run_lengths=[2, 2, 2], mem_addrs=mem_addrs, n=6)

    def test_non_negative_addresses_pass(self):
        # 0x7fffff80 and 0x00ff00ff set the top bit of their low bytes.
        self._trace(array("i", [2**31 - 1, 0x7fffff80, 0x00ff00ff]))\
            .validate()
        self._trace(array("i", [16, 0, 0])).validate()

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("value", [-1, -2**31, -256])
    def test_any_negative_position_and_magnitude(self, position, value):
        addrs = [16, 24, 32]
        addrs[position] = value
        with pytest.raises(TraceError,
                           match=f"^negative effective address {value}$"):
            self._trace(array("i", addrs)).validate()

    def test_array_built_trace_reports_first_negative(self):
        trace = self._trace(array("i", [16, -8, -12]))
        with pytest.raises(TraceError, match=self.MESSAGE):
            trace.validate()

    def test_list_state_pickle_reports_first_negative(self, monkeypatch):
        trace = self._trace([16, 24, 32])
        monkeypatch.setattr(
            Trace, "__getstate__",
            lambda self: _list_state(self)[:3] + ([16, -8, -12], self.n))
        blob = pickle.dumps(trace)
        monkeypatch.undo()
        loaded = pickle.loads(blob)
        assert isinstance(loaded.mem_addrs, array)
        with pytest.raises(TraceError, match=self.MESSAGE):
            loaded.validate()


class TestListEraCacheEntries:
    def test_list_pickle_loads_validates_and_replays_identically(
            self, tmp_path, monkeypatch):
        run = _whet_run()
        cache = TraceCache(str(tmp_path))
        key = "cd" + "4" * 62
        monkeypatch.setattr(Trace, "__getstate__", _list_state)
        cache.store(key, run)
        monkeypatch.undo()
        with open(cache.path_for(key), "rb") as handle:
            assert b"_array_reconstructor" not in handle.read()

        loaded = cache.load(key)
        assert loaded is not None and cache.stats.hits == 1
        trace = loaded.trace
        trace.validate()
        for name in STREAMS:
            assert isinstance(getattr(trace, name), array), name
        assert trace == run.trace
        assert trace.fingerprint() == run.trace.fingerprint()
        for name in ("base", "superscalar:4", "superpipelined:4",
                     "multititan"):
            config = resolve(name)
            ref = simulate(run.trace, config, observe=True, memoize=False)
            got = simulate(trace, config, observe=True)
            assert got.minor_cycles == ref.minor_cycles, name
            assert got.stalls == ref.stalls, name

    def test_array_pickle_carries_raw_buffers(self, tmp_path):
        run = _whet_run()
        cache = TraceCache(str(tmp_path))
        key = "ef" + "5" * 62
        cache.store(key, run)
        with open(cache.path_for(key), "rb") as handle:
            assert b"_array_reconstructor" in handle.read()
        assert cache.load(key).trace == run.trace

