"""Tests for the vectorized replay kernel and the persistent memo store.

Three guarantees, layered:

* **Bit-identity** — the vectorized structure-of-arrays kernel
  (:mod:`repro.sim.replay_vec`, NumPy backend) and the persistent-memo
  warm-start path (:mod:`repro.sim.memo`) produce exactly the results
  of the scalar memoized loop and of forced direct per-instruction
  replay: minor cycles, stall breakdowns, and issue schedules.
  Hypothesis drives this over random Tin programs on every edge
  machine shape.
* **Persistence hygiene** — memo payloads round-trip through the
  on-disk store (a cold handle starts fully warm with zero misses),
  and corrupt or stale entries are dropped and rewritten, never
  trusted and never fatal.
* **Degradation** — with NumPy unavailable (``REPRO_NO_NUMPY=1``) the
  pure-stdlib scalar backend is selected and produces the same cycle
  counts, checked in a subprocess.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings

from repro.benchmarks import suite
from repro.engine.cache import TraceCache
from repro.engine.executor import execute
from repro.engine.plan import plan_sweep
from repro.machine.presets import (
    paper_machines,
    resolve,
    superscalar_with_class_conflicts,
)
from repro.obs.schema import check_replay
from repro.sim import replay as replay_mod
from repro.sim.memo import (
    MemoStore,
    NULL_MEMO_STORE,
    memo_key,
    open_memo_store,
    replay_with_memo,
)
from repro.sim.replay import ReplayCore
from repro.sim.timing import simulate
from tests.test_fuzz_differential import _block, _program
from tests.test_replay import _edge_machines, _trace_for

requires_numpy = pytest.mark.skipif(
    replay_mod.BACKEND != "numpy",
    reason="vectorized kernel needs the NumPy backend",
)


def _whet_trace():
    bench = suite.get("whet")
    return suite.run_benchmark(bench, suite.default_options(bench)).trace


class TestVectorizedEqualsScalar:
    """The kernel's verify-and-advance path never changes results."""

    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.too_slow,
                               HealthCheck.data_too_large],
    )
    @given(body=_block(2, 0))
    def test_random_programs_all_machines(self, body):
        trace = _trace_for(_program(body))
        for config in _edge_machines():
            ref = simulate(trace, config, observe=True, memoize=False)
            core = ReplayCore(trace, config, observe=True)
            first = core.run()      # resolves (scalar)
            steady = core.run()     # vectorized under the NumPy backend
            label = config.name
            assert first.minor_cycles == ref.minor_cycles, label
            assert steady.minor_cycles == ref.minor_cycles, label
            assert first.stalls == ref.stalls, label
            assert steady.stalls == ref.stalls, label
            stats = steady.stats
            assert (stats.vectorized_blocks + stats.scalar_fallback_blocks
                    <= stats.blocks), label

    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.too_slow,
                               HealthCheck.data_too_large],
    )
    @given(body=_block(2, 0))
    def test_issue_schedules_match(self, body):
        trace = _trace_for(_program(body))
        for config in _edge_machines():
            core = ReplayCore(trace, config, want_times=True)
            ref = ReplayCore(trace, config, want_times=True).run(
                memoize=False)
            core.run()
            steady = core.run()
            assert steady.times == ref.times, config.name

    @requires_numpy
    def test_real_benchmark_fully_vectorized(self):
        """On a real trace the steady-state rerun goes entirely through
        the kernel — no scalar fallback."""
        trace = _whet_trace()
        for config in _edge_machines():
            core = ReplayCore(trace, config, observe=True)
            core.run()
            steady = core.run()
            stats = steady.stats
            assert stats.vectorized_blocks == stats.blocks, config.name
            assert stats.scalar_fallback_blocks == 0, config.name

    @requires_numpy
    def test_tampered_resolution_falls_back_to_scalar(self):
        """A recorded schedule that no longer verifies is re-resolved
        on the scalar path — bit-identically, with the fallback
        counted."""
        trace = _whet_trace()
        config = resolve("superscalar:4")
        ref = simulate(trace, config, observe=True, memoize=False)
        core = ReplayCore(trace, config, observe=True)
        core.run()
        # Corrupt one recorded memo key's issue-count component so
        # verification of the recorded schedule cannot succeed.
        rid = int(core._rec_ids[0])
        bid, key, entry, kind = core._records[rid]
        core._records[rid] = (bid, (key[0] + 1,) + key[1:], entry, kind)
        core._vec = None
        out = core.run()
        assert out.minor_cycles == ref.minor_cycles
        assert out.stalls == ref.stalls
        assert out.stats.scalar_fallback_blocks == out.stats.blocks
        assert out.stats.vectorized_blocks == 0
        # ... and the re-resolution repaired the schedule for good.
        repaired = core.run()
        assert repaired.minor_cycles == ref.minor_cycles
        assert repaired.stats.vectorized_blocks == repaired.stats.blocks


def _reference_core_vec(core, pv, adopted=False):
    """The per-event flatten the gather replaced, kept as its oracle:
    one Python step per schedule event, from the tuple records of the
    resolving ``core`` to arrays.  With ``adopted``, every memo hit is a
    persisted one."""
    vec = replay_mod._replay_vec
    np = vec.np
    neg = vec._NEG
    blocks, schedule = core.plan.blocks, core.plan.schedule
    tables = core._tables
    n = pv.n_events
    cv = vec.CoreVec()
    names = ("d_cyc", "entry_count", "exit_count", "d_floor", "floor_key",
             "d_fin")
    scalars = {name: np.empty(n, dtype=np.int64) for name in names}
    regs_exp, up_ev, up_src, up_slot, units_exp, units_out = \
        [], [], [], [], [], []
    regs_out = np.full(pv.n_reg_slots + 1, neg, dtype=np.int64)
    stores_out = np.full(pv.n_store_slots + 1, neg, dtype=np.int64)
    ext_exp = np.zeros(pv.mp_g.size, dtype=np.int64)
    last_use, unit_ids, merged = {}, {}, {}
    times = [] if core.want_times else None
    hits = fallbacks = memo_instr = direct_instr = persisted = 0
    for p, rid in enumerate(core._rec_ids.tolist()):
        bid, key, entry, kind = core._records[rid]
        assert bid == schedule[p]
        block = blocks[bid]
        (d_cyc, exit_count, d_floor, r_out, s_out, u_out, d_fin, charges,
         time_deltas) = entry
        for name, value in zip(names, (d_cyc, key[0], exit_count, d_floor,
                                       key[1], d_fin)):
            scalars[name][p] = value
        assert len(key[2]) == len(block.live_ins)
        regs_exp.extend(key[2])
        for k, (_, dv) in enumerate(r_out):
            regs_out[pv.do_off[p] + k] = dv
        for j, dv in s_out:
            stores_out[pv.so_off[p] + block.store_sel.index(j)] = dv
        for j, dv in key[5]:
            ext_exp[np.searchsorted(pv.mp_g, pv.ev_mem_start[p] + j)] = dv
        if core._has_units:
            for s, exp, out in zip(core._block_units(bid), key[3], u_out):
                gi = unit_ids.setdefault(id(s), len(unit_ids))
                src = last_use.get(gi)
                slot = len(units_out)
                for c in range(len(s.free)):
                    up_ev.append(p)
                    up_src.append(src[0] if src else 0)
                    up_slot.append(src[1] + c if src else -1)
                units_exp.extend(exp)
                units_out.extend(out)
                last_use[gi] = (p, slot)
        for kl, ci, cyc in charges or ():
            merged[(kl, ci)] = merged.get((kl, ci), 0) + cyc
        if times is not None:
            times.extend(time_deltas)
        if tables[bid] is None:
            direct_instr += block.n_instrs
        elif kind:
            fallbacks += 1
            direct_instr += block.n_instrs
        else:
            hits += 1
            memo_instr += block.n_instrs
            persisted += adopted
    for name in names:
        setattr(cv, name, scalars[name])
    cv.regs_exp = np.asarray(regs_exp, dtype=np.int64)
    cv.regs_out, cv.stores_out, cv.ext_exp = regs_out, stores_out, ext_exp
    cv.up_ev = cv.up_src = cv.up_slot = cv.units_exp = cv.units_out = None
    if up_ev:
        cv.up_ev, cv.up_src = np.asarray(up_ev), np.asarray(up_src)
        cv.up_slot = np.asarray(
            [s if s >= 0 else len(units_out) for s in up_slot])
        cv.units_exp = np.asarray(units_exp)
        cv.units_out = np.asarray(units_out + [neg])
    cv.memo_hits, cv.fallbacks, cv.persisted_hits = hits, fallbacks, persisted
    cv.memo_instructions, cv.direct_instructions = memo_instr, direct_instr
    cv.charges = ([(kl, ci, cyc) for (kl, ci), cyc in merged.items()]
                  if core.observe else None)
    cv.times_flat = np.asarray(times) if times is not None else None
    return cv


def _assert_gather_matches_reference(core, resolver=None):
    """``core``'s gathered CoreVec equals the per-event reference built
    from ``resolver``'s records (``core`` itself when it resolved)."""
    pv = core._plan_vec()
    got = replay_mod._replay_vec.build_core_vec(core, pv)
    want = _reference_core_vec(resolver or core, pv,
                               adopted=resolver is not None)
    assert got is not None
    for name in type(want).__slots__:
        mine, ref = getattr(got, name), getattr(want, name)
        if ref is None or not hasattr(ref, "shape"):
            assert mine == ref, name
        else:
            assert replay_mod._replay_vec.np.array_equal(mine, ref), name


@requires_numpy
class TestGatherEqualsReference:
    """build_core_vec's NumPy gather over record ids builds exactly the
    arrays a per-event walk of the records does."""

    @pytest.mark.parametrize("name", [b.name for b in
                                      suite.all_benchmarks()])
    def test_real_benchmarks_on_the_paper_grid(self, name):
        """The seven paper machines, plus one with unit conflicts."""
        bench = suite.get(name)
        trace = suite.run_benchmark(bench, suite.default_options(bench)).trace
        for config in paper_machines() + [
                superscalar_with_class_conflicts(4)]:
            core = ReplayCore(trace, config)
            core.run()
            _assert_gather_matches_reference(core)

    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.too_slow,
                               HealthCheck.data_too_large],
    )
    @given(body=_block(2, 0))
    def test_random_programs_in_every_mode(self, body):
        trace = _trace_for(_program(body))
        for config in _edge_machines():
            for mode in ({}, {"observe": True}, {"want_times": True}):
                core = ReplayCore(trace, config, **mode)
                core.run()
                if core.plan.vec.n_events:
                    _assert_gather_matches_reference(core)

    def test_adopted_records_count_persisted_hits(self):
        trace = _whet_trace()
        config = resolve("multititan")
        first = ReplayCore(trace, config, observe=True)
        first.run()
        core = ReplayCore(trace, config, observe=True)
        assert core.adopt_memo(pickle.loads(pickle.dumps(
            first.export_memo())))
        assert core._records is None
        _assert_gather_matches_reference(core, resolver=first)

    def test_plan_arrays_round_trip(self):
        vec = replay_mod._replay_vec
        trace = _whet_trace()
        # The suite-cached trace may carry a plan whose arrays an
        # earlier test adopted from a payload; build them here.
        trace._plan = None
        plan = replay_mod.plan_for(trace)
        built = ReplayCore(trace, resolve("base"))._plan_vec()
        payload = pickle.loads(pickle.dumps(vec.plan_vec_payload(plan)))
        adopted = replay_mod.build_plan(trace, payload)
        assert adopted.loaded and not plan.loaded
        assert adopted.schedule == plan.schedule
        assert [(b.segments, b.n_instrs, b.n_mem, b.count, b.eligible)
                for b in adopted.blocks] == [
            (b.segments, b.n_instrs, b.n_mem, b.count, b.eligible)
            for b in plan.blocks]
        loaded = replay_mod.plan_vec_for(adopted, trace, payload)
        assert loaded.loaded and not built.loaded
        for name in vec.PlanVec.__slots__:
            mine, ref = getattr(loaded, name), getattr(built, name)
            if hasattr(ref, "shape"):
                assert ref.dtype == mine.dtype, name
                assert vec.np.array_equal(mine, ref), name
            elif name != "loaded":
                assert mine == ref, name


@requires_numpy
class TestFlatPayload:
    """The NumPy memo payload is flat arrays, and adopting it replays
    exactly what the per-instruction reference does."""

    @pytest.mark.parametrize("mode", ["observe", "want_times"])
    def test_pickled_payload_adopts_bit_identically(self, mode):
        np = replay_mod._replay_vec.np
        trace = _whet_trace()
        config = resolve("multititan")  # functional-unit conflicts
        first = ReplayCore(trace, config, **{mode: True})
        first.run()
        payload = first.export_memo()
        header = {"format", "key_format", "mode"}
        for name, value in payload.items():
            if name in header:
                continue
            if name == "charges" and mode == "observe":
                assert isinstance(value, list)
                assert all(c is None or all(len(t) == 3 for t in c)
                           for c in value)
            elif name == "charges":
                assert value is None
            else:
                assert isinstance(value, np.ndarray), name
        core = ReplayCore(trace, config, **{mode: True})
        assert core.adopt_memo(pickle.loads(pickle.dumps(
            payload, protocol=pickle.HIGHEST_PROTOCOL)))
        out = core.run()
        ref = ReplayCore(trace, config, **{mode: True}).run(memoize=False)
        assert (out.minor_cycles, out.final_issue, out.stalls,
                out.times) == (ref.minor_cycles, ref.final_issue,
                               ref.stalls, ref.times)
        assert out.stats.vectorized_blocks == out.stats.blocks
        assert out.stats.memo_persisted_hits == out.stats.memo_hits > 0


class TestMemoPersistence:
    """Round-trip, hygiene, and accounting of the on-disk memo store."""

    def test_round_trip_is_bit_identical_and_warm(self, tmp_path):
        trace = _whet_trace()
        config = resolve("superscalar:4")
        ref = simulate(trace, config, observe=True, memoize=False)
        first_store = MemoStore(str(tmp_path / "memo"))
        warmup = replay_with_memo(first_store, trace, config, observe=True)
        assert warmup.minor_cycles == ref.minor_cycles
        assert first_store.stats.misses == 1
        assert first_store.stats.stores >= 1

        store = MemoStore(str(tmp_path / "memo"))
        out = replay_with_memo(store, trace, config, observe=True)
        assert out.minor_cycles == ref.minor_cycles
        assert out.stalls == ref.stalls
        assert store.stats.hits == 1
        assert store.stats.misses == 0
        assert out.stats.memo_misses == 0
        assert out.stats.memo_persisted_hits > 0
        assert (out.stats.memo_persisted_hits
                <= out.stats.memo_hits)
        # Steady state: nothing new was learned, nothing is rewritten.
        assert store.stats.stores == 0
        if replay_mod.BACKEND == "numpy":
            assert out.stats.vectorized_blocks == out.stats.blocks

    @pytest.mark.skipif(replay_mod.BACKEND != "scalar",
                        reason="only scalar payloads carry memo tables")
    def test_entries_learned_after_adoption_are_not_persisted(self):
        """Hits on table entries a core learned itself after adopting a
        payload are live hits, not persisted ones."""
        trace = _whet_trace()
        config = resolve("superscalar:4")
        core = ReplayCore(trace, config)
        # Tables adopted before any run are empty: every entry is
        # learned live, however often it then hits.
        assert core.adopt_memo(ReplayCore(trace, config).export_memo())
        out = core.run()
        assert out.stats.memo_misses > 0 and out.stats.memo_hits > 0
        assert out.stats.memo_persisted_hits == 0

    def test_stale_payload_is_rejected_not_trusted(self, tmp_path):
        """A structurally valid file whose payload fails deep
        validation (here: recorded for the wrong replay mode) is
        reclassified hit -> corrupt and replaced."""
        trace = _whet_trace()
        config = resolve("base")
        ref = simulate(trace, config, memoize=False)
        prime = MemoStore(str(tmp_path / "memo"))
        replay_with_memo(prime, trace, config)
        key = memo_key(trace, config)
        payload = prime.load(key)
        payload["mode"] = (not payload["mode"][0], payload["mode"][1])
        prime.store(key, payload)

        store = MemoStore(str(tmp_path / "memo"))
        out = replay_with_memo(store, trace, config)
        assert out.minor_cycles == ref.minor_cycles
        assert store.stats.corrupt == 1
        assert store.stats.hits == 0
        assert store.stats.stores == 1

    def test_fresh_process_replay_matches_in_process_adoption(
            self, tmp_path):
        """A new process (its own hash seed, no plan)
        replaying from a primed store reports exactly what an in-process
        replay adopting the same entries does — every ReplayStats field,
        persisted hits included — and touches nothing."""
        trace = _whet_trace()
        specs = ["base", "superscalar:4", "multititan"]
        root = str(tmp_path / "memo")
        trace._plan = None
        for spec in specs:
            replay_with_memo(MemoStore(root), trace, resolve(spec),
                             observe=True)
        trace._plan = None
        local = {}
        for spec in specs:
            store = MemoStore(root)
            out = replay_with_memo(store, trace, resolve(spec),
                                   observe=True)
            local[spec] = [out.minor_cycles, out.stalls.as_dict(),
                           out.stats.as_dict(), store.stats.as_dict()]
        env = dict(os.environ)
        env.pop("PYTHONHASHSEED", None)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _FRESH_SNIPPET, root, *specs],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        fresh = json.loads(proc.stdout.splitlines()[-1])
        for spec in specs:
            assert fresh[spec] == json.loads(json.dumps(local[spec])), spec
            stats, store = fresh[spec][2], fresh[spec][3]
            assert stats["memo_misses"] == 0
            assert stats["memo_persisted_hits"] == stats["memo_hits"] > 0
            if replay_mod.BACKEND == "numpy":
                assert stats["vectorized_blocks"] == stats["blocks"]
            assert store["misses"] == store["corrupt"] == 0
            assert store["stores"] == 0

    def test_null_store_runs_plain(self):
        trace = _whet_trace()
        config = resolve("base")
        out = replay_with_memo(NULL_MEMO_STORE, trace, config)
        ref = simulate(trace, config, memoize=False)
        assert out.minor_cycles == ref.minor_cycles
        assert NULL_MEMO_STORE.stats.gets == 0

    def test_open_memo_store_follows_cache(self, tmp_path):
        assert open_memo_store(None) is not None
        assert open_memo_store(None).enabled is False
        cache = TraceCache(str(tmp_path))
        store = open_memo_store(cache)
        assert store.enabled
        assert store.root == os.path.join(cache.root, "memo")

    def test_memo_key_separates_modes(self):
        trace = _whet_trace()
        config = resolve("base")
        keys = {
            memo_key(trace, config),
            memo_key(trace, config, observe=True),
            memo_key(trace, config, want_times=True),
            memo_key(trace, resolve("superscalar:4")),
        }
        assert len(keys) == 4


_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

_FRESH_SNIPPET = """
import json, sys
from repro.benchmarks import suite
from repro.machine.presets import resolve
from repro.sim.memo import MemoStore, replay_with_memo

root, specs = sys.argv[1], sys.argv[2:]
bench = suite.get("whet")
trace = suite.run_benchmark(bench, suite.default_options(bench)).trace
out = {}
for spec in specs:
    store = MemoStore(root)
    got = replay_with_memo(store, trace, resolve(spec), observe=True)
    out[spec] = [got.minor_cycles, got.stalls.as_dict(),
                 got.stats.as_dict(), store.stats.as_dict()]
print(json.dumps(out))
"""


class TestEngineIntegration:
    """The engine persists and re-adopts memo tables via its cache."""

    def test_cache_dir_grows_memo_store(self, tmp_path):
        suite.clear_cache()
        plan = plan_sweep(["whet"], ["base", "superscalar:4"],
                          observe=True)
        result = execute(plan, cache=TraceCache(str(tmp_path)))
        assert result.report.replay_backend == replay_mod.BACKEND
        memo_root = tmp_path / "memo"
        assert memo_root.is_dir()
        assert any(memo_root.rglob("*.pkl"))

        suite.clear_cache()
        again = execute(plan_sweep(["whet"], ["base", "superscalar:4"],
                                   observe=True),
                        cache=TraceCache(str(tmp_path)))
        assert again.report.memo_persisted_hits > 0
        for mine, theirs in zip(result.cells, again.cells):
            assert mine.minor_cycles == theirs.minor_cycles
            assert mine.stalls == theirs.stalls


class TestSchemaConservation:
    """The validator enforces the new vectorized-counter laws."""

    def _payload(self, **overrides):
        payload = {
            "blocks": 10, "memo_hits": 6, "memo_misses": 4,
            "fallbacks": 0, "memo_instructions": 90,
            "direct_instructions": 10,
            "vectorized_blocks": 10, "scalar_fallback_blocks": 0,
            "memo_persisted_hits": 5,
        }
        payload.update(overrides)
        return payload

    def test_valid_payload_passes(self):
        record = {"instructions": 100}
        assert check_replay(self._payload(), record) == []

    def test_vectorized_exceeding_blocks_fails(self):
        record = {"instructions": 100}
        errors = check_replay(
            self._payload(vectorized_blocks=8, scalar_fallback_blocks=3),
            record)
        assert any("vectorized+fallback" in e for e in errors)

    def test_persisted_exceeding_hits_fails(self):
        record = {"instructions": 100}
        errors = check_replay(self._payload(memo_persisted_hits=7), record)
        assert any("memo_persisted_hits" in e for e in errors)

    def test_pre_kernel_payload_still_valid(self):
        payload = self._payload()
        for name in ("vectorized_blocks", "scalar_fallback_blocks",
                     "memo_persisted_hits"):
            del payload[name]
        assert check_replay(payload, {"instructions": 100}) == []


_SCALAR_SNIPPET = """
import repro.sim.replay as replay_mod
assert replay_mod.BACKEND == "scalar", replay_mod.BACKEND
from repro.benchmarks import suite
from repro.machine.presets import resolve
from repro.sim.timing import simulate

bench = suite.get("whet")
trace = suite.run_benchmark(bench, suite.default_options(bench)).trace
for spec in ("base", "superscalar:4", "superpipelined:4"):
    config = resolve(spec)
    memo = simulate(trace, config, observe=True)
    ref = simulate(trace, config, observe=True, memoize=False)
    assert memo.minor_cycles == ref.minor_cycles
    assert memo.stalls == ref.stalls
    assert memo.replay.vectorized_blocks == 0
    print(spec, memo.minor_cycles)
"""


class TestScalarBackendFallback:
    """REPRO_NO_NUMPY selects the stdlib path with identical results."""

    def test_subprocess_scalar_backend_matches(self):
        env = dict(os.environ, REPRO_NO_NUMPY="1")
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _SCALAR_SNIPPET],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        reported = {}
        for line in proc.stdout.splitlines():
            spec, cycles = line.split()
            reported[spec] = int(cycles)
        trace = _whet_trace()
        for spec, cycles in reported.items():
            assert simulate(trace, resolve(spec)).minor_cycles == cycles
