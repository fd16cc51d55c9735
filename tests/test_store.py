"""The content-addressed store (repro.store), once per namespace.

Every case runs against the trace cache, the replay-memo store and the
flow checkpoint store: they share one implementation and differ only in
directory, key and read validator, so they must behave alike.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import pytest

import repro.api as api
from repro.engine.cache import (
    NULL_TRACE_CACHE,
    TraceCache,
    open_cache,
    trace_key,
)
from repro.engine.faults import FaultPlan, truncate_entry
from repro.flow.state import STATE_FORMAT, FlowStateStore, state_dir
from repro.isa import build
from repro.isa.registers import virtual
from repro.benchmarks import suite
from repro.machine import base_machine, ideal_superscalar, multititan
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.schema import check_metrics
from repro.opt.options import CompilerOptions
from repro.sim.memo import (
    NULL_MEMO_STORE,
    MemoStore,
    memo_key,
    plan_key,
    replay_with_memo,
    seal,
)
from repro.sim.replay import (
    BACKEND,
    ReplayCore,
    _id_array,
    build_plan,
    plan_for,
)
from repro.sim.timing import simulate
from repro.sim.trace import Trace
from repro.store import DEBRIS_MAX_AGE, reset_debris_sweeps

SOURCE = "proc main(): int { return 41 + 1; }"


@pytest.fixture(scope="module")
def run_result():
    return api.run(SOURCE)


@dataclass
class Namespace:
    name: str
    #: metric prefix the namespace's stats drain into
    prefix: str
    open: Callable[[str | None], object]
    #: write ``value`` through the namespace's own ``store``
    put: Callable[[object, str, object], None]
    #: the exact object the parent layout pickles for ``value``
    entry: Callable[[object], object]
    #: does a loaded entry carry ``value``?
    carries: Callable[[object, object], bool]
    #: unpickles fine but must fail the namespace's read validator
    wrong: object


def _same_run(loaded, run) -> bool:
    return (loaded.value == run.value
            and loaded.instructions == run.instructions
            and loaded.trace.ops == run.trace.ops)


def _same_memo(loaded, payload) -> bool:
    """Equal memo payloads; array fields (record ids, flat records)
    compare by type, dtype, shape and values."""
    if loaded.keys() != payload.keys():
        return False
    for name, want in payload.items():
        got = loaded[name]
        if hasattr(want, "dtype") or isinstance(want, array):
            if not (type(got) is type(want)
                    and getattr(got, "dtype", None)
                    == getattr(want, "dtype", None)
                    and getattr(got, "shape", None)
                    == getattr(want, "shape", None)
                    and got.tolist() == want.tolist()):
                return False
        elif got != want:
            return False
    return True


def _flow_entry(value) -> dict:
    return {"format": STATE_FORMAT, "node": "n", "kind": "t",
            "value": value}


NAMESPACES = {
    "trace": Namespace(
        "trace", "cache.", TraceCache,
        lambda s, k, v: s.store(k, v), lambda v: v, _same_run,
        {"not": "a run result"},
    ),
    "memo": Namespace(
        "memo", "cache.memo_", MemoStore,
        lambda s, k, v: s.store(k, v), seal, _same_memo,
        {"format": "replay-memo-v0"},
    ),
    "flow": Namespace(
        "flow", "cache.flow_", FlowStateStore,
        lambda s, k, v: s.store(k, "n", "t", v), _flow_entry,
        lambda loaded, v: loaded == _flow_entry(v),
        {"format": "flow-state-v0", "value": 1},
    ),
}


@pytest.fixture(params=sorted(NAMESPACES))
def ns(request) -> Namespace:
    return NAMESPACES[request.param]


@pytest.fixture
def value(ns, run_result):
    """A payload the namespace accepts."""
    if ns.name == "trace":
        return run_result
    if ns.name == "memo":
        core = ReplayCore(run_result.trace, base_machine())
        core.run()
        return core.export_memo()
    return {"rows": list(range(200))}


@pytest.fixture
def store(ns, tmp_path):
    return ns.open(str(tmp_path))


KEY = "ab" + "0" * 62


def _tmp_files(root) -> list:
    return list(root.rglob("*.tmp"))


def test_round_trip(ns, store, value):
    ns.put(store, KEY, value)
    assert ns.carries(store.load(KEY), value)
    assert store.stats.as_dict() == {"gets": 1, "hits": 1, "misses": 0,
                                     "corrupt": 0, "stores": 1,
                                     "debris": 0}


def test_clean_miss(store):
    assert store.load(KEY) is None
    assert (store.stats.misses, store.stats.corrupt) == (1, 0)


def test_truncated_entry_is_corrupt_removed_and_never_served(
        ns, store, value):
    for _ in range(5):
        ns.put(store, KEY, value)
        assert truncate_entry(store, KEY)
        assert store.load(KEY) is None
        assert not os.path.exists(store.path_for(KEY))
    assert (store.stats.corrupt, store.stats.hits) == (5, 0)
    # The corrupt file is gone, so the next write is clean again.
    ns.put(store, KEY, value)
    assert ns.carries(store.load(KEY), value)


def test_unreadable_pickle_is_corrupt(store):
    path = store.path_for(KEY)
    os.makedirs(os.path.dirname(path))
    with open(path, "wb") as handle:
        handle.write(b"\x00not a pickle")
    assert store.load(KEY) is None
    assert store.stats.corrupt == 1
    assert not os.path.exists(path)


def test_wrong_format_tag_or_type_is_corrupt(ns, store):
    path = store.path_for(KEY)
    os.makedirs(os.path.dirname(path))
    with open(path, "wb") as handle:
        pickle.dump(ns.wrong, handle)
    assert store.load(KEY) is None
    assert (store.stats.corrupt, store.stats.misses) == (1, 0)
    assert not os.path.exists(path)


def test_reject_moves_a_hit_to_corrupt(ns, store, value):
    ns.put(store, KEY, value)
    assert store.load(KEY) is not None
    store.reject(KEY)
    assert (store.stats.hits, store.stats.corrupt) == (0, 1)
    assert not os.path.exists(store.path_for(KEY))
    assert store.load(KEY) is None
    assert store.stats.misses == 1


def test_conservation_law_and_draining_record(ns, store, value):
    other = "cd" + "1" * 62
    store.load(KEY)                     # miss
    ns.put(store, KEY, value)
    store.load(KEY)                     # hit
    store.load(KEY)                     # hit, then rejected
    store.reject(KEY)
    ns.put(store, other, value)
    truncate_entry(store, other)
    store.load(other)                   # corrupt
    stats = store.stats
    assert (stats.hits, stats.misses, stats.corrupt) == (1, 1, 2)
    assert stats.gets == stats.hits + stats.misses + stats.corrupt == 4

    metrics = MetricsRegistry()
    stats.record_to(metrics, ns.prefix)
    stats.record_to(metrics, ns.prefix)  # drained: adds nothing
    p = ns.prefix
    assert metrics.counters == {
        p + "gets": 4, p + "hits": 1, p + "misses": 1, p + "corrupt": 2,
        p + "stores": 2,
    }
    assert check_metrics(metrics.as_dict()) == []
    assert stats.as_dict() == dict.fromkeys(stats.as_dict(), 0)


def test_disabled_metrics_keep_the_counts(store):
    store.load(KEY)
    store.stats.record_to(NULL_METRICS, "cache.")
    assert store.stats.misses == 1


def test_concurrent_writers_same_key(ns, store, value, tmp_path):
    errors = []

    def writer():
        try:
            for _ in range(10):
                ns.put(store, KEY, value)
        except Exception as exc:  # pragma: no cover - the assertion
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert errors == []
    assert ns.carries(store.load(KEY), value)
    # The atomic-rename protocol leaves no temp spill behind.
    assert _tmp_files(tmp_path) == []


def test_interrupted_write_leaves_no_tmp(ns, store, tmp_path):
    class Unpicklable:
        def __reduce__(self):
            raise RuntimeError("simulated mid-write failure")

    with pytest.raises(RuntimeError):
        ns.put(store, KEY, Unpicklable())
    assert _tmp_files(tmp_path) == []
    assert store.stats.stores == 0
    assert store.load(KEY) is None


def _plant(root, rel: str, age_seconds: float) -> str:
    path = os.path.join(str(root), rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        handle.write("partial")
    stamp = time.time() - age_seconds
    os.utime(path, (stamp, stamp))
    return path


def test_janitor_removes_only_old_tmp_files(ns, tmp_path):
    reset_debris_sweeps()
    old = _plant(tmp_path, "ab/dead.pkl.tmp", DEBRIS_MAX_AGE * 2)
    young = _plant(tmp_path, "cd/live.pkl.tmp", 10)
    entry = _plant(tmp_path, "ab/entry.pkl", DEBRIS_MAX_AGE * 2)
    store = ns.open(str(tmp_path))
    assert store.stats.debris == 1
    assert not os.path.exists(old)
    assert os.path.exists(young)  # may belong to a live writer
    assert os.path.exists(entry)  # not a temp file


def test_janitor_runs_once_per_process_per_root(ns, tmp_path):
    reset_debris_sweeps()
    _plant(tmp_path, "ab/dead.pkl.tmp", DEBRIS_MAX_AGE * 2)
    assert ns.open(str(tmp_path)).stats.debris == 1
    _plant(tmp_path, "ab/dead2.pkl.tmp", DEBRIS_MAX_AGE * 2)
    assert ns.open(str(tmp_path)).stats.debris == 0


def test_janitor_counts_are_disjoint_across_nested_roots(tmp_path):
    """The memo and flow stores live inside the trace cache's root; each
    janitor sweeps only its own fan-out directories."""
    reset_debris_sweeps()
    root = str(tmp_path)
    for rel in ("ab/t.pkl.tmp", "memo/ab/m1.pkl.tmp", "memo/cd/m2.pkl.tmp",
                "flow/state/ab/f1.pkl.tmp", "flow/state/ef/f2.pkl.tmp",
                "flow/state/01/f3.pkl.tmp"):
        _plant(tmp_path, rel, DEBRIS_MAX_AGE * 2)
    assert TraceCache(root).stats.debris == 1
    # The trace janitor left the nested namespaces' debris to them.
    assert len(_tmp_files(tmp_path)) == 5
    assert MemoStore(os.path.join(root, "memo")).stats.debris == 2
    assert FlowStateStore(state_dir(root)).stats.debris == 3
    assert _tmp_files(tmp_path) == []


def test_disabled_store(ns, value, tmp_path):
    store = ns.open(None)
    assert store.enabled is False
    ns.put(store, KEY, value)
    assert store.load(KEY) is None
    store.reject(KEY)
    assert store.stats.as_dict() == dict.fromkeys(store.stats.as_dict(), 0)
    assert not truncate_entry(store, KEY)
    assert list(tmp_path.iterdir()) == []


def test_shared_disabled_handles():
    for store in (NULL_TRACE_CACHE, NULL_MEMO_STORE, open_cache(None),
                  open_cache("somewhere", no_cache=True)):
        assert store.enabled is False
        assert store.load(KEY) is None
        assert store.stats.gets == 0
    assert open_cache("somewhere").enabled is True


def test_corrupt_cache_fault_tears_through_the_helper(tmp_path, run_result):
    cache = TraceCache(str(tmp_path))
    cache.store(KEY, run_result)
    FaultPlan.parse("corrupt-cache@main").maybe_corrupt_cache(
        cache, KEY, "main", attempt=1)
    assert cache.load(KEY) is None
    assert cache.stats.corrupt == 1
    # The corrupt entry is dropped, so the next store repopulates.
    assert not os.path.exists(cache.path_for(KEY))
    cache.store(KEY, run_result)
    assert _same_run(cache.load(KEY), run_result)


def test_janitor_debris_flows_into_metrics(ns, tmp_path):
    reset_debris_sweeps()
    _plant(tmp_path, "ab/dead.pkl.tmp", DEBRIS_MAX_AGE * 2)
    store = ns.open(str(tmp_path))
    metrics = MetricsRegistry()
    store.stats.record_to(metrics, ns.prefix)
    assert metrics.counters == {ns.prefix + "debris": 1}
    # Janitor work is outside the conservation law.
    assert store.stats.gets == 0


def test_torn_write_fault_tears_through_the_helper(tmp_path):
    store = FlowStateStore(str(tmp_path))
    store.store(KEY, "n", "t", list(range(100)))
    plan = FaultPlan.parse("torn-write@n")
    assert not plan.maybe_tear_checkpoint(store, KEY, "other", 1)
    assert plan.maybe_tear_checkpoint(store, KEY, "n", 2)
    assert store.load(KEY) is None
    assert store.stats.corrupt == 1


# ----------------------------------------------------------------------
# Keys, layout and payload bytes are pinned to the pre-store layout.

def _tiny_trace() -> Trace:
    return Trace.from_instructions(
        [build.li(virtual(0), 1), build.lw(virtual(1), virtual(2), 0)],
        addrs=[0, 16],
    )


def test_trace_key_golden():
    assert trace_key(SOURCE, CompilerOptions()) == (
        "c9945e7c9e043029d105220ba2513576f46f4d041a8b4073910467ed8c0ef8c8")


#: memo keys fold in the replay backend, so each backend has its own pin
MEMO_KEYS = {
    "numpy": (
        "13526b31d43b5186e9828cfe123eb8d1249a7f157bf4d7ef78d42562977447b0",
        "898d4f57500434969e3dd6135f85035aedf62d2b06b7520bdf467983fa9eae00",
    ),
    "scalar": (
        "942e8ca2a5684788e362498630e3d3cf252278faf4aa753e867e5011e0ae2171",
        "2c7f599b97bd8d521c2654f8375215da12bc036af3037e3cecbfbaf1dfac6a42",
    ),
}


def test_memo_key_golden():
    trace = _tiny_trace()
    assert (
        memo_key(trace, base_machine()),
        memo_key(trace, ideal_superscalar(4), observe=True,
                 want_times=True),
    ) == MEMO_KEYS[BACKEND]


def _key_for(ns: Namespace, run_result) -> str:
    if ns.name == "trace":
        return trace_key(SOURCE, CompilerOptions())
    if ns.name == "memo":
        return memo_key(run_result.trace, base_machine())
    return "0f" * 32


def test_parent_layout_entries_read_as_hits(ns, value, run_result,
                                            tmp_path):
    """An entry written the pre-store way — a plain ``pickle.dump`` of
    the payload at ``<root>/<key[:2]>/<key>.pkl`` — is a hit."""
    key = _key_for(ns, run_result)
    path = tmp_path / key[:2] / (key + ".pkl")
    path.parent.mkdir()
    with open(path, "wb") as handle:
        pickle.dump(ns.entry(value), handle)
    store = ns.open(str(tmp_path))
    assert store.path_for(key) == str(path)
    assert ns.carries(store.load(key), value)
    assert (store.stats.hits, store.stats.corrupt) == (1, 0)


def test_payload_bytes_match_the_parent_layout(ns, value, run_result,
                                               tmp_path):
    key = _key_for(ns, run_result)
    store = ns.open(str(tmp_path))
    ns.put(store, key, value)
    with open(store.path_for(key), "rb") as handle:
        written = handle.read()
    assert written == pickle.dumps(ns.entry(value),
                                   protocol=pickle.HIGHEST_PROTOCOL)



# ----------------------------------------------------------------------
# Bad memo payloads: each ends as a corrupt drop (then a rewrite) or a
# scalar re-resolve, and the replay result is never wrong.

#: Per-trace plan entries share the memo namespace (NumPy backend only):
#: the replays below hit one alongside the memo entry.
PLAN_HITS = 1 if BACKEND == "numpy" else 0


def _whet_trace() -> Trace:
    bench = suite.get("whet")
    return suite.run_benchmark(bench, suite.default_options(bench)).trace


def _records_and_ids(payload, n_events: int):
    """The payload's record count and ids as a list; the scalar backend
    never resolves, so it gets one placeholder record to point ids at."""
    if payload["record_ids"] is None:
        return 1, [0] * n_events
    return payload["scalars"].shape[0], payload["record_ids"].tolist()


def _wide_ids(ids: list):
    """A record-id array of the wrong dtype for the active backend."""
    if BACKEND == "numpy":
        import numpy

        return numpy.asarray(ids, dtype=numpy.int64)
    return array("q", ids)


def _first_entry(payload):
    table = next(t for t in payload["tables"] if t)
    return table, next(iter(table))


#: ``scalars`` columns of a flat record (NumPy payloads)
SCALAR_COLUMNS = {"d_cyc": 1, "d_fin": 4, "entry_count": 5}
#: The same fields in a memo-table entry (scalar payloads)
ENTRY_FIELDS = {"d_cyc": 0, "d_fin": 6}


def _bump(field: str):
    """Add one to a field of the first record (NumPy) or of the first
    memo-table entry (scalar)."""
    def change(payload, n_events):
        if BACKEND == "numpy":
            payload["scalars"][0, SCALAR_COLUMNS[field]] += 1
            return
        table, key = _first_entry(payload)
        entry = list(table[key])
        entry[ENTRY_FIELDS[field]] += 1
        table[key] = tuple(entry)
    return change


def _resealed(change):
    """A well-formed entry (valid digest) whose payload is wrong."""
    def damage(store, key, n_events):
        payload = store.load(key)
        change(payload, n_events)
        store.store(key, payload)
    return damage


def _rotted(change):
    """The payload changed on disk under its old digest."""
    def damage(store, key, n_events):
        path = store.path_for(key)
        with open(path, "rb") as handle:
            entry = pickle.load(handle)
        payload = pickle.loads(entry["body"])
        change(payload, n_events)
        entry["body"] = pickle.dumps(payload,
                                     protocol=pickle.HIGHEST_PROTOCOL)
        with open(path, "wb") as handle:
            pickle.dump(entry, handle)
    return damage


def _write(raw: bytes):
    def damage(store, key, n_events):
        with open(store.path_for(key), "wb") as handle:
            handle.write(raw)
    return damage


def _set_ids(make):
    def change(payload, n_events):
        n_records, ids = _records_and_ids(payload, n_events)
        payload["record_ids"] = make(n_records, ids)
    return change


def _drop_arrays(payload, n_events):
    """Record ids alone: no flat record arrays (and, under the scalar
    backend, no tables) beside them."""
    _set_ids(lambda n, ids: _id_array(ids))(payload, n_events)
    for name in set(payload) - {"format", "key_format", "mode",
                                "record_ids"}:
        del payload[name]


def _unbalance_lengths(payload, n_events):
    payload["regs_n"][0] += 1


def _narrow_field(payload, n_events):
    payload["stores"] = payload["stores"].astype("int32")


#: The flat record fields exist only under the NumPy backend.
_NUMPY_ONLY = pytest.mark.skipif(BACKEND != "numpy",
                                 reason="scalar payloads hold tables")

DAMAGE = {
    "unreadable": _write(b"\x00not a pickle"),
    "truncated": lambda store, key, n: truncate_entry(store, key),
    "wrong-tag": _write(pickle.dumps({"format": "replay-memo-v0"})),
    "wrong-id-dtype": _resealed(_set_ids(lambda n, ids: _wide_ids(ids))),
    "wrong-id-length": _resealed(_set_ids(
        lambda n, ids: _id_array(ids[:-1]))),
    "id-out-of-range": _resealed(_set_ids(
        lambda n, ids: _id_array([n] + ids[1:]))),
    "ids-without-arrays": _resealed(_drop_arrays),
    "tampered-d_cyc": _rotted(_bump("d_cyc")),
    "tampered-d_fin": _rotted(_bump("d_fin")),
    "lengths-off-by-one": _resealed(_unbalance_lengths),
    "narrow-field-dtype": _resealed(_narrow_field),
}
_DAMAGE_CASES = [
    pytest.param(name, marks=_NUMPY_ONLY)
    if name in ("lengths-off-by-one", "narrow-field-dtype") else name
    for name in sorted(DAMAGE)
]


@pytest.fixture
def primed_memo(tmp_path):
    """A memo store primed with whet on a unit-conflict machine, plus the
    per-instruction reference result."""
    trace = _whet_trace()
    config = multititan()
    ref = simulate(trace, config, observe=True, memoize=False)
    root = str(tmp_path / "memo")
    _replay(root, trace, config)
    return trace, config, ref, root, memo_key(trace, config, observe=True)


def _replay(root, trace, config):
    """A replay as a fresh process runs it: no plan."""
    trace._plan = None
    store = MemoStore(root)
    out = replay_with_memo(store, trace, config, observe=True)
    stats = store.stats
    assert stats.gets == stats.hits + stats.misses + stats.corrupt
    return out, stats


@pytest.mark.parametrize("damage", _DAMAGE_CASES)
def test_bad_memo_entry_is_dropped_and_rewritten(primed_memo, damage):
    trace, config, ref, root, key = primed_memo
    DAMAGE[damage](MemoStore(root), key, len(plan_for(trace).schedule))
    out, stats = _replay(root, trace, config)
    assert (out.minor_cycles, out.stalls) == (ref.minor_cycles, ref.stalls)
    assert (stats.hits, stats.corrupt) == (PLAN_HITS, 1)
    assert stats.stores == 1            # rewritten from this run
    assert out.stats.memo_persisted_hits == 0
    # The rewritten entry is healthy again.
    again, fresh = _replay(root, trace, config)
    assert (again.minor_cycles, again.stalls) == (ref.minor_cycles,
                                                  ref.stalls)
    assert (fresh.hits, fresh.misses, fresh.corrupt, fresh.stores) == (
        PLAN_HITS + 1, 0, 0, 0)
    assert again.stats.memo_misses == 0
    assert again.stats.memo_persisted_hits > 0


@pytest.mark.skipif(BACKEND != "numpy",
                    reason="only the NumPy backend replays records")
def test_unverifiable_records_cost_a_scalar_re_resolve(primed_memo):
    """A well-formed payload whose recorded key no longer matches its
    dependence chain is adopted, fails the kernel's verification, and is
    re-resolved on the scalar path — then rewritten."""
    trace, config, ref, root, key = primed_memo

    def change(payload, n_events):
        first = payload["record_ids"][0]
        payload["scalars"][first, SCALAR_COLUMNS["entry_count"]] += 1

    _resealed(change)(MemoStore(root), key, 0)
    out, stats = _replay(root, trace, config)
    assert (out.minor_cycles, out.stalls) == (ref.minor_cycles, ref.stalls)
    assert out.stats.scalar_fallback_blocks == out.stats.blocks
    assert (stats.hits, stats.corrupt, stats.stores) == (2, 0, 1)
    again, fresh = _replay(root, trace, config)
    assert again.stats.vectorized_blocks == again.stats.blocks
    assert (fresh.hits, fresh.stores) == (2, 0)


def _foreign_schedule(payload, n):
    """The schedule of another benchmark's plan, its block ids folded
    into range (only the expansion check can tell)."""
    bench = suite.get("linpack")
    other = suite.run_benchmark(bench, suite.default_options(bench)).trace
    payload["schedule"] = _id_array(
        [bid % payload["n_blocks"] for bid in build_plan(other).schedule])


def _shifted_segment(payload, n):
    """The first segment of the first scheduled block starts one
    instruction later."""
    first = int(payload["block_nseg"][:payload["schedule"][0]].sum())
    payload["segments"][first, 0] += 1


def _block_out_of_range(payload, n):
    payload["schedule"][-1] = payload["n_blocks"]


def _other_knobs(payload, n):
    (phase, *rest), max_passes = payload["knobs"]
    payload["knobs"] = (((phase[0] + 1, phase[1]), *rest), max_passes)


def _v1_entry(payload, n):
    """The arrays alone, as the format before the plan was stored."""
    for name in ("knobs", "schedule", "block_nseg", "segments"):
        del payload[name]
    payload["format"] = "replay-plan-v1"


def _shorter_array(payload, n):
    payload["arrays"]["rp_src"] = payload["arrays"]["rp_src"][:-1]


def _tampered_alias_ids(payload, n):
    payload["arrays"]["alias_ids"][0] += 1


PLAN_DAMAGE = {
    "truncated": lambda store, key, n: truncate_entry(store, key),
    "tampered-alias-ids": _rotted(_tampered_alias_ids),
    "wrong-length": _resealed(_shorter_array),
    "foreign-schedule": _resealed(_foreign_schedule),
    "shifted-segment": _resealed(_shifted_segment),
    "block-out-of-range": _resealed(_block_out_of_range),
    "other-knobs": _resealed(_other_knobs),
    "v1-format": _resealed(_v1_entry),
}


@pytest.mark.skipif(BACKEND != "numpy",
                    reason="plan entries exist only under NumPy")
@pytest.mark.parametrize("damage", sorted(PLAN_DAMAGE))
def test_bad_plan_entry_is_dropped_and_rewritten(primed_memo, damage):
    trace, config, ref, root, key = primed_memo
    PLAN_DAMAGE[damage](MemoStore(root), plan_key(trace), 0)
    out, stats = _replay(root, trace, config)
    assert (out.minor_cycles, out.stalls) == (ref.minor_cycles, ref.stalls)
    assert (stats.hits, stats.corrupt, stats.stores) == (1, 1, 1)
    # A readable entry whose plan fits keeps its plan; only its arrays
    # are rebuilt.  Every other damage costs the merge passes.
    assert trace._plan.loaded == (damage == "wrong-length")
    assert not trace._plan.vec.loaded
    assert out.stats.vectorized_blocks == out.stats.blocks
    again, fresh = _replay(root, trace, config)
    assert (again.minor_cycles, again.stalls) == (ref.minor_cycles,
                                                  ref.stalls)
    assert (fresh.hits, fresh.corrupt, fresh.stores) == (2, 0, 0)
    assert trace._plan.loaded and trace._plan.vec.loaded
