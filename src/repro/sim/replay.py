"""Shared trace-replay core with block-structured memoization.

One replay loop serves all three timing entry points (fast cycle counts,
stall-attributed replay, per-event issue schedules), replacing the three
hand-copied loops that used to live in :mod:`repro.sim.timing`.

The speed comes from two layers on top of the v2 trace encoding:

**Replay plan** (:func:`build_plan`, cached per trace): the trace's run
sequence is compressed bottom-up, byte-pair-encoding style — unique
``(start, length)`` runs become *blocks*, and adjacent block pairs that
repeat at least ``min_repeat`` times merge into larger blocks (so a hot
loop body, conditional arms included, collapses into one block per
iteration shape).  The plan is machine-independent and deterministic: the
same trace always yields the same plan, so parallel engine workers stay
bit-identical to the serial path.

**Block memoization**: replaying a block is a pure function of a small
*relative entry state*, measured against the entry cycle ``T0``:

* the intra-cycle issue count,
* the branch-stall floor, as ``max(0, floor - T0)``,
* for each register the block reads before writing (its live-ins),
  ``max(0, ready[r] - T0)``,
* for each functional unit the block uses, the multiset of
  ``max(0, free_time - T0)`` over the unit's copies (sorted — copies are
  interchangeable),
* the *aliasing structure* of the block's memory-address chunk: for each
  load, the position of the latest preceding in-block store to the same
  word (or none).  Absolute addresses are irrelevant to timing — a load
  waits only on a pending store to *its* word, so two instances whose
  addresses all shift (even unevenly) behave identically as long as the
  store→load matching is the same.

A pending store from *outside* the block that aliases one of the
block's words is folded into the key too, as the clamped extra wait it
imposes on each load (``max(0, mem_ready[addr] - T0)`` per load
position); only a pathologically wide external-wait pattern forces the
fall-through.  The aliasing structure itself is machine-independent, so
it is cached per chunk on the (shared) plan and computed once for the
whole machine grid.

Clamping at ``T0`` is sound because issue times never precede the entry
cycle: any state value at or before ``T0`` behaves exactly like ``T0``.
The memo entry stores the block's effect in the same relative terms —
exit cycle/count, written registers, pending stores (only those that
can still matter, i.e. finishing after the exit cycle — store finishes
are monotone under in-order issue with a single store latency, so the
kept set is a suffix and dropped finishes can never stall a later
load), unit free times, the block-local completion horizon, plus
(mode-dependent) the stall charges and per-event issue-time deltas — so
a hit advances the simulation in time proportional to the block's *live
state*, not its instruction count.  Whenever the entry state is not
reusable, the block falls through to direct per-instruction replay, so
results are bit-identical by construction; a block whose keys never
repeat is blacklisted and replayed directly from then on.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter

from ..isa.opcodes import InstrClass
from ..isa.registers import flat_index
from ..machine.config import MachineConfig
from ..obs.stalls import StallBreakdown
from .trace import Trace

# Optional NumPy backend: the vectorized kernel in
# :mod:`repro.sim.replay_vec` replays a resolved block schedule with
# array arithmetic.  The pure-stdlib scalar path below is always
# present, produces bit-identical results, and is auto-selected when
# NumPy is absent (or explicitly disabled via ``REPRO_NO_NUMPY=1`` —
# used by CI to exercise the fallback).
try:
    if os.environ.get("REPRO_NO_NUMPY"):
        raise ImportError("NumPy disabled via REPRO_NO_NUMPY")
    import numpy as _np  # noqa: F401  (presence check)
    from . import replay_vec as _replay_vec
except ImportError:  # pragma: no cover - depends on environment
    _np = None
    _replay_vec = None

#: Active replay backend: ``"numpy"`` (vectorized kernel available) or
#: ``"scalar"`` (pure stdlib).  Surfaced in engine report events and
#: ``repro trace`` output.  Also tags persisted memo payloads: the two
#: backends intern the store→load aliasing key differently, so memo
#: files never cross backends.
BACKEND = "numpy" if _np is not None else "scalar"

#: Format tag of persisted replay-memo payloads (see
#: :meth:`ReplayCore.export_memo` and :mod:`repro.sim.memo`).
MEMO_PAYLOAD_FORMAT = "replay-memo-v3"

#: Fields of every memo payload; the NumPy backend adds the flat record
#: arrays (:data:`repro.sim.replay_vec.FLAT_FIELDS`), the scalar backend
#: its ``tables``.
_MEMO_HEADER = ("format", "key_format", "mode", "record_ids")


def _id_array(ids: list[int]):
    """Per-event record ids in the backend's flat int32 form."""
    if _np is not None:
        return _np.asarray(ids, dtype=_np.int32)
    return array("i", ids)


def _valid_ids(ids, n_records: int, n_events: int) -> bool:
    """``ids`` is a flat int32 id array of ``n_events`` entries, each
    naming one of ``n_records`` records (NumPy backend)."""
    if not (isinstance(ids, _np.ndarray) and ids.dtype == _np.int32
            and ids.ndim == 1):
        return False
    lo, hi = (int(ids.min()), int(ids.max())) if ids.size else (0, -1)
    return len(ids) == n_events and lo >= 0 and hi < n_records


class _UnitState:
    """Run-time state of one functional-unit type (all copies)."""

    __slots__ = ("issue_latency", "free")

    def __init__(self, issue_latency: int, multiplicity: int) -> None:
        self.issue_latency = issue_latency
        self.free = [0] * multiplicity


#: Instruction classes in a fixed order so per-config latency/unit
#: lookups reduce to a C-level list index (enum hashing happens once
#: per class, not once per static instruction per machine).
_CLASSES = list(InstrClass)
_CLASS_POS = {klass: i for i, klass in enumerate(_CLASSES)}


def _static_skeleton(trace: Trace) -> tuple[list[tuple], int]:
    """The config-independent half of :func:`_static_records`.

    One entry per static instruction: ``(src_indices, dest_index,
    class_position, is_load, is_store, is_cond_branch)``.  Cached on the
    trace — the static table never changes after construction — so a
    machine grid decodes it once, not once per machine.
    """
    skel = trace._skel
    if skel is None:
        entries: list[tuple] = []
        max_reg = 0
        for ins in trace.static:
            info = ins.op.info
            srcs = tuple(flat_index(r) for r in ins.srcs)
            dest = flat_index(ins.dest) if ins.dest is not None else -1
            for r in srcs:
                if r > max_reg:
                    max_reg = r
            if dest > max_reg:
                max_reg = dest
            entries.append(
                (srcs, dest, _CLASS_POS[ins.op.klass],
                 info.is_load, info.is_store, info.is_cond_branch)
            )
        skel = (entries, max_reg)
        trace._skel = skel
    return skel


def _static_records(
    trace: Trace, config: MachineConfig
) -> tuple[list[tuple], int]:
    """Precompute per-static-instruction issue records.

    Each record is ``(src_indices, dest_index, latency, unit, is_load,
    is_store, is_cond_branch)`` with ``dest_index = -1`` for no
    destination and ``unit`` either ``None`` (ideal) or the shared
    :class:`_UnitState`.
    """
    unit_for_class: dict[InstrClass, _UnitState] = {}
    if config.units:
        for u in config.units:
            state = _UnitState(u.issue_latency, u.multiplicity)
            for klass in u.classes:
                # First unit listed for a class wins; presets do not overlap.
                unit_for_class.setdefault(klass, state)

    entries, max_reg = _static_skeleton(trace)
    latency_of = [config.latencies[k] for k in _CLASSES]
    unit_of = [unit_for_class.get(k) for k in _CLASSES]
    records: list[tuple] = [
        (srcs, dest, latency_of[ki], unit_of[ki], il, ist, icb)
        for srcs, dest, ki, il, ist, icb in entries
    ]
    return records, max_reg


# --------------------------------------------------------------------------
# Replay plan: run deduplication + pair merging
# --------------------------------------------------------------------------

#: Merge phases: ``(min_repeat, max_block)`` — a merged pair must repeat
#: at least ``min_repeat`` times and stay within ``max_block``
#: instructions.  A high repeat threshold keeps merging focused on hot
#: pairs whose repetition amortizes the extra key diversity a bigger
#: block brings; sweeps showed one aggressive phase beats multi-phase
#: schedules and larger caps on the paper grid.
_MERGE_PHASES = ((20, 512),)
#: Back-compat aliases for the first phase's knobs.
_MIN_REPEAT = _MERGE_PHASES[0][0]
_MAX_BLOCK_INSTRS = _MERGE_PHASES[0][1]
#: Upper bound on merge passes (each pass at least halves hot sequences).
_MAX_PASSES = 24
#: A block is abandoned for memoization once it misses this often
#: without ever hitting, or once its table grows past ``_MAX_KEYS``.
_BLACKLIST_MISSES = 24
_MAX_KEYS = 2048


class _Block:
    """One replay unit: static segments replayed (or memoized) as a whole."""

    __slots__ = ("segments", "n_instrs", "n_mem", "count", "eligible",
                 "has_dataflow", "live_ins", "defs", "load_sel",
                 "store_sel", "is_load_pos", "needs_mem_key", "load_get",
                 "store_get", "mem_key_cache")

    def __init__(self, segments: tuple[tuple[int, int], ...],
                 n_instrs: int, n_mem: int) -> None:
        self.segments = segments
        self.n_instrs = n_instrs
        self.n_mem = n_mem
        self.count = 0          # occurrences in the schedule
        self.eligible = False   # worth memoizing (repeats)
        self.has_dataflow = False  # live-in/def/memory summaries built
        self.live_ins: tuple[int, ...] = ()
        self.defs: tuple[int, ...] = ()
        self.load_sel: tuple[int, ...] = ()    # chunk positions of loads
        self.store_sel: tuple[int, ...] = ()   # chunk positions of stores
        #: chunk position -> True for loads (False for stores)
        self.is_load_pos: tuple[bool, ...] = ()
        #: True when the block has both loads and stores, i.e. when the
        #: store→load aliasing structure can vary between instances.
        self.needs_mem_key = False
        #: C-speed selectors: address chunk -> tuple of load/store addrs.
        self.load_get = None
        self.store_get = None
        #: Address chunk -> mem_key.  The aliasing structure depends only
        #: on the chunk, not the machine, so this lives on the (shared)
        #: plan and warms across the whole machine grid.
        self.mem_key_cache: dict | None = None


@dataclass(slots=True)
class _Plan:
    """A compressed, machine-independent replay schedule for one trace."""

    blocks: list[_Block]
    schedule: list[int]
    #: Lazily built SoA view (:class:`repro.sim.replay_vec.PlanVec`);
    #: machine-independent, shared by every core replaying this trace.
    vec: object = None


def _selector(positions):
    """A callable mapping an address chunk to a tuple of its entries at
    ``positions`` (``operator.itemgetter``, normalized to always return a
    tuple even for a single position)."""
    if len(positions) == 1:
        j = positions[0]
        return lambda chunk, _j=j: (chunk[_j],)
    return itemgetter(*positions)


def _merge_segments(
    a: tuple[tuple[int, int], ...], b: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, int], ...]:
    """Concatenate two segment lists, fusing at a contiguous seam."""
    last_start, last_len = a[-1]
    first_start, first_len = b[0]
    if last_start + last_len == first_start:
        return (a[:-1]
                + ((last_start, last_len + first_len),)
                + b[1:])
    return a + b


def build_plan(
    trace: Trace,
    *,
    phases: tuple[tuple[int, int], ...] = _MERGE_PHASES,
    max_passes: int = _MAX_PASSES,
) -> _Plan:
    """Compress ``trace``'s run sequence into a block schedule.

    Pure function of the trace (and the tuning knobs): no randomness, no
    machine state — required so serial and parallel engine runs produce
    identical replay statistics.
    """
    entries, _ = _static_skeleton(trace)
    mem_prefix = [0] * (len(entries) + 1)
    acc = 0
    for i, (_, _, _, il, ist, _) in enumerate(entries):
        if il or ist:
            acc += 1
        mem_prefix[i + 1] = acc

    blocks: list[_Block] = []
    block_of_run: dict[tuple[int, int], int] = {}
    seq: list[int] = []
    for start, length in zip(trace.run_starts, trace.run_lengths):
        bid = block_of_run.get((start, length))
        if bid is None:
            bid = len(blocks)
            block_of_run[(start, length)] = bid
            blocks.append(_Block(
                ((start, length),), length,
                mem_prefix[start + length] - mem_prefix[start],
            ))
        seq.append(bid)

    block_of_pair: dict[tuple[int, int], int] = {}
    for min_repeat, max_block in phases:
        for _ in range(max_passes):
            if len(seq) < 2 * min_repeat:
                break
            pair_counts = Counter(zip(seq, seq[1:]))
            good = {
                pair for pair, c in pair_counts.items()
                if c >= min_repeat
                and blocks[pair[0]].n_instrs + blocks[pair[1]].n_instrs
                <= max_block
            }
            if not good:
                break
            out: list[int] = []
            append = out.append
            i = 0
            n = len(seq)
            while i < n - 1:
                pair = (seq[i], seq[i + 1])
                if pair in good:
                    bid = block_of_pair.get(pair)
                    if bid is None:
                        bid = len(blocks)
                        block_of_pair[pair] = bid
                        a, b = blocks[pair[0]], blocks[pair[1]]
                        blocks.append(_Block(
                            _merge_segments(a.segments, b.segments),
                            a.n_instrs + b.n_instrs,
                            a.n_mem + b.n_mem,
                        ))
                    append(bid)
                    i += 2
                else:
                    append(seq[i])
                    i += 1
            if i == n - 1:
                append(seq[i])
            if len(out) == len(seq):
                break
            seq = out

    for bid, count in Counter(seq).items():
        block = blocks[bid]
        block.count = count
        block.eligible = count >= 2

    return _Plan(blocks=blocks, schedule=seq)


def _block_dataflow(block: _Block, entries: list) -> None:
    """Compute a block's live-in/def/memory summaries (idempotent).

    ``entries`` is the static skeleton from :func:`_static_skeleton`.
    Built on first need: by the scalar memo loop for the blocks it keys
    (:meth:`ReplayCore._run_memoized`), by the resolve capture for the
    blocks it replays directly, and by :func:`repro.sim.replay_vec.
    build_plan_vec`.  A replay adopting a persisted memo and plan never
    builds any.
    """
    if block.has_dataflow:
        return
    live: list[int] = []
    live_set: set[int] = set()
    defs: list[int] = []
    defs_set: set[int] = set()
    load_sel: list[int] = []
    store_sel: list[int] = []
    pos = 0
    for start, length in block.segments:
        for si in range(start, start + length):
            srcs, dest, _, il, ist, _ = entries[si]
            for fr in srcs:
                if fr not in defs_set and fr not in live_set:
                    live_set.add(fr)
                    live.append(fr)
            if dest >= 0 and dest not in defs_set:
                defs_set.add(dest)
                defs.append(dest)
            if il:
                load_sel.append(pos)
                pos += 1
            elif ist:
                store_sel.append(pos)
                pos += 1
    block.live_ins = tuple(live)
    block.defs = tuple(defs)
    block.load_sel = tuple(load_sel)
    block.store_sel = tuple(store_sel)
    is_load_pos = [False] * pos
    for j in load_sel:
        is_load_pos[j] = True
    block.is_load_pos = tuple(is_load_pos)
    block.needs_mem_key = bool(load_sel and store_sel)
    if block.needs_mem_key:
        block.load_get = _selector(load_sel)
        block.store_get = _selector(store_sel)
        block.mem_key_cache = {}
    block.has_dataflow = True


def plan_for(trace: Trace) -> _Plan:
    """The (lazily built, cached) replay plan of ``trace``."""
    plan = trace._plan
    if plan is None:
        plan = build_plan(trace)
        trace._plan = plan
    return plan


# --------------------------------------------------------------------------
# Replay execution
# --------------------------------------------------------------------------

@dataclass(slots=True)
class ReplayStats:
    """Counters from one replay (attached to timing results)."""

    blocks: int = 0              # block events in the replay schedule
    memo_hits: int = 0
    memo_misses: int = 0
    fallbacks: int = 0           # blocks forced direct by a pending store
    memo_instructions: int = 0   # instructions advanced via memo hits
    direct_instructions: int = 0  # instructions replayed one at a time
    #: Block events replayed by the vectorized kernel (0 on scalar runs;
    #: equals ``blocks`` when a vectorized replay verified end to end).
    vectorized_blocks: int = 0
    #: Block events replayed by the scalar engine after a vectorized
    #: verification failed mid-grid (the whole run falls back).
    scalar_fallback_blocks: int = 0
    #: Memo hits served from entries adopted out of a persisted memo
    #: payload on disk rather than learned live.
    memo_persisted_hits: int = 0

    def as_dict(self) -> dict:
        return {
            "blocks": self.blocks,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "fallbacks": self.fallbacks,
            "memo_instructions": self.memo_instructions,
            "direct_instructions": self.direct_instructions,
            "vectorized_blocks": self.vectorized_blocks,
            "scalar_fallback_blocks": self.scalar_fallback_blocks,
            "memo_persisted_hits": self.memo_persisted_hits,
        }

    def record_to(self, metrics) -> None:
        """Fold these counters into a metrics registry
        (:class:`repro.obs.metrics.MetricsRegistry`) under the
        ``replay.*`` namespace — the bridge between per-replay memo
        statistics and run-level metrics/reports."""
        if not metrics.enabled:
            return
        metrics.incr("replay.blocks", self.blocks)
        metrics.incr("replay.memo_hits", self.memo_hits)
        metrics.incr("replay.memo_misses", self.memo_misses)
        metrics.incr("replay.fallbacks", self.fallbacks)
        metrics.incr("replay.memo_instructions", self.memo_instructions)
        metrics.incr("replay.direct_instructions",
                     self.direct_instructions)
        metrics.incr("replay.vectorized_blocks", self.vectorized_blocks)
        metrics.incr("replay.scalar_fallback_blocks",
                     self.scalar_fallback_blocks)
        metrics.incr("replay.memo_persisted_hits",
                     self.memo_persisted_hits)


@dataclass(slots=True)
class ReplayOutcome:
    """Raw result of one replay, before timing bookkeeping."""

    minor_cycles: int            # completion time of the last result
    final_issue: int             # issue time of the last instruction
    stalls: StallBreakdown | None
    times: list[int] | None      # per-event issue times (want_times mode)
    stats: ReplayStats


class ReplayCore:
    """Replays one trace on one machine, memoizing repeated blocks.

    A core is single-mode (``observe`` / ``want_times`` fixed at
    construction) because memo entries store mode-dependent payloads.
    Memo tables persist across :meth:`run` calls, so replaying the same
    core twice is memo-warm.
    """

    __slots__ = ("trace", "config", "records", "max_reg", "plan",
                 "observe", "want_times", "_klasses", "_width",
                 "_stall_on_branches", "_has_units", "_tables",
                 "_block_unit_cache", "_hit_counts", "_miss_counts",
                 "_records", "_flat", "_rec_ids", "_vec",
                 "_adopted", "_learned", "_unit_states")

    def __init__(self, trace: Trace, config: MachineConfig, *,
                 observe: bool = False, want_times: bool = False) -> None:
        self.trace = trace
        self.config = config
        #: Per-static-instruction issue records (:func:`_static_records`)
        #: and the highest register index, built on first need by
        #: :meth:`_static` — a vectorized replay of adopted records uses
        #: them only to find a block's functional units.
        self.records: list[tuple] | None = None
        self.max_reg = 0
        #: Distinct shared :class:`_UnitState` objects from ``records``;
        #: their ``free`` times are absolute minor cycles within one
        #: run, so every scalar run starts by zeroing them (rerunning a
        #: core must be a fresh replay, not a continuation).
        self._unit_states: list[_UnitState] = []
        self.plan = plan_for(trace)
        self.observe = observe
        self.want_times = want_times
        self._klasses = (
            [ins.op.klass for ins in trace.static] if observe else None
        )
        self._width = config.issue_width
        self._stall_on_branches = config.branch_policy == "stall"
        self._has_units = bool(config.units)
        n_blocks = len(self.plan.blocks)
        #: Per-block memo table; ``None`` marks a block that is replayed
        #: directly (ineligible from the start, or blacklisted later), so
        #: the hot loop needs a single list index to dispatch.
        self._tables: list[dict | None] = [
            {} if b.eligible else None for b in self.plan.blocks
        ]
        self._block_unit_cache: list[tuple | None] = [None] * n_blocks
        self._hit_counts = [0] * n_blocks
        self._miss_counts = [0] * n_blocks
        #: What the last scalar *resolving* run recorded (NumPy
        #: backend): the distinct records ``(bid, key, entry, kind)`` —
        #: ``kind`` 0 for table-backed events, 1 for direct/fallback
        #: replays — and one record id per schedule event
        #: (:func:`_id_array`).
        self._records: list | None = None
        self._rec_ids = None
        #: The records flattened into arrays
        #: (:func:`repro.sim.replay_vec.flatten_records`), the input of
        #: the vectorized kernel and the persisted memo payload: built
        #: from ``_records`` on first need, or adopted from a payload.
        self._flat: dict | None = None
        #: ``None`` (not built) or the per-core arrays for the
        #: vectorized kernel.
        self._vec: object = None
        #: True when the records (NumPy) or memo tables (scalar) came
        #: from a persisted payload: their hits count as
        #: ``memo_persisted_hits``.
        self._adopted = False
        #: ``id()`` of every table entry learned since adoption (scalar
        #: backend): hits on them are live, not persisted.
        self._learned: set[int] = set()

    def _plan_vec(self, persisted=None):
        """The (lazily built) SoA view of the plan, shared per trace;
        taken from ``persisted`` plan arrays when they fit."""
        pv = self.plan.vec
        if pv is None:
            entries, _ = _static_skeleton(self.trace)
            pv = _replay_vec.build_plan_vec(
                self.trace, self.plan, entries,
                lambda block: _block_dataflow(block, entries),
                persisted,
            )
            self.plan.vec = pv
        return pv

    def _flat_records(self) -> dict | None:
        """The flattened records (NumPy backend), flattening this
        process's resolve on first need; ``None`` before any."""
        if self._flat is None and self._records is not None:
            self._flat = _replay_vec.flatten_records(self, self._plan_vec())
        return self._flat

    def export_memo(self) -> dict:
        """Snapshot the learned memo state as a persistable payload.

        Under the NumPy backend the payload is the last resolving run's
        records, flattened into int64 arrays
        (:data:`repro.sim.replay_vec.FLAT_FIELDS`), plus one int32
        record id per schedule event; it holds no memo tables.  Under
        the scalar backend it is the live memo tables (shared, not
        copied) and ``record_ids`` is ``None``.  Adopted by a later
        core via :meth:`adopt_memo`; stored on disk by
        :mod:`repro.sim.memo`.
        """
        payload = {
            "format": MEMO_PAYLOAD_FORMAT,
            "key_format": BACKEND,
            "mode": (self.observe, self.want_times),
            "record_ids": self._rec_ids,
        }
        if _np is None:
            payload["tables"] = self._tables
        else:
            payload.update(self._flat_records() or {})
        return payload

    def adopt_memo(self, payload) -> bool:
        """Adopt a persisted memo payload; ``False`` leaves state untouched.

        Structural validation mirrors the trace cache: a payload with
        the wrong format tag, backend key format, replay mode or field
        set, a malformed record-id array (dtype, length, id range), or
        (NumPy) flat record arrays of the wrong dtype or shape, or
        (scalar) tables that do not fit the plan's blocks, is reported
        stale/corrupt rather than trusted — the caller drops the cache
        entry and the core starts cold.  Records that do not fit the
        plan, or whose keys no longer verify against the dependence
        chains, cost a cold scalar re-resolve.  Entry *values* are
        trusted: on disk they are covered by the store's content digest
        (:mod:`repro.sim.memo`).
        """
        try:
            if payload.get("format") != MEMO_PAYLOAD_FORMAT:
                return False
            if payload.get("key_format") != BACKEND:
                return False
            if payload.get("mode") != (self.observe, self.want_times):
                return False
            body = (("tables",) if _np is None
                    else _replay_vec.FLAT_FIELDS)
            if payload.keys() != {*_MEMO_HEADER, *body}:
                return False
            if _np is None:
                return self._adopt_tables(payload)
            flat = _replay_vec.check_flat(payload, self.observe)
            ids = payload["record_ids"]
            if flat is None or not _valid_ids(
                    ids, flat["scalars"].shape[0], len(self.plan.schedule)):
                return False
        except (AttributeError, TypeError, KeyError):
            return False
        self._flat = flat
        self._records = None
        self._rec_ids = ids
        self._vec = None
        self._adopted = True
        return True

    def _adopt_tables(self, payload) -> bool:
        """Adopt a scalar-backend payload's memo tables when they fit."""
        blocks = self.plan.blocks
        tables = payload["tables"]
        if payload["record_ids"] is not None:
            return False
        if not isinstance(tables, list) or len(tables) != len(blocks):
            return False
        for bid, table in enumerate(tables):
            if table is None:
                continue
            if not isinstance(table, dict) or not blocks[bid].eligible:
                return False
            for key, entry in table.items():
                if not isinstance(key, tuple) or len(key) != 6:
                    return False
                if not isinstance(entry, tuple) or len(entry) != 9:
                    return False
        self._tables = tables
        self._adopted = True
        self._learned = set()
        return True

    def _static(self) -> list[tuple]:
        """The static issue records, building them (with ``max_reg`` and
        the unit states) on first need."""
        records = self.records
        if records is None:
            records, self.max_reg = _static_records(self.trace, self.config)
            seen_units: dict[int, _UnitState] = {}
            for rec in records:
                unit = rec[3]
                if unit is not None:
                    seen_units[id(unit)] = unit
            self._unit_states = list(seen_units.values())
            self.records = records
        return records

    def _block_units(self, bid: int) -> tuple:
        """Distinct functional units a block uses, in first-use order."""
        units = self._block_unit_cache[bid]
        if units is None:
            seen: list = []
            records = self._static()
            for start, length in self.plan.blocks[bid].segments:
                for si in range(start, start + length):
                    unit = records[si][3]
                    if unit is not None and unit not in seen:
                        seen.append(unit)
            units = tuple(seen)
            self._block_unit_cache[bid] = units
        return units

    def _replay_segments(self, segments, m, reg_ready, mem_ready,
                         cur_cycle, cur_count, branch_floor,
                         charge, times, store_log=None):
        """Direct per-instruction replay of ``segments``.

        The one and only copy of the paper's in-order issue model;
        ``charge`` is ``None`` or a ``(klass, cause_index, cycles)``
        sink, ``times`` is ``None`` or a list collecting issue times,
        ``store_log`` is ``None`` or a list collecting a
        ``(finish, addr)`` pair per store, in order (used by the memo
        capture and the pending-store fallback check).
        Returns ``(m, cur_cycle, cur_count, branch_floor, local_finish)``
        where ``local_finish`` is the completion horizon of *these*
        instructions only.
        """
        records = self.records
        mem_addrs = self.trace.mem_addrs
        width = self._width
        stall_on_branches = self._stall_on_branches
        klasses = self._klasses
        mem_get = mem_ready.get
        tappend = times.append if times is not None else None
        sfappend = store_log.append if store_log is not None else None
        local_finish = 0
        addr = -1

        for start, length in segments:
            for si in range(start, start + length):
                srcs, dest, lat, unit, is_load, is_store, is_cbr = \
                    records[si]

                t = cur_cycle
                if t < branch_floor:
                    t = branch_floor
                floor_mark = t
                for s in srcs:
                    r = reg_ready[s]
                    if r > t:
                        t = r
                raw_mark = t
                if is_load:
                    addr = mem_addrs[m]
                    m += 1
                    r = mem_get(addr, 0)
                    if r > t:
                        t = r
                elif is_store:
                    addr = mem_addrs[m]
                    m += 1
                mem_mark = t

                # Find the first cycle >= t with an issue slot and a free
                # unit copy.
                if unit is None:
                    unit_free_at = -1
                    if t == cur_cycle and cur_count >= width:
                        t += 1
                else:
                    unit_free_at = min(unit.free) if charge is not None \
                        else -1
                    while True:
                        if t == cur_cycle and cur_count >= width:
                            t += 1
                        free = unit.free
                        best = 0
                        best_time = free[0]
                        for k in range(1, len(free)):
                            if free[k] < best_time:
                                best_time = free[k]
                                best = k
                        if best_time > t:
                            t = best_time
                            continue  # re-check the issue-width constraint
                        free[best] = t + unit.issue_latency
                        break

                if t > cur_cycle:
                    if charge is not None:
                        # Attribute the wait [cur_cycle, t) segment by
                        # segment; the marks are non-decreasing.
                        klass = klasses[si]
                        b = cur_cycle
                        if floor_mark > b:
                            charge(klass, 0, floor_mark - b)  # control
                            b = floor_mark
                        if raw_mark > b:
                            charge(klass, 1, raw_mark - b)    # raw_dep
                            b = raw_mark
                        if mem_mark > b:
                            charge(klass, 2, mem_mark - b)    # memory_order
                            b = mem_mark
                        if unit_free_at > b:
                            mk = unit_free_at if unit_free_at < t else t
                            charge(klass, 3, mk - b)          # unit_conflict
                            b = mk
                        if t > b:
                            charge(klass, 4, t - b)           # issue_width
                    cur_cycle = t
                    cur_count = 1
                else:
                    cur_count += 1

                finish = t + lat
                if dest >= 0:
                    reg_ready[dest] = finish
                if is_store:
                    mem_ready[addr] = finish
                    if sfappend is not None:
                        sfappend((finish, addr))
                if is_cbr and stall_on_branches:
                    branch_floor = finish
                if finish > local_finish:
                    local_finish = finish
                if tappend is not None:
                    tappend(t)

        return m, cur_cycle, cur_count, branch_floor, local_finish

    def run(self, *, memoize: bool = True) -> ReplayOutcome:
        """Replay the whole trace; ``memoize=False`` forces the direct
        per-instruction path for every block (the reference behavior the
        property tests compare against).

        Under the NumPy backend the first memoized run *resolves*
        (scalar replay capturing per-event records); later runs go
        through the vectorized kernel, which verifies every recorded
        memo key against the dependence chains and falls back to a
        scalar re-resolve on any mismatch — results are bit-identical
        to the scalar path by construction.
        """
        if not memoize:
            return self._run_plain()
        if _np is None:
            return self._run_memoized(None, resolve=False)
        pv = self._plan_vec()
        if self._vec is None and self._rec_ids is not None:
            self._vec = _replay_vec.build_core_vec(self, pv)
        if self._vec is not None:
            out = _replay_vec.run_vectorized(self, pv, self._vec)
            if out is not None:
                return out
        if self._rec_ids is None:
            return self._run_memoized(pv, resolve=True)
        # The records do not fit the plan, or a recorded key no longer
        # matches its chain (e.g. a stale adopted memo): re-resolve on
        # the scalar path.
        self._adopted = False
        out = self._run_memoized(pv, resolve=True)
        out.stats.scalar_fallback_blocks = out.stats.blocks
        return out

    def _reset_units(self) -> None:
        """Zero every functional unit's copy free-times (run start; also
        builds the static records a scalar run replays from)."""
        self._static()
        for unit in self._unit_states:
            free = unit.free
            for i in range(len(free)):
                free[i] = 0

    def _run_plain(self) -> ReplayOutcome:
        """The pure per-instruction reference path (no memoization)."""
        self._reset_units()
        trace = self.trace
        observe = self.observe
        breakdown = StallBreakdown() if observe else None
        charge = breakdown.charge if observe else None
        times: list[int] | None = [] if self.want_times else None
        stats = ReplayStats(blocks=len(self.plan.schedule))
        reg_ready = [0] * (self.max_reg + 1)
        mem_ready: dict[int, int] = {}
        m, cur_cycle, cur_count, branch_floor, last_finish = \
            self._replay_segments(
                trace.runs(), 0, reg_ready, mem_ready, 0, 0, 0,
                charge, times,
            )
        stats.direct_instructions = trace.n
        if breakdown is not None:
            breakdown.issued_cycles = last_finish - cur_cycle
        return ReplayOutcome(
            minor_cycles=last_finish, final_issue=cur_cycle,
            stalls=breakdown, times=times, stats=stats,
        )

    def _run_memoized(self, pv, *, resolve: bool) -> ReplayOutcome:
        """The scalar memoizing replay loop.

        ``pv`` is the plan's SoA view (NumPy backend) or ``None``; with
        it, the store→load aliasing key is a precomputed plan-level
        alias id instead of a per-chunk tuple.  With ``resolve=True``
        every event additionally records ``(bid, key, entry, kind)`` —
        direct and fallback replays synthesize an equivalent key/entry
        pair from their observed entry state and effects — as a record
        id into the distinct records (a table entry is recorded once
        however often it hits), feeding the vectorized kernel and the
        persisted memo payload.
        """
        self._reset_units()
        trace = self.trace
        plan = self.plan
        blocks = plan.blocks
        mem_addrs = trace.mem_addrs
        observe = self.observe
        breakdown = StallBreakdown() if observe else None
        charge = breakdown.charge if observe else None
        times: list[int] | None = [] if self.want_times else None
        stats = ReplayStats(blocks=len(plan.schedule))

        reg_ready = [0] * (self.max_reg + 1)
        mem_ready: dict[int, int] = {}
        cur_cycle = 0
        cur_count = 0
        branch_floor = 0
        last_finish = 0
        m = 0

        alias_ids = (pv.alias_ids.tolist()
                     if pv is not None and pv.alias_ids is not None
                     else None)
        records: list | None = [] if resolve else None
        rec_ids: list[int] = []
        id_append = rec_ids.append if resolve else None
        #: ``id(entry)`` -> record id; entries stay alive in ``records``
        rec_of: dict[int, int] = {}
        skel_entries = _static_skeleton(trace)[0]
        adopted = self._adopted
        learned = self._learned
        persisted = 0
        tables = self._tables
        for bid, table in enumerate(tables):
            if table is not None:
                _block_dataflow(blocks[bid], skel_entries)
        hit_counts = self._hit_counts
        miss_counts = self._miss_counts
        has_units = self._has_units
        stall = self._stall_on_branches
        # Hit/miss totals are recovered from the per-block counters
        # afterwards instead of bumping stats attributes on every event.
        hits_before = list(hit_counts)
        misses_before = list(miss_counts)
        #: Stores whose completion may still be in the future:
        #: ``(finish, addr)`` pairs, pruned lazily against the entry
        #: cycle.  In-order issue bounds the live tail by
        #: ``issue_width * max_latency``, so this stays tiny; it lets the
        #: fallback check test "any pending store aliases this chunk?"
        #: with one C-level set disjointness instead of a per-load walk
        #: of ``mem_ready``.
        pending: list[tuple[int, int]] = []

        for p, bid in enumerate(plan.schedule):
            block = blocks[bid]
            table = tables[bid]
            if table is not None:
                T0 = cur_cycle
                n_mem = block.n_mem
                reusable = True
                mem_key = ()
                ext_key = ()
                chunk = None
                if n_mem:
                    if pending:
                        pending = [e for e in pending if e[0] > T0]
                        if pending:
                            chunk = mem_addrs[m:m + n_mem]
                            if not {
                                a for _, a in pending
                            }.isdisjoint(chunk):
                                # A store from outside the block is still
                                # pending on one of this chunk's words.
                                # The wait it can impose on our loads is
                                # just a clamped ready delta, so fold it
                                # into the key instead of giving up —
                                # unless it blows the key up (then fall
                                # back to direct replay).  (The set test
                                # may match on a store position: that
                                # only adds a harmless key refinement,
                                # never a wrong hit.)
                                mem_get = mem_ready.get
                                ext = [
                                    (j, d) for j in block.load_sel
                                    if (d := mem_get(chunk[j], 0) - T0)
                                    > 0
                                ]
                                if len(ext) <= 8:
                                    ext_key = tuple(ext)
                                else:
                                    reusable = False
                    if reusable and block.needs_mem_key:
                        # Per load: latest preceding in-block store to
                        # the same word (-1 for none) — the only thing
                        # timing can see of the addresses.  Under the
                        # NumPy backend the whole address stream was
                        # analyzed up front and the structure interned
                        # to a plan-level alias id per event; otherwise
                        # the structure depends only on the chunk, so
                        # repeated chunks (and the whole machine grid
                        # after the first machine) hit the plan-level
                        # cache; on a miss the common no-alias case is
                        # decided by one C-level disjointness test.
                        if alias_ids is not None:
                            mem_key = alias_ids[p]
                        else:
                            if chunk is None:
                                chunk = mem_addrs[m:m + n_mem]
                            ckey = tuple(chunk)
                            mkc = block.mem_key_cache
                            mem_key = mkc.get(ckey)
                            if mem_key is None:
                                if set(block.store_get(ckey)).isdisjoint(
                                        block.load_get(ckey)):
                                    mem_key = ()
                                else:
                                    last_store: dict[int, int] = {}
                                    ls_get = last_store.get
                                    is_load_pos = block.is_load_pos
                                    mk = []
                                    mk_append = mk.append
                                    for j, a in enumerate(ckey):
                                        if is_load_pos[j]:
                                            mk_append(ls_get(a, -1))
                                        else:
                                            last_store[a] = j
                                    mem_key = tuple(mk)
                                if len(mkc) < _MAX_KEYS:
                                    mkc[ckey] = mem_key
                if reusable:
                    regs_key = tuple([
                        d if (d := reg_ready[r] - T0) > 0 else 0
                        for r in block.live_ins
                    ])
                    if has_units:
                        ustates = self._block_units(bid)
                        unit_key = tuple([
                            tuple(sorted([
                                d if (d := f - T0) > 0 else 0
                                for f in s.free
                            ]))
                            for s in ustates
                        ])
                    else:
                        ustates = ()
                        unit_key = ()
                    if stall:
                        d = branch_floor - T0
                        floor_key = d if d > 0 else 0
                    else:
                        floor_key = 0
                    key = (cur_count, floor_key, regs_key, unit_key,
                           mem_key, ext_key)
                    entry = table.get(key)
                    if entry is not None:
                        (d_cyc, exit_count, d_floor, regs_out, stores_out,
                         units_out, d_fin, charges, time_deltas) = entry
                        for r, dv in regs_out:
                            reg_ready[r] = T0 + dv
                        # Only stores still in flight at the exit cycle:
                        # every later load issues at or after the exit
                        # cycle, so a store finished by then can never
                        # stall anything and needs no bookkeeping at all.
                        # Applied in chunk order (finishes are monotone
                        # in position), so repeated stores to one word
                        # end on the latest finish, whatever this
                        # instance's store→store aliasing looks like.
                        for j, dv in stores_out:
                            a = mem_addrs[m + j]
                            fin = T0 + dv
                            mem_ready[a] = fin
                            pending.append((fin, a))
                        if units_out:
                            for s, deltas in zip(ustates, units_out):
                                free = s.free
                                for k, dv in enumerate(deltas):
                                    free[k] = T0 + dv
                        cur_cycle = T0 + d_cyc
                        cur_count = exit_count
                        branch_floor = T0 + d_floor
                        fin = T0 + d_fin
                        if fin > last_finish:
                            last_finish = fin
                        if charges is not None:
                            for kl, ci, cyc in charges:
                                charge(kl, ci, cyc)
                        if time_deltas is not None:
                            times.extend([T0 + dv for dv in time_deltas])
                        m += n_mem
                        hit_counts[bid] += 1
                        if adopted and id(entry) not in learned:
                            persisted += 1
                        if id_append is not None:
                            rid = rec_of.get(id(entry))
                            if rid is None:
                                rid = rec_of[id(entry)] = len(records)
                                records.append((bid, key, entry, 0))
                            id_append(rid)
                        continue
                    # Miss: replay directly, capturing the block's effect.
                    if observe:
                        cap: list | None = []
                        cap_charge = (
                            lambda kl, ci, cyc, _c=cap:
                            _c.append((kl, ci, cyc))
                        )
                    else:
                        cap = None
                        cap_charge = None
                    tcap: list[int] | None = [] if times is not None \
                        else None
                    log_start = len(pending)
                    m, cur_cycle, cur_count, branch_floor, local_fin = \
                        self._replay_segments(
                            block.segments, m, reg_ready, mem_ready,
                            cur_cycle, cur_count, branch_floor,
                            cap_charge, tcap, pending,
                        )
                    if local_fin > last_finish:
                        last_finish = local_fin
                    regs_out = tuple([
                        (r, reg_ready[r] - T0) for r in block.defs
                    ])
                    if block.store_sel:
                        # One entry per store *position* still in flight
                        # at the exit cycle (store finishes are monotone
                        # in position — same class, in-order issue — so
                        # this is a positional suffix); finishes are
                        # key-determined even when this instance's later
                        # store to the same word overwrote mem_ready.
                        # Stores finished by the exit cycle can never
                        # stall any later load and are dropped.
                        stores_out = tuple([
                            (j, se[0] - T0)
                            for j, se in zip(block.store_sel,
                                             pending[log_start:])
                            if se[0] > cur_cycle
                        ])
                        # Compact the log: only in-flight stores stay
                        # pending.
                        pending[log_start:] = [
                            e for e in pending[log_start:]
                            if e[0] > cur_cycle
                        ]
                    else:
                        stores_out = ()
                    if ustates:
                        units_out = tuple([
                            tuple(sorted([
                                d if (d := f - T0) > 0 else 0
                                for f in s.free
                            ]))
                            for s in ustates
                        ])
                    else:
                        units_out = ()
                    d = branch_floor - T0
                    entry = (
                        cur_cycle - T0,
                        cur_count,
                        d if d > 0 else 0,
                        regs_out,
                        stores_out,
                        units_out,
                        local_fin - T0,
                        tuple(cap) if cap is not None else None,
                        tuple([t - T0 for t in tcap])
                        if tcap is not None else None,
                    )
                    table[key] = entry
                    if adopted:
                        learned.add(id(entry))
                    if id_append is not None:
                        rec_of[id(entry)] = len(records)
                        id_append(len(records))
                        records.append((bid, key, entry, 0))
                    if cap is not None:
                        for kl, ci, cyc in cap:
                            charge(kl, ci, cyc)
                    if tcap is not None:
                        times.extend(tcap)
                    miss_counts[bid] += 1
                    if ((miss_counts[bid] >= _BLACKLIST_MISSES
                         and hit_counts[bid] == 0)
                            or len(table) > _MAX_KEYS):
                        # Keys never repeat (or explode): stop paying for
                        # key construction and drop the table.
                        tables[bid] = None
                    continue
                stats.fallbacks += 1
            # Direct replay: ineligible, blacklisted, or fallback.
            if id_append is None:
                m, cur_cycle, cur_count, branch_floor, local_fin = \
                    self._replay_segments(
                        block.segments, m, reg_ready, mem_ready,
                        cur_cycle, cur_count, branch_floor, charge,
                        times, pending,
                    )
                if local_fin > last_finish:
                    last_finish = local_fin
                continue
            # Resolving: synthesize the equivalent key/entry pair for
            # this direct replay so the vectorized kernel can verify
            # and advance over it like any memo hit.  The key mirrors
            # the memoized path exactly, except the external-wait
            # component is uncapped (nothing is being interned here).
            T0 = cur_cycle
            _block_dataflow(block, skel_entries)
            ext_rec = ()
            if block.load_sel and pending:
                live = [e for e in pending if e[0] > T0]
                if live:
                    chunkd = mem_addrs[m:m + block.n_mem]
                    mem_get = mem_ready.get
                    ext_rec = tuple([
                        (j, d) for j in block.load_sel
                        if (d := mem_get(chunkd[j], 0) - T0) > 0
                    ])
            regs_key = tuple([
                d if (d := reg_ready[r] - T0) > 0 else 0
                for r in block.live_ins
            ])
            if has_units:
                ustates_d = self._block_units(bid)
                unit_key = tuple([
                    tuple(sorted([
                        d if (d := f - T0) > 0 else 0
                        for f in s.free
                    ]))
                    for s in ustates_d
                ])
            else:
                ustates_d = ()
                unit_key = ()
            d = branch_floor - T0
            key = (cur_count, d if d > 0 else 0, regs_key, unit_key,
                   alias_ids[p] if block.needs_mem_key else (), ext_rec)
            if observe:
                cap = []
                cap_charge = (
                    lambda kl, ci, cyc, _c=cap:
                    _c.append((kl, ci, cyc))
                )
            else:
                cap = None
                cap_charge = None
            tcap = [] if times is not None else None
            log_start = len(pending)
            m, cur_cycle, cur_count, branch_floor, local_fin = \
                self._replay_segments(
                    block.segments, m, reg_ready, mem_ready,
                    cur_cycle, cur_count, branch_floor, cap_charge,
                    tcap, pending,
                )
            if local_fin > last_finish:
                last_finish = local_fin
            d = branch_floor - T0
            entry = (
                cur_cycle - T0,
                cur_count,
                d if d > 0 else 0,
                tuple([(r, reg_ready[r] - T0) for r in block.defs]),
                tuple([
                    (j, se[0] - T0)
                    for j, se in zip(block.store_sel,
                                     pending[log_start:])
                ]),
                tuple([
                    tuple(sorted([
                        d if (d := f - T0) > 0 else 0
                        for f in s.free
                    ]))
                    for s in ustates_d
                ]) if ustates_d else (),
                local_fin - T0,
                tuple(cap) if cap is not None else None,
                tuple([t - T0 for t in tcap])
                if tcap is not None else None,
            )
            if cap is not None:
                for kl, ci, cyc in cap:
                    charge(kl, ci, cyc)
            if tcap is not None:
                times.extend(tcap)
            id_append(len(records))
            records.append((bid, key, entry, 1))

        for bid, before in enumerate(hits_before):
            dh = hit_counts[bid] - before
            if dh:
                stats.memo_hits += dh
                stats.memo_instructions += dh * blocks[bid].n_instrs
        for bid, before in enumerate(misses_before):
            dm = miss_counts[bid] - before
            if dm:
                stats.memo_misses += dm
        stats.direct_instructions = trace.n - stats.memo_instructions
        stats.memo_persisted_hits = persisted
        if records is not None:
            self._records = records
            self._rec_ids = _id_array(rec_ids)
            self._flat = self._vec = None

        if breakdown is not None:
            breakdown.issued_cycles = last_finish - cur_cycle
        return ReplayOutcome(
            minor_cycles=last_finish, final_issue=cur_cycle,
            stalls=breakdown, times=times, stats=stats,
        )


def replay(trace: Trace, config: MachineConfig, *,
           observe: bool = False, want_times: bool = False,
           memoize: bool = True) -> ReplayOutcome:
    """Replay ``trace`` on ``config`` with a fresh :class:`ReplayCore`."""
    core = ReplayCore(trace, config, observe=observe,
                      want_times=want_times)
    return core.run(memoize=memoize)
