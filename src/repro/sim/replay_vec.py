"""Vectorized (NumPy) replay kernel over the resolved block schedule.

The scalar replay in :mod:`repro.sim.replay` spends its steady-state
time on per-event memo-key construction and dictionary lookups — the
per-instruction loops are already amortized away by block memoization.
This module removes the per-event Python work too, by replaying the
whole schedule with array arithmetic.

The kernel operates on a **structure-of-arrays** view of the replay
plan, materialized once per trace (:func:`build_plan_vec`):

* per-event arrays: block id, instruction/memory-op counts, memory
  chunk offsets, and a precomputed *alias id* — an integer standing in
  for the block's store→load aliasing structure (the scalar path's
  ``mem_key``), computed for every schedule event in one pass over the
  address stream;
* dependence-chain structure: for every (event, live-in register) pair
  the producing event and the slot of its written-register delta; for
  every (event, functional unit, copy) the previous event using that
  unit; for every load the last store to the same word from an earlier
  block (computed with a segmented prefix-maximum over the
  lexicographically sorted address stream);
* cumulative issue-width state: the intra-cycle issue count entering
  and leaving every event.

The machine-independent arrays persist once per trace as int32
(:func:`plan_vec_payload`); :func:`build_plan_vec` takes them back
instead of rebuilding when they fit the plan.

A first, scalar *resolving* run records per event the memo key it used
and the relative-effect entry it applied (capturing equivalent records
for blocks replayed directly), as an id into the run's distinct
records — a hot block's few table entries serve thousands of events.
:func:`flatten_records` flattens each distinct record once into int64
arrays (:data:`FLAT_FIELDS`, also the persisted memo payload, so a
primed replay adopts them without any per-record Python work);
:func:`build_core_vec` builds the per-machine arrays with NumPy gathers
over the ids, and :func:`run_vectorized` then replays the schedule
without touching a Python loop:

1. entry cycles ``T`` are the prefix sum of the recorded per-event
   cycle advances;
2. every component of every event's memo key is *recomputed* from the
   chains — ``clamp(T[src] + delta[slot] - T[event])`` per register /
   unit-copy / aliased-load pair, plus the branch-floor and issue-count
   chains — and compared against the recorded key;
3. if every comparison holds, the recorded entries are exactly what the
   scalar replay would have looked up (memo entries are pure functions
   of their key), so the outcome is assembled from the arrays.

Any mismatch — a diverged table, an adopted memo from a stale file, an
inexpressible event — returns ``None`` and the caller falls back to the
scalar path, which re-resolves.  Results are therefore bit-identical by
construction: the vectorized path only ever *returns* an outcome whose
every step it has verified against the scalar model's own records.

This module must only be imported when NumPy is available
(``repro.sim.replay.BACKEND == "numpy"``).
"""

from __future__ import annotations

import numpy as np

#: Sentinel delta for "no recorded value": guaranteed to clamp to zero
#: after any ``T[src] + NEG - T[event]`` (cycle counts are < 2**40).
_NEG = -(1 << 40)

#: Format tag of persisted plan arrays (:func:`plan_vec_payload`).
PLAN_VEC_FORMAT = "replay-plan-v1"

#: The :class:`PlanVec` arrays persisted once per trace, all int32.
#: Everything else on a plan view is derived from the plan itself in a
#: few vectorized passes.
PERSISTED = ("alias_ids", "do_off", "so_off", "ev_nlive", "rp_src",
             "rp_slot", "mp_g", "mp_src", "mp_srcslot", "blk_store_off",
             "blk_store_pos")


class PlanVec:
    """Machine-independent SoA view of one replay plan (shared per trace).

    The arrays of :data:`PERSISTED` — per event the alias id,
    def/store slot offsets and live-in count; the register chains
    (``rp_*``: producer event and def slot per live-in) and the
    cross-block store→load chains (``mp_*``: global load position,
    producer event and store slot); each block's store chunk positions
    (chunk position → store ordinal) — plus what the plan yields
    directly: per-event block id, instruction count, memory chunk
    offset, and the consumer event of every chain pair.  ``loaded`` is
    True when the persisted arrays came from a payload rather than
    being built here.
    """

    __slots__ = ("n_events", "ev_bid", "ev_ninstr", "ev_mem_start",
                 "rp_ev", "mp_ev", "n_reg_slots", "n_store_slots",
                 "loaded") + PERSISTED


class CoreVec:
    """Per-(machine, mode) arrays gathered from one core's records."""

    __slots__ = (
        "d_cyc", "entry_count", "exit_count", "d_floor", "floor_key",
        "d_fin", "regs_exp", "regs_out", "units_exp", "units_out",
        "up_ev", "up_src", "up_slot", "ext_exp", "stores_out",
        "memo_hits", "fallbacks", "memo_instructions",
        "direct_instructions", "persisted_hits", "charges", "times_flat",
    )


def _segmented_prev_store(addr, is_store):
    """For every memory position, the latest *earlier* store position to
    the same word (``-1`` for none): a segmented exclusive running
    maximum over the address-sorted position stream."""
    m = addr.size
    order = np.lexsort((np.arange(m), addr))
    sa = addr[order]
    store_pos = np.where(is_store[order], order, -1)
    grp_start = np.empty(m, dtype=bool)
    grp_start[0] = True
    grp_start[1:] = sa[1:] != sa[:-1]
    prev = np.empty(m, dtype=np.int64)
    prev[0] = -1
    prev[1:] = store_pos[:-1]
    prev[grp_start] = -1
    # Reset-at-group-start running max: offset each group into a
    # disjoint value range so maxima never leak across groups.
    seg = np.cumsum(grp_start) - 1
    big = np.int64(m + 2)
    run = np.maximum.accumulate(prev + seg * big) - seg * big
    out = np.empty(m, dtype=np.int64)
    out[order] = run
    return out


def _offsets(counts):
    """Exclusive prefix sum with the total appended (length n + 1)."""
    off = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    return off


def _event_layout(pv, plan):
    """Fill the per-event arrays that follow from the plan alone;
    returns the per-event memory-op counts."""
    blocks = plan.blocks
    n = len(plan.schedule)
    pv.n_events = n
    pv.ev_bid = np.fromiter(plan.schedule, dtype=np.int32, count=n)
    n_instrs = np.fromiter((b.n_instrs for b in blocks), dtype=np.int64,
                           count=len(blocks))
    n_mems = np.fromiter((b.n_mem for b in blocks), dtype=np.int64,
                         count=len(blocks))
    pv.ev_ninstr = n_instrs[pv.ev_bid]
    ev_nmem = n_mems[pv.ev_bid]
    pv.ev_mem_start = _offsets(ev_nmem)[:-1]
    return ev_nmem


def _finish(pv):
    """Derive the slot totals and the consumer events of both chains."""
    pv.n_reg_slots = int(pv.do_off[-1])
    pv.n_store_slots = int(pv.so_off[-1])
    pv.rp_ev = np.repeat(np.arange(pv.n_events, dtype=np.int32),
                         pv.ev_nlive)
    pv.mp_ev = (np.searchsorted(pv.ev_mem_start, pv.mp_g, side="right")
                - 1).astype(np.int32)
    return pv


def plan_vec_payload(pv) -> dict:
    """The persistable form of ``pv``: its :data:`PERSISTED` arrays."""
    return {
        "format": PLAN_VEC_FORMAT,
        "n_events": pv.n_events,
        "n_blocks": len(pv.blk_store_off) - 1,
        "arrays": {name: getattr(pv, name) for name in PERSISTED},
    }


def _in_range(a, hi) -> bool:
    return a.size == 0 or (int(a.min()) >= 0 and int(a.max()) < hi)


def _is_offsets(a, n) -> bool:
    return (a.size == n + 1 and a[0] == 0
            and bool((a[1:] >= a[:-1]).all()))


def _adopt_arrays(pv, payload, n_blocks: int, m_total: int) -> bool:
    """Take ``payload``'s arrays onto ``pv`` when their dtype, shape,
    lengths and index ranges fit this plan."""
    n = pv.n_events
    try:
        if (payload.get("format") != PLAN_VEC_FORMAT
                or payload.get("n_events") != n
                or payload.get("n_blocks") != n_blocks):
            return False
        arrays = payload["arrays"]
        for name in PERSISTED:
            a = arrays[name]
            if a is None and name == "alias_ids" and m_total == 0:
                pass
            elif not (isinstance(a, np.ndarray) and a.dtype == np.int32
                      and a.ndim == 1):
                return False
            setattr(pv, name, a)
    except (AttributeError, KeyError, TypeError):
        return False
    if not (_is_offsets(pv.do_off, n) and _is_offsets(pv.so_off, n)
            and _is_offsets(pv.blk_store_off, n_blocks)):
        return False
    n_rp, n_mp = pv.rp_src.size, pv.mp_g.size
    return (
        (pv.alias_ids is None or pv.alias_ids.size == n)
        and pv.ev_nlive.size == n and _in_range(pv.ev_nlive, n_rp + 1)
        and int(pv.ev_nlive.sum()) == n_rp == pv.rp_slot.size
        and pv.mp_src.size == pv.mp_srcslot.size == n_mp
        and pv.blk_store_pos.size == pv.blk_store_off[-1]
        and _in_range(pv.rp_src, n)
        and _in_range(pv.rp_slot, int(pv.do_off[-1]) + 1)
        and _in_range(pv.mp_g, m_total) and _in_range(pv.mp_src, n)
        and _in_range(pv.mp_srcslot, int(pv.so_off[-1]))
    )


def build_plan_vec(trace, plan, entries, ensure_dataflow, persisted=None):
    """The machine-independent SoA arrays for ``plan``.

    With ``persisted`` (a :func:`plan_vec_payload` read back from the
    memo store) that fits this plan, the arrays are taken as they are
    and ``loaded`` is set.  Otherwise they are built: ``entries`` is the
    static skeleton, ``ensure_dataflow`` a callable filling in a block's
    live-in/def/load/store summaries (needed for blocks the scalar path
    replays directly and never summarizes).
    """
    blocks = plan.blocks
    schedule = plan.schedule
    pv = PlanVec()
    ev_nmem = _event_layout(pv, plan)
    m_total = len(trace.mem_addrs)
    pv.loaded = persisted is not None and _adopt_arrays(
        pv, persisted, len(blocks), m_total)
    if pv.loaded:
        return _finish(pv)

    n_events = pv.n_events
    used = sorted(set(schedule))
    for bid in used:
        ensure_dataflow(blocks[bid])
    store_counts = np.zeros(len(blocks), dtype=np.int64)
    store_pos: list[int] = []
    for bid in used:
        sel = blocks[bid].store_sel
        store_counts[bid] = len(sel)
        store_pos.extend(sel)
    pv.blk_store_off = _offsets(store_counts).astype(np.int32)
    pv.blk_store_pos = np.asarray(store_pos, dtype=np.int32)
    so_off = _offsets(store_counts[pv.ev_bid])
    pv.so_off = so_off.astype(np.int32)
    ev_mem_start = pv.ev_mem_start

    # ---- memory structure: alias ids + cross-block store→load pairs
    # A view of the trace's int32 buffer: only sorted and compared.
    addr = np.frombuffer(trace.mem_addrs, dtype=np.intc)
    if m_total:
        store_pat = {}
        parts = []
        for bid in schedule:
            pat = store_pat.get(bid)
            if pat is None:
                block = blocks[bid]
                pat = np.zeros(block.n_mem, dtype=bool)
                if block.store_sel:
                    pat[list(block.store_sel)] = True
                store_pat[bid] = pat
            parts.append(pat)
        is_store_g = np.concatenate(parts)
        prev_store = _segmented_prev_store(addr, is_store_g)
        ev_of = np.repeat(np.arange(n_events, dtype=np.int64), ev_nmem)
        ev_start_of = ev_mem_start[ev_of]

        # Alias id per event: the store→load matching inside the chunk,
        # interned to one int (first-appearance order — deterministic,
        # so persisted memo keys agree across processes).
        intra = np.where(prev_store >= ev_start_of, prev_store
                         - ev_start_of, -1)
        intern: dict[tuple, int] = {}
        alias_ids = [0] * n_events
        for p, bid in enumerate(schedule):
            block = blocks[bid]
            if not block.needs_mem_key:
                continue
            base = int(ev_mem_start[p])
            key = tuple(int(intra[base + j]) for j in block.load_sel)
            aid = intern.get(key)
            if aid is None:
                aid = len(intern) + 1
                intern[key] = aid
            alias_ids[p] = aid
        pv.alias_ids = np.asarray(alias_ids, dtype=np.int32)

        # Per load, the last store to the same word *before its block*:
        # follow the in-block chain out of the block (store finishes are
        # position-monotone, so only the latest pre-block store can ever
        # impose a wait).
        load_pat = {}
        parts = []
        for bid in schedule:
            pat = load_pat.get(bid)
            if pat is None:
                block = blocks[bid]
                pat = np.zeros(block.n_mem, dtype=bool)
                if block.load_sel:
                    pat[list(block.load_sel)] = True
                load_pat[bid] = pat
            parts.append(pat)
        is_load_g = np.concatenate(parts)
        ls_pre = prev_store.copy()
        mask = (ls_pre >= 0) & (ls_pre >= ev_start_of)
        while mask.any():
            ls_pre[mask] = prev_store[ls_pre[mask]]
            mask = (ls_pre >= 0) & (ls_pre >= ev_start_of)
        mp_g = np.nonzero(is_load_g & (ls_pre >= 0))[0]
        src_g = ls_pre[mp_g]
        # store ordinal within its event = stores before it in the event
        s_excl = _offsets(is_store_g)
        mp_src = ev_of[src_g]
        pv.mp_g = mp_g.astype(np.int32)
        pv.mp_src = mp_src.astype(np.int32)
        pv.mp_srcslot = (so_off[mp_src] + s_excl[src_g]
                         - s_excl[ev_mem_start[mp_src]]).astype(np.int32)
    else:
        pv.alias_ids = None
        pv.mp_g = pv.mp_src = pv.mp_srcslot = np.zeros(0, dtype=np.int32)

    # ---- register dependence chains (last definition wins)
    do_off = _offsets(np.fromiter(
        (len(blocks[b].defs) for b in schedule), dtype=np.int64,
        count=n_events))
    pv.do_off = do_off.astype(np.int32)
    n_def_slots = int(do_off[-1])
    max_reg = 0
    for b in used:
        block = blocks[b]
        for r in block.live_ins:
            if r > max_reg:
                max_reg = r
        for r in block.defs:
            if r > max_reg:
                max_reg = r
    last_def: list = [None] * (max_reg + 1)
    nlive = np.fromiter((len(blocks[b].live_ins) for b in schedule),
                        dtype=np.int32, count=n_events)
    rp_src: list[int] = []
    rp_slot: list[int] = []
    for p, bid in enumerate(schedule):
        block = blocks[bid]
        for r in block.live_ins:
            src = last_def[r]
            if src is None:
                rp_src.append(0)
                rp_slot.append(n_def_slots)  # sentinel: clamps to zero
            else:
                rp_src.append(src[0])
                rp_slot.append(src[1])
        base = int(do_off[p])
        for k, r in enumerate(block.defs):
            last_def[r] = (p, base + k)
    pv.ev_nlive = nlive
    pv.rp_src = np.asarray(rp_src, dtype=np.int32)
    pv.rp_slot = np.asarray(rp_slot, dtype=np.int32)
    return _finish(pv)


def _ragged(flat, lens, ids):
    """Gather variable-length runs: record ``r`` owns the next
    ``lens[r]`` values of ``flat`` (records laid end to end); returns
    the runs of ``ids``, concatenated, and their lengths."""
    lens = np.asarray(lens, dtype=np.int64)
    starts = _offsets(lens)[:-1]
    ev_lens = lens[ids]
    ends = np.cumsum(ev_lens)
    total = int(ends[-1]) if ends.size else 0
    idx = np.repeat(starts[ids] - ends + ev_lens, ev_lens)
    idx += np.arange(total, dtype=np.int64)
    return np.asarray(flat, dtype=np.int64)[idx], ev_lens


def _unit_chains(core, pv):
    """The functional-unit occupancy chains: for every (event, unit the
    block uses, copy) the previous event using that unit and the slot of
    its recorded free-time delta (a sentinel slot when there is none).
    Returns ``(up_ev, up_src, up_slot, widths)``, ``widths`` holding
    each event's number of unit-copy slots."""
    n_blocks = len(core.plan.blocks)
    unit_of: dict[int, int] = {}
    mults: list[int] = []
    lens = np.zeros(n_blocks, dtype=np.int64)
    block_width = np.zeros(n_blocks, dtype=np.int64)
    flat: list[int] = []
    for bid in np.unique(pv.ev_bid).tolist():
        units = core._block_units(bid)
        lens[bid] = len(units)
        for s in units:
            gid = unit_of.get(id(s))
            if gid is None:
                gid = unit_of[id(s)] = len(mults)
                mults.append(len(s.free))
            flat.append(gid)
            block_width[bid] += len(s.free)
    use_gid, per_event = _ragged(flat, lens, pv.ev_bid)
    n_uses = use_gid.size
    use_ev = np.repeat(np.arange(pv.n_events, dtype=np.int64), per_event)
    copies = np.asarray(mults, dtype=np.int64)[use_gid]
    slot = _offsets(copies)
    n_slots = int(slot[-1])
    slot = slot[:-1]
    # Previous use of the same unit: neighbours in (unit, use) order.
    order = np.lexsort((np.arange(n_uses), use_gid))
    prev = np.full(n_uses, -1, dtype=np.int64)
    same = use_gid[order[1:]] == use_gid[order[:-1]]
    prev[order[1:][same]] = order[:-1][same]
    has = prev >= 0
    copy = np.arange(n_slots, dtype=np.int64) - np.repeat(slot, copies)
    up_src = np.repeat(np.where(has, use_ev[prev], 0), copies)
    up_slot = np.where(np.repeat(has, copies),
                       np.repeat(slot[prev], copies) + copy, n_slots)
    return (np.repeat(use_ev, copies).astype(np.int32),
            up_src.astype(np.int32), up_slot, block_width[pv.ev_bid])


#: Ragged per-record fields of a flattened record set (int64, records
#: laid end to end), each with the name of its per-record length array.
RAGGED = (("regs", "regs_n"), ("defs", "defs_n"), ("stores", "stores_n"),
          ("ext_j", "ext_n"), ("ext_d", "ext_n"), ("u_exp", "u_n"),
          ("u_out", "u_n"), ("times", "times_n"))

#: Every field of a flattened record set: the per-record ``scalars``
#: (n x 9: bid, d_cyc, exit_count, d_floor, d_fin, entry_count,
#: floor_key, n_instrs, kind), the ragged fields and their lengths, and
#: the observe-mode charge lists (``None`` in other modes).
FLAT_FIELDS = ("scalars",) + tuple(dict.fromkeys(
    name for pair in RAGGED for name in pair)) + ("charges",)


def flatten_records(core, pv) -> dict:
    """Flatten a resolving run's distinct records (``core._records``)
    into the :data:`FLAT_FIELDS` arrays: the in-process input of
    :func:`build_core_vec` and the persisted memo payload's body.

    ``kind`` is 0 for a direct replay, 1 for a fallback, 2 for a memo
    hit.  Stores are dense per record (one slot per store of the block,
    ``_NEG`` where nothing is in flight at the exit cycle).
    """
    blocks = core.plan.blocks
    tables = core._tables
    observe = core.observe
    want_times = core.want_times
    want_units = core._has_units
    sto_off = pv.blk_store_off.tolist()
    sto_pos = pv.blk_store_pos.tolist()
    records = core._records
    scalars: list[tuple] = []
    lists = {name: [] for name in FLAT_FIELDS[1:-1]}
    regs, regs_n = lists["regs"], lists["regs_n"]
    defs, defs_n = lists["defs"], lists["defs_n"]
    stores, stores_n = lists["stores"], lists["stores_n"]
    ext_j, ext_d, ext_n = lists["ext_j"], lists["ext_d"], lists["ext_n"]
    u_exp, u_out, u_n = lists["u_exp"], lists["u_out"], lists["u_n"]
    times, times_n = lists["times"], lists["times_n"]
    charges: list | None = [] if observe else None
    for bid, key, entry, kind in records:
        (d_cyc, exit_count, d_floor, regs_out, stores_out, units_out,
         d_fin, charge_list, time_deltas) = entry
        entry_count, floor_key, regs_key, unit_key, _, ext = key
        n_instrs = blocks[bid].n_instrs
        kind_of = 0 if tables[bid] is None else 1 if kind else 2
        scalars.append((bid, d_cyc, exit_count, d_floor, d_fin,
                        entry_count, floor_key, n_instrs, kind_of))
        regs.extend(regs_key)
        regs_n.append(len(regs_key))
        defs.extend([dv for _, dv in regs_out])
        defs_n.append(len(regs_out))
        lo = sto_off[bid]
        n_sto = sto_off[bid + 1] - lo
        dense = [_NEG] * n_sto
        if stores_out:
            # chunk position -> store ordinal within the block
            sel = sto_pos[lo:lo + n_sto]
            for j, dv in stores_out:
                dense[sel.index(j)] = dv
        stores.extend(dense)
        stores_n.append(n_sto)
        for j, dv in ext:
            ext_j.append(j)
            ext_d.append(dv)
        ext_n.append(len(ext))
        width = 0
        if want_units:
            for exp_frees, out_frees in zip(unit_key, units_out):
                u_exp.extend(exp_frees)
                u_out.extend(out_frees)
                width += len(exp_frees)
        u_n.append(width)
        if observe:
            charges.append(charge_list)
        if want_times:
            times.extend(time_deltas)
            times_n.append(n_instrs)
        else:
            times_n.append(0)
    flat = {name: np.array(values, dtype=np.int64)
            for name, values in lists.items()}
    flat["scalars"] = np.array(scalars, dtype=np.int64).reshape(-1, 9)
    flat["charges"] = charges
    return flat


def _is_int64(a, ndim: int) -> bool:
    return (isinstance(a, np.ndarray) and a.dtype == np.int64
            and a.ndim == ndim)


def check_flat(payload, observe: bool) -> dict | None:
    """The :data:`FLAT_FIELDS` of ``payload`` when their dtype and
    shape fit: int64 arrays, ``scalars`` n x 9, every ``*_n`` of length
    n, non-negative and summing to its values' length, and a charge
    list per record in observe mode (``None`` otherwise).  Values are
    not checked here: the store's digest covers them on disk and the
    kernel verifies every recorded key against the dependence chains.
    """
    scalars = payload["scalars"]
    if not (_is_int64(scalars, 2) and scalars.shape[1] == 9):
        return None
    n = scalars.shape[0]
    flat = {"scalars": scalars}
    for vals, lens in RAGGED:
        v, ln = payload[vals], payload[lens]
        if not (_is_int64(v, 1) and _is_int64(ln, 1) and ln.size == n
                and (n == 0 or int(ln.min()) >= 0)
                and int(ln.sum()) == v.size):
            return None
        flat[vals], flat[lens] = v, ln
    charges = payload["charges"]
    if observe:
        if not (isinstance(charges, list) and len(charges) == n):
            return None
    elif charges is not None:
        return None
    flat["charges"] = charges
    return flat


def build_core_vec(core, pv):
    """Gather one core's flattened records into per-event replay arrays.

    The records are the core's flattened set (:meth:`ReplayCore.
    _flat_records`: adopted from a persisted payload, or flattened from
    this process's resolve); every per-event array is a NumPy gather
    over the per-event record ids (``core._rec_ids``).  Returns a
    :class:`CoreVec`, or ``None`` when the records do not fit the plan
    (e.g. an adopted memo from a stale file): the caller then
    re-resolves on the scalar path.
    """
    ids = core._rec_ids
    n_events = pv.n_events
    if ids is None or n_events == 0 or len(ids) != n_events:
        return None
    try:
        return _gather_core_vec(core, pv, core._flat_records(),
                                np.asarray(ids))
    except (TypeError, ValueError, IndexError, KeyError, AttributeError,
            OverflowError):
        # Structurally inconsistent records (stale/corrupt adoption).
        return None


def _gather_core_vec(core, pv, flat, ids):
    cv = CoreVec()
    per_record = flat["scalars"].T.copy()
    (bid_ev, cv.d_cyc, cv.exit_count, cv.d_floor, cv.d_fin,
     cv.entry_count, cv.floor_key) = per_record[:7, ids]
    if not np.array_equal(bid_ev, pv.ev_bid):
        return None
    cv.regs_exp, n_live = _ragged(flat["regs"], flat["regs_n"], ids)
    def_vals, n_defs = _ragged(flat["defs"], flat["defs_n"], ids)
    if not (np.array_equal(n_live, pv.ev_nlive)
            and np.array_equal(n_defs, np.diff(pv.do_off))):
        return None
    cv.regs_out = np.append(def_vals, _NEG)
    store_vals, n_stores = _ragged(flat["stores"], flat["stores_n"], ids)
    if not np.array_equal(n_stores, np.diff(pv.so_off)):
        return None
    cv.stores_out = np.append(store_vals, _NEG)
    cv.ext_exp = np.zeros(pv.mp_g.size, dtype=np.int64)
    js, per_event = _ragged(flat["ext_j"], flat["ext_n"], ids)
    if js.size:
        g = np.repeat(pv.ev_mem_start, per_event) + js
        idx = np.searchsorted(pv.mp_g, g)
        if int(idx.max()) >= pv.mp_g.size \
                or not np.array_equal(pv.mp_g[idx], g):
            return None  # external wait with no recorded producer
        cv.ext_exp[idx] = _ragged(flat["ext_d"], flat["ext_n"], ids)[0]
    cv.up_ev = cv.up_src = cv.up_slot = cv.units_exp = cv.units_out = None
    if core._has_units:
        up_ev, up_src, up_slot, widths = _unit_chains(core, pv)
        exp_vals, n_units = _ragged(flat["u_exp"], flat["u_n"], ids)
        if not np.array_equal(n_units, widths):
            return None
        if up_ev.size:
            out_vals, _ = _ragged(flat["u_out"], flat["u_n"], ids)
            cv.up_ev, cv.up_src, cv.up_slot = up_ev, up_src, up_slot
            cv.units_exp = exp_vals
            cv.units_out = np.append(out_vals, _NEG)
    cv.times_flat = None
    if core.want_times:
        cv.times_flat, n_times = _ragged(flat["times"], flat["times_n"],
                                         ids)
        if not np.array_equal(n_times, pv.ev_ninstr):
            return None

    # ---- counters: per-record weights times occurrence counts
    counts = np.bincount(ids, minlength=per_record.shape[1])
    n_instrs, kind_of = per_record[7], per_record[8]
    instrs = counts * n_instrs
    hit = kind_of == 2
    cv.memo_hits = int(counts[hit].sum())
    cv.memo_instructions = int(instrs[hit].sum())
    cv.direct_instructions = int(instrs[~hit].sum())
    cv.fallbacks = int(counts[kind_of == 1].sum())
    # Every hit of an adopted record set is served from the payload.
    cv.persisted_hits = cv.memo_hits if core._adopted else 0
    cv.charges = None
    if core.observe:
        # Merged per (class, cause) in first-charge order along the
        # schedule, as a per-event walk would insert them.
        charges = flat["charges"]
        uniq, first = np.unique(ids, return_index=True)
        counts_of = counts.tolist()
        merged: dict[tuple, int] = {}
        for r in uniq[np.argsort(first)].tolist():
            charge_list = charges[r]
            if charge_list is None:
                continue
            c = counts_of[r]
            for kl, ci, cyc in charge_list:
                ck = (kl, ci)
                merged[ck] = merged.get(ck, 0) + cyc * c
        cv.charges = [(kl, ci, cyc) for (kl, ci), cyc in merged.items()]
    return cv


def run_vectorized(core, pv, cv):
    """One full replay over the resolved schedule, in array arithmetic.

    Recomputes entry cycles and every memo-key component from the
    dependence chains and compares them with the resolving run's
    records; returns the assembled outcome on success, ``None`` on any
    mismatch (the caller falls back to — and re-resolves on — the
    scalar path).
    """
    from ..obs.stalls import StallBreakdown
    from .replay import ReplayOutcome, ReplayStats

    n_events = pv.n_events
    d_cyc = cv.d_cyc
    t = np.empty(n_events, dtype=np.int64)
    t[0] = 0
    np.cumsum(d_cyc[:-1], out=t[1:])

    # Cumulative issue-width counters: each event must start exactly
    # where its predecessor left off.
    if cv.entry_count[0] != 0 \
            or not np.array_equal(cv.entry_count[1:], cv.exit_count[:-1]):
        return None
    # Branch-floor chain.
    if cv.floor_key[0] != 0:
        return None
    if n_events > 1:
        comp = t[:-1] + cv.d_floor[:-1]
        comp -= t[1:]
        np.maximum(comp, 0, out=comp)
        if not np.array_equal(comp, cv.floor_key[1:]):
            return None
    # Register dependence chains (prefix-max over producers is encoded
    # in the last-definition structure: only the latest producer can
    # still gate a live-in).
    if pv.rp_ev.size:
        comp = t[pv.rp_src] + cv.regs_out[pv.rp_slot]
        comp -= t[pv.rp_ev]
        np.maximum(comp, 0, out=comp)
        if not np.array_equal(comp, cv.regs_exp):
            return None
    # Functional-unit occupancy chains (per copy, multisets sorted).
    if cv.up_ev is not None:
        comp = t[cv.up_src] + cv.units_out[cv.up_slot]
        comp -= t[cv.up_ev]
        np.maximum(comp, 0, out=comp)
        if not np.array_equal(comp, cv.units_exp):
            return None
    # Cross-block store→load waits.
    if pv.mp_g.size:
        comp = t[pv.mp_src] + cv.stores_out[pv.mp_srcslot]
        comp -= t[pv.mp_ev]
        np.maximum(comp, 0, out=comp)
        if not np.array_equal(comp, cv.ext_exp):
            return None

    final_issue = int(t[n_events - 1] + d_cyc[n_events - 1])
    minor = int((t + cv.d_fin).max()) if n_events else 0
    if minor < 0:
        minor = 0
    stats = ReplayStats(
        blocks=n_events,
        memo_hits=cv.memo_hits,
        memo_misses=0,
        fallbacks=cv.fallbacks,
        memo_instructions=cv.memo_instructions,
        direct_instructions=cv.direct_instructions,
        vectorized_blocks=n_events,
        memo_persisted_hits=cv.persisted_hits,
    )
    breakdown = None
    if core.observe:
        breakdown = StallBreakdown()
        charge = breakdown.charge
        for kl, ci, cyc in cv.charges:
            charge(kl, ci, cyc)
        breakdown.issued_cycles = minor - final_issue
    times = None
    if cv.times_flat is not None:
        times = (np.repeat(t, pv.ev_ninstr) + cv.times_flat).tolist()
    return ReplayOutcome(
        minor_cycles=minor, final_issue=final_issue,
        stalls=breakdown, times=times, stats=stats,
    )
