#!/usr/bin/env python
"""Regenerate the replay-plan digests pinned by the test suite.

For every suite benchmark at its default options this records SHA-256
digests of the machine-independent replay plan built from its trace:
the block schedule (:attr:`plan.schedule`), every block's static
segments and, under NumPy, every array of the
:class:`~repro.sim.replay_vec.PlanVec` view (with its dtype).
``tests/test_replay_plan_golden.py`` rebuilds each plan and compares,
so a faster :func:`~repro.sim.replay.build_plan` or
:func:`~repro.sim.replay_vec.build_plan_vec` must produce the very
same plan.  The trace fingerprint is recorded too: when it differs, the
trace changed, not the plan builder.

Only regenerate (``python scripts/gen_golden_replay_plan.py``, NumPy
installed) when a *deliberate* change to the plan lands; the diff of
``tests/golden/replay_plan.json`` is then part of the review.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

OUTPUT = os.path.join(ROOT, "tests", "golden", "replay_plan.json")

#: The array attributes of a PlanVec (the persisted ones included).
PLAN_VEC_ARRAYS = ("ev_bid", "ev_ninstr", "ev_mem_start", "rp_ev", "mp_ev",
                   "alias_ids", "do_off", "so_off", "ev_nlive", "rp_src",
                   "rp_slot", "mp_g", "mp_src", "mp_srcslot",
                   "blk_store_off", "blk_store_pos")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _array_digest(a) -> list | None:
    """``[dtype, sha256 of the int64 values]``; ``None`` for no array."""
    import numpy as np

    if a is None:
        return None
    values = np.ascontiguousarray(a, dtype=np.int64)
    return [str(a.dtype), hashlib.sha256(values.tobytes()).hexdigest()]


def plan_digests(benchmark) -> dict:
    """The digests of ``benchmark``'s replay plan, built fresh."""
    from repro.benchmarks import suite
    from repro.sim import replay

    trace = suite.run_benchmark(
        benchmark, suite.default_options(benchmark)).trace
    plan = replay.build_plan(trace)
    out = {
        "trace": trace.fingerprint(),
        "events": len(plan.schedule),
        "blocks": len(plan.blocks),
        "schedule": _sha(",".join(map(str, plan.schedule))),
        "segments": _sha(json.dumps([b.segments for b in plan.blocks])),
    }
    if replay.BACKEND == "numpy":
        from repro.sim.replay_vec import build_plan_vec

        entries, _ = replay._static_skeleton(trace)
        pv = build_plan_vec(
            trace, plan, entries,
            lambda block: replay._block_dataflow(block, entries))
        out["vec"] = {name: _array_digest(getattr(pv, name))
                      for name in PLAN_VEC_ARRAYS}
        out["vec"]["n_reg_slots"] = pv.n_reg_slots
        out["vec"]["n_store_slots"] = pv.n_store_slots
    return out


def main() -> int:
    from repro.benchmarks import suite
    from repro.sim.replay import BACKEND

    if BACKEND != "numpy":
        print("the PlanVec digests need NumPy", file=sys.stderr)
        return 2
    golden = {b.name: plan_digests(b) for b in suite.all_benchmarks()}
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {OUTPUT}: {len(golden)} plans")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
