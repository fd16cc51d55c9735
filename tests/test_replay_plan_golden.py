"""The replay plan of every default benchmark matches its golden digests.

``tests/golden/replay_plan.json`` (written by
``scripts/gen_golden_replay_plan.py``) pins, per benchmark, the block
schedule, the blocks' static segments and, under NumPy, every
``PlanVec`` array with its dtype.  A rewrite of the plan builders must
reproduce them exactly, and so must a plan adopted from a stored plan
entry; regenerate the file only for a deliberate change to the plan.
"""

from __future__ import annotations

import json

import pytest

from repro.benchmarks import suite
from repro.sim import replay
from repro.sim.memo import MemoStore, plan_key
from scripts.gen_golden_replay_plan import OUTPUT as GOLDEN_PATH
from scripts.gen_golden_replay_plan import built_plan, plan_digests

with open(GOLDEN_PATH, encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)


def _assert_matches(got, want):
    assert got["trace"] == want["trace"], "the trace itself changed"
    for field in ("events", "blocks", "schedule", "segments"):
        assert got[field] == want[field], field
    if replay.BACKEND == "numpy":
        differ = sorted(k for k in want["vec"]
                        if got["vec"].get(k) != want["vec"][k])
        assert not differ, f"PlanVec fields differ: {differ}"
    else:
        assert "vec" not in got


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_replay_plan_matches_golden(name):
    trace, plan = built_plan(suite.get(name))
    assert not plan.loaded
    _assert_matches(plan_digests(trace, plan), GOLDEN[name])


@pytest.mark.skipif(replay.BACKEND != "numpy",
                    reason="plan entries exist only under NumPy")
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_adopted_replay_plan_matches_golden(name, tmp_path):
    """A plan taken back from its stored entry, with no merge pass,
    has the very digests of a fresh build."""
    trace, plan = built_plan(suite.get(name))
    store = MemoStore(str(tmp_path))
    store.store(plan_key(trace), replay._replay_vec.plan_vec_payload(plan))
    trace, adopted = built_plan(suite.get(name), store.load(plan_key(trace)))
    assert adopted.loaded and adopted.vec.loaded
    _assert_matches(plan_digests(trace, adopted), GOLDEN[name])


def test_golden_covers_the_suite():
    assert sorted(GOLDEN) == sorted(b.name for b in suite.all_benchmarks())
