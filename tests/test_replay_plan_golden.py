"""The replay plan of every default benchmark matches its golden digests.

``tests/golden/replay_plan.json`` (written by
``scripts/gen_golden_replay_plan.py``) pins, per benchmark, the block
schedule, the blocks' static segments and, under NumPy, every
``PlanVec`` array with its dtype.  A rewrite of the plan builders must
reproduce them exactly; regenerate the file only for a deliberate
change to the plan.
"""

from __future__ import annotations

import json

import pytest

from repro.benchmarks import suite
from repro.sim.replay import BACKEND
from scripts.gen_golden_replay_plan import OUTPUT as GOLDEN_PATH
from scripts.gen_golden_replay_plan import plan_digests

with open(GOLDEN_PATH, encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_replay_plan_matches_golden(name):
    want = GOLDEN[name]
    got = plan_digests(suite.get(name))
    assert got["trace"] == want["trace"], "the trace itself changed"
    for field in ("events", "blocks", "schedule", "segments"):
        assert got[field] == want[field], field
    if BACKEND == "numpy":
        differ = sorted(k for k in want["vec"]
                        if got["vec"].get(k) != want["vec"][k])
        assert not differ, f"PlanVec fields differ: {differ}"
    else:
        assert "vec" not in got


def test_golden_covers_the_suite():
    assert sorted(GOLDEN) == sorted(b.name for b in suite.all_benchmarks())
