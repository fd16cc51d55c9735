#!/usr/bin/env python
"""Regenerate the golden schedule digests pinned by the test suite.

For every suite benchmark compiled *scheduled for* each of the nine
golden machines (the paper's seven plus the two underpipelined
variants), this records a SHA-256 digest of the fully scheduled program
text.  ``tests/test_sched_backends.py`` recomputes the digests with the
``"list"`` scheduler backend and compares: the registry refactor must
keep the default backend bit-identical to the historical scheduler.

It also records the ``"exact"`` backend's search tree on a few grid
cells (``tests/golden/exact_search.json``): per searched block, its
label, size, the number of branch-and-bound nodes expanded and a
SHA-256 of the order chosen.  A faster search must expand the very same
tree, so that file must match unchanged after any rewrite of
:mod:`repro.sched.exact` that is meant to keep schedules.

Only regenerate (``python scripts/gen_golden_schedules.py``) when a
*deliberate* scheduler or code-generation change lands; the diff of
``tests/golden/schedules.json`` is then part of the review.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

sys.path.insert(
    0,
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    ),
)

GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests", "golden",
)
OUTPUT = os.path.join(GOLDEN_DIR, "schedules.json")
EXACT_OUTPUT = os.path.join(GOLDEN_DIR, "exact_search.json")


def golden_machines():
    """The nine machines the golden grid pins (paper seven + the two
    underpipelined variants)."""
    from repro.machine.presets import (
        paper_machines,
        underpipelined_half_issue,
        underpipelined_slow_cycle,
    )

    return paper_machines() + [
        underpipelined_slow_cycle(),
        underpipelined_half_issue(),
    ]


def schedule_digest(benchmark, config, scheduler: str | None = None) -> str:
    """SHA-256 of the scheduled program text for one grid cell."""
    from repro.benchmarks import suite
    from repro.isa.printer import format_program
    from repro.opt.driver import compile_source

    kwargs = {"schedule_for": config}
    if scheduler is not None:
        kwargs["scheduler"] = scheduler
    options = suite.default_options(benchmark, **kwargs)
    program = compile_source(benchmark.source(), options)
    text = format_program(program)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def exact_search_cells():
    """``(key, benchmark name, machine)`` for the search-tree golden:
    the superpipelined cells the ``sched_exact`` benchmark times, plus
    one machine with class conflicts so the unit-occupancy path of the
    search is pinned too."""
    from repro.machine.presets import (
        superpipelined,
        superscalar_with_class_conflicts,
    )

    deep = superpipelined(4)
    conflicts = superscalar_with_class_conflicts(2, 1)
    return [
        (f"whet@{deep.name}", "whet", deep),
        (f"yacc@{deep.name}", "yacc", deep),
        (f"yacc@{conflicts.name}", "yacc", conflicts),
    ]


def exact_search_records(benchmark, config) -> list[list]:
    """``[label, n, nodes, sha256(order)]`` for every block the exact
    backend searches when compiling ``benchmark`` for ``config``.

    Blocks that exhaust the node budget are recorded too: their node
    count is the budget plus one and their order is the best found.
    """
    from repro.benchmarks import suite
    from repro.opt.driver import compile_source
    from repro.sched import exact

    records: list[list] = []
    search_run = exact._Search.run

    def recording_run(search, incumbent):
        try:
            return search_run(search, incumbent)
        finally:
            order = ",".join(map(str, search.best_order))
            records.append([
                search.block.label, search.n, search.nodes,
                hashlib.sha256(order.encode("ascii")).hexdigest(),
            ])

    options = suite.default_options(benchmark, schedule_for=config,
                                    scheduler="exact")
    exact._Search.run = recording_run
    try:
        compile_source(benchmark.source(), options)
    finally:
        exact._Search.run = search_run
    return records


def main() -> int:
    from repro.benchmarks import suite

    digests: dict[str, str] = {}
    machines = golden_machines()
    for benchmark in suite.all_benchmarks():
        for config in machines:
            key = f"{benchmark.name}@{config.name}"
            digests[key] = schedule_digest(benchmark, config)
            print(f"{key:40s} {digests[key][:16]}")
    os.makedirs(os.path.dirname(OUTPUT), exist_ok=True)
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {OUTPUT}: {len(digests)} cells")

    trees = {key: exact_search_records(suite.get(name), config)
             for key, name, config in exact_search_cells()}
    with open(EXACT_OUTPUT, "w", encoding="utf-8") as handle:
        # One block per line, so a changed tree diffs block by block.
        handle.write("{\n" + ",\n".join(
            f"{json.dumps(key)}: [\n"
            + ",\n".join(f"  {json.dumps(r)}" for r in trees[key])
            + "\n]"
            for key in sorted(trees)
        ) + "\n}\n")
    print(f"wrote {EXACT_OUTPUT}: "
          f"{sum(len(r) for r in trees.values())} blocks")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
