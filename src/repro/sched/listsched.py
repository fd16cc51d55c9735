"""Latency-aware list scheduling of basic blocks — the ``"list"`` backend.

"The compile-time pipeline instruction scheduler knows this and schedules
the instructions in a basic block so that the resulting stall time will be
minimized" (Section 3).  The scheduler targets a specific
:class:`~repro.machine.MachineConfig`: it simulates in-order issue —
operand latencies, issue width, functional-unit issue latencies and
multiplicities — and greedily picks, cycle by cycle, the ready instruction
with the longest critical path to the end of the block.

This is the default scheduler backend (see :mod:`repro.sched.registry`);
its output is pinned bit-identical against golden schedules in
``tests/golden/schedules.json``.  The module-level
:func:`schedule_block` is the implementation; the registry's
:meth:`~repro.sched.registry.SchedulerBackend.schedule_function` drives
it over a function.
"""

from __future__ import annotations

from ..errors import SchedulingError
from ..isa.program import BasicBlock
from ..isa.registers import Reg
from ..machine.config import MachineConfig
from ..opt.options import AliasLevel
from .dag import DepDAG, build_dag
from .registry import SchedulerBackend, register
from .validate import check_schedule


def schedule_block(
    block: BasicBlock,
    config: MachineConfig,
    alias_level: AliasLevel = AliasLevel.CONSERVATIVE,
    home_bindings: dict[str, Reg] | None = None,
    heuristic: str = "critical-path",
) -> None:
    """Reorder ``block.instrs`` to minimize stalls on ``config``.

    ``heuristic`` selects the tie-breaking priority among ready
    instructions: ``"critical-path"`` (latency-weighted height, the
    default) or ``"source-order"`` (keep the original order whenever
    dependences allow; isolates how much the priority function itself
    contributes).
    """
    if heuristic not in ("critical-path", "source-order"):
        raise SchedulingError(f"unknown scheduling heuristic {heuristic!r}")
    dag = build_dag(block, config, alias_level, home_bindings)
    order = _list_schedule(block, dag, config, heuristic)
    _verify_topological(dag, order)
    block.instrs = [block.instrs[i] for i in order]


def _priorities(block: BasicBlock, dag: DepDAG, config: MachineConfig) -> list[int]:
    """Critical-path height of each node (latency-weighted)."""
    topo = dag.topological_order()
    prio = [0] * dag.n
    for i in reversed(topo):
        lat = config.latencies[block.instrs[i].op.klass]
        best = 0
        for s, edge_lat in dag.succs[i].items():
            cand = max(edge_lat, 1) + prio[s]
            if cand > best:
                best = cand
        prio[i] = best + lat
    return prio


def _list_schedule(
    block: BasicBlock,
    dag: DepDAG,
    config: MachineConfig,
    heuristic: str = "critical-path",
) -> list[int]:
    n = dag.n
    if heuristic == "source-order":
        prio = [n - i for i in range(n)]
    else:
        prio = _priorities(block, dag, config)
    indeg = [len(p) for p in dag.preds]
    earliest = [0] * n
    ready = {i for i in range(n) if indeg[i] == 0}

    unit_free: dict = {}
    unit_of: dict = {}
    if config.units:
        for u in config.units:
            state = [0] * u.multiplicity
            for klass in u.classes:
                unit_of.setdefault(klass, (state, u.issue_latency))

    order: list[int] = []
    time = 0
    slots = config.issue_width

    while ready:
        candidates = sorted(
            (i for i in ready if earliest[i] <= time),
            key=lambda i: (-prio[i], i),
        )
        issued = None
        for i in candidates:
            if slots <= 0:
                break
            klass = block.instrs[i].op.klass
            unit = unit_of.get(klass)
            if unit is not None:
                free, issue_lat = unit
                k = min(range(len(free)), key=free.__getitem__)
                if free[k] > time:
                    continue  # class conflict this cycle; try another instr
                free[k] = time + issue_lat
            issued = i
            break
        if issued is None:
            # advance to the next interesting cycle
            future = [earliest[i] for i in ready if earliest[i] > time]
            time = min(future) if future and slots > 0 else time + 1
            slots = config.issue_width
            continue
        ready.discard(issued)
        slots -= 1
        order.append(issued)
        lat = config.latencies[block.instrs[issued].op.klass]
        for s, edge_lat in dag.succs[issued].items():
            ready_time = time + (edge_lat if edge_lat > 0 else 0)
            if edge_lat == 0:
                ready_time = time  # may issue in the same cycle
            if ready_time > earliest[s]:
                earliest[s] = ready_time
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.add(s)
        del lat

    if len(order) != n:
        raise SchedulingError(
            f"scheduler dropped instructions ({len(order)}/{n})"
        )
    return order


def _verify_topological(dag: DepDAG, order: list[int]) -> None:
    """Assert the emitted order respects every dependence edge."""
    position = {node: k for k, node in enumerate(order)}
    for i in range(dag.n):
        for s in dag.succs[i]:
            if position[i] >= position[s]:
                raise SchedulingError(
                    f"dependence violated: {i} must precede {s}"
                )


class ListScheduler(SchedulerBackend):
    """Registry adapter over the module-level list scheduler."""

    name = "list"
    description = ("greedy critical-path list scheduling "
                   "(the paper's heuristic; default)")

    def schedule_block(
        self,
        block: BasicBlock,
        config: MachineConfig,
        alias_level: AliasLevel = AliasLevel.CONSERVATIVE,
        home_bindings: dict[str, Reg] | None = None,
        heuristic: str = "critical-path",
    ) -> None:
        if heuristic not in ("critical-path", "source-order"):
            raise SchedulingError(
                f"unknown scheduling heuristic {heuristic!r}"
            )
        dag = build_dag(block, config, alias_level, home_bindings)
        order = _list_schedule(block, dag, config, heuristic)
        check_schedule(block.instrs, order, dag, config,
                       backend=self.name)
        block.instrs = [block.instrs[i] for i in order]


register(ListScheduler())
