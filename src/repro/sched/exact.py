"""The ``"exact"`` scheduler backend: optimal block schedules by search.

Branch-and-bound over in-order issue sequences of one basic block's
dependence DAG — pure stdlib, in the spirit of SMT/CP optimal schedulers
(Roorda) and search-based superoptimization (Minotaur), scaled to the
paper's machine model.  The machine issues in order, so the only
artifact the compiler controls is the instruction *sequence*; the search
therefore enumerates topological orders of the DAG, scoring each with
the shared in-order issue model (:func:`repro.sched.validate`), and
keeps the order with the smallest completion horizon.  The list
scheduler's order seeds the incumbent, so the result is never worse
than the ``"list"`` backend on any block — this is what makes the
``repro gap`` report (cycles(list) − cycles(exact)) a true
heuristic-vs-optimal gap wherever the search completes.

Pruning: a critical-path + issue-bandwidth lower bound per partial
sequence, plus Pareto dominance over identical scheduled-sets (a state
whose clock, slot usage, unit occupancy, and dependence frontier are
all at least as late as a previously seen state cannot beat it).

The search is budgeted per block.  ``max_nodes`` (deterministic — the
same input always explores the same tree) is the primary limit;
``max_seconds`` is off by default precisely because a wall-clock cutoff
would make schedules — and therefore trace-cache contents keyed on
``CompilerOptions.fingerprint()`` — machine-dependent.  On exhaustion a
typed :class:`~repro.errors.ScheduleBudgetError` is raised internally
and the backend falls back to the best order found so far (at worst the
list order), so ``"exact"`` is safe inside the engine's resilience
ladder.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

from ..errors import ScheduleBudgetError
from ..isa.program import BasicBlock
from ..isa.registers import Reg
from ..machine.config import MachineConfig
from ..opt.options import AliasLevel
from .dag import DepDAG, build_dag
from .listsched import _list_schedule, _priorities
from .registry import SchedulerBackend, register
from .validate import check_schedule, evaluate_order


@dataclass(frozen=True, slots=True)
class ScheduleBudget:
    """Per-block search limits for the exact backend.

    ``max_nodes`` bounds branch-and-bound expansions (deterministic);
    ``max_block`` skips the search outright for blocks with more
    instructions (straight to the list fallback); ``max_seconds`` is an
    optional wall-clock cutoff — leave it ``None`` for reproducible
    schedules (see the module docstring).
    """

    max_nodes: int = 20_000
    max_block: int = 64
    max_seconds: float | None = None


DEFAULT_BUDGET = ScheduleBudget()


def _guard_bits(fields: int, width: int) -> int:
    """The guard mask for ``fields`` packed fields of ``width`` value
    bits: field ``f`` occupies bits ``f*(width+1)`` upwards, and its
    guard is the one bit above its values."""
    return sum(1 << (f * (width + 1) + width) for f in range(fields))


def _dominated(state: int, bucket: list[int], guards: int) -> bool:
    """Is some ``prev`` in ``bucket`` no later than ``state`` in every
    field (so ``state`` cannot beat it)?

    A SWAR compare: with every guard bit of ``state`` set, subtracting
    ``prev`` leaves a field's guard set exactly when that field of
    ``state`` is >= ``prev``'s.  Field values stay below their guard,
    so no borrow crosses into the next field.
    """
    probe = state | guards
    for prev in bucket:
        if (probe - prev) & guards == guards:
            return True
    return False


def _survivors(state: int, bucket: list[int], guards: int) -> list[int]:
    """The states of ``bucket`` that ``state`` does not dominate."""
    return [prev for prev in bucket
            if ((prev | guards) - state) & guards != guards]


class _Search:
    """One branch-and-bound run over a block's dependence DAG.

    Internally the nodes are relabelled once in candidate order (best
    heuristic rank first, then original index), so a node's candidates
    are the set bits of a ready mask taken low to high; orders are
    mapped back to the block's own indices on the way out.
    """

    def __init__(self, block: BasicBlock, dag: DepDAG,
                 config: MachineConfig, budget: ScheduleBudget) -> None:
        self.block = block
        self.dag = dag
        self.config = config
        self.budget = budget
        self.n = n = dag.n
        self.nodes = 0
        self.deadline = (
            _time.perf_counter() + budget.max_seconds
            if budget.max_seconds is not None else None
        )
        instrs = block.instrs
        latency = [config.latencies[i.op.klass] for i in instrs]
        # Candidate ordering reuses the list scheduler's heuristic
        # height so good orders are tried first...
        rank = _priorities(block, dag, config)
        # ...but the *bound* needs an admissible tail: the height
        # heuristic pads zero-latency edges to one cycle and counts a
        # node's latency on top of its outgoing edge latency, so using
        # it as a lower bound over-prunes (misses true optima).
        # tail[i] = provable minimum from issuing i to block completion:
        # i's own result latency, or any successor chain at exact edge
        # delays (0-latency edges may issue the same cycle).
        tail = [0] * n
        for i in reversed(dag.topological_order()):
            best = latency[i]
            for s, edge_lat in dag.succs[i].items():
                cand = (edge_lat if edge_lat > 0 else 0) + tail[s]
                if cand > best:
                    best = cand
            tail[i] = best
        # klass -> index of its functional unit.
        unit_slot: dict = {}
        #: (multiplicity, issue latency) per functional unit
        self.unit_shapes: list[tuple[int, int]] = []
        if config.units:
            seen: dict[int, int] = {}
            for u in config.units:
                idx = seen.setdefault(id(u), len(self.unit_shapes))
                if idx == len(self.unit_shapes):
                    self.unit_shapes.append((u.multiplicity,
                                             u.issue_latency))
                for klass in u.classes:
                    unit_slot.setdefault(klass, idx)

        # Relabelled tables: position p holds block node perm[p].
        self.perm = perm = sorted(range(n), key=lambda i: (-rank[i], i))
        label = [0] * n
        for p, i in enumerate(perm):
            label[i] = p
        self.tail = [tail[i] for i in perm]
        self.unit = [unit_slot.get(instrs[i].op.klass) for i in perm]
        #: (successor, delay) pairs; a 0-latency edge delays by 0
        self.succs = [
            tuple((label[s], lat if lat > 0 else 0)
                  for s, lat in dag.succs[i].items())
            for i in perm
        ]
        self.pred_mask = [
            sum(1 << label[j] for j in dag.preds[i]) for i in perm
        ]
        self.best_order: list[int] | None = None
        self.best_score: int | None = None
        # Pareto states per scheduled-set: packed ints (see run()).
        # Both caps bound memory, not correctness — a state that can't
        # be stored is explored rather than wrongly pruned.
        self.seen: dict[int, list[int]] = {}
        self.seen_states = 0
        self.max_bucket = 12
        self.max_states = 50_000

    def run(self, incumbent: list[int]) -> list[int]:
        """Search; returns the best complete order found.

        ``incumbent`` (the list order) seeds the bound; the search only
        replaces it with strictly better orders, so ties keep the
        heuristic's choice.

        A node's lower bound is the larger of two terms.  The issue
        bandwidth term is ``cycle + (remaining - 1) // issue_width``.
        The dependence term ``dep`` is carried down the path as a
        running max of ``issue time + tail`` over the scheduled nodes
        (seeded with every node's tail).  It equals the max of the
        horizon and every unscheduled node's ``ready + tail``: a
        scheduled node's term is its finish or passes through a
        successor's ready time.  At a leaf it is the completion horizon.

        A state — everything the remaining schedule depends on — is one
        int packed in the field layout of :func:`_guard_bits`, every
        guard bit clear: the ready time of every unscheduled
        node (scheduled nodes' fields are zero), every unit copy's free
        time, and the clock as ``cycle*(issue_width+1) + slots used``,
        which orders (cycle, slots) lexicographically.  States are only
        built after passing the bound, where every value is below an
        incumbent-derived limit, so the field width is sized from the
        incumbent.  A child's state is its parent's plus the deltas of
        the fields that changed.
        """
        self.best_order = list(incumbent)
        self.best_score = best = evaluate_order(
            self.block.instrs, incumbent, self.dag, self.config)
        n = self.n
        width_issue = self.config.issue_width
        perm, tail, unit_of = self.perm, self.tail, self.unit
        succs, pred_mask = self.succs, self.pred_mask
        max_nodes = self.budget.max_nodes
        deadline = self.deadline
        label = self.block.label
        seen = self.seen
        max_bucket, max_states = self.max_bucket, self.max_states

        issue_lat = [lat for _mult, lat in self.unit_shapes]
        copies = sum(mult for mult, _lat in self.unit_shapes)
        width = max((best + 1) * (width_issue + 1),
                    best + max(issue_lat, default=0)).bit_length()
        # Field 0 is the clock, then one field per unit copy, then one
        # per node's ready time.
        guards = _guard_bits(1 + copies + n, width)
        shift = [f * (width + 1) for f in range(1 + copies + n)]
        field = shift[1 + copies:]
        units: list[list[int]] = []  # free time per unit copy
        unit_field: list[list[int]] = []
        f = 1
        for mult, _lat in self.unit_shapes:
            units.append([0] * mult)
            unit_field.append(shift[f:f + mult])
            f += mult
        ready = [0] * n
        order: list[int] = []
        full = (1 << n) - 1
        nodes = 0
        seen_states = self.seen_states

        def check_budget() -> None:
            """Raise once the node count passes the budget, or (polled
            every 256 nodes) the deadline."""
            if nodes > max_nodes:
                raise ScheduleBudgetError(label, nodes, "nodes")
            if deadline is not None and not nodes % 256 \
                    and _time.perf_counter() > deadline:
                raise ScheduleBudgetError(label, nodes, "seconds")

        def expand(mask: int, avail: int, state: int, cycle: int,
                   count: int, dep: int) -> None:
            """Visit every child of a node that passed its bound and
            dominance checks: charge it, bound it, and expand it if its
            state is not dominated.  Children are the ready nodes, best
            heuristic rank (lowest label) first, so good incumbents
            tighten the bound early."""
            nonlocal nodes, best, seen_states
            slack = (n - 2 - len(order)) // width_issue
            clock = cycle * (width_issue + 1) + count
            full_cycle = count >= width_issue
            cands = avail
            while cands:
                bit = cands & -cands
                cands ^= bit
                i = bit.bit_length() - 1
                t = ready[i]
                if t < cycle:
                    t = cycle
                u = unit_of[i]
                if u is None:
                    if t == cycle and full_cycle:
                        t += 1
                else:
                    free = units[u]
                    while True:
                        if t == cycle and full_cycle:
                            t += 1
                        free_at = min(free)
                        if free_at > t:
                            t = free_at
                            continue
                        break
                nodes += 1
                if nodes > max_nodes or deadline is not None:
                    check_budget()
                nxt_dep = t + tail[i]
                if nxt_dep < dep:
                    nxt_dep = dep
                nxt_mask = mask | bit
                if nxt_mask == full:
                    if nxt_dep < best:
                        self.best_score = best = nxt_dep
                        self.best_order = [perm[p] for p in order]
                        self.best_order.append(perm[i])
                    continue
                if t + slack >= best or nxt_dep >= best:
                    continue
                nxt_count = count + 1 if t == cycle else 1
                child = state + (t * (width_issue + 1) + nxt_count
                                 - clock) - (ready[i] << field[i])
                if u is not None:
                    k = free.index(free_at)
                    busy = t + issue_lat[u]
                    child += (busy - free_at) << unit_field[u][k]
                for s, delay in succs[i]:
                    r = t + delay
                    if r > ready[s]:
                        child += (r - ready[s]) << field[s]
                bucket = seen.get(nxt_mask)
                if bucket is None:
                    bucket = seen[nxt_mask] = []
                elif _dominated(child, bucket, guards):
                    continue
                if len(bucket) < max_bucket and seen_states < max_states:
                    survivors = _survivors(child, bucket, guards)
                    seen_states -= len(bucket) - len(survivors) - 1
                    survivors.append(child)
                    bucket[:] = survivors
                nxt_avail = avail ^ bit
                saved: list[tuple[int, int]] = []
                for s, delay in succs[i]:
                    r = t + delay
                    old = ready[s]
                    if r > old:
                        saved.append((s, old))
                        ready[s] = r
                    if pred_mask[s] & nxt_mask == pred_mask[s]:
                        nxt_avail |= 1 << s
                if u is not None:
                    free[k] = busy
                order.append(i)
                expand(nxt_mask, nxt_avail, child, t, nxt_count, nxt_dep)
                order.pop()
                for s, old in saved:
                    ready[s] = old
                if u is not None:
                    free[k] = free_at

        # The root: no node scheduled, every ready time and unit zero.
        dep = max(tail, default=0)
        try:
            nodes = 1
            check_budget()
            if n and (n - 1) // width_issue < best and dep < best:
                seen[0] = [0]
                seen_states += 1
                expand(0, sum(1 << p for p in range(n)
                              if not pred_mask[p]), 0, 0, 0, dep)
        finally:
            self.nodes = nodes
            self.seen_states = seen_states
        return self.best_order


class ExactScheduler(SchedulerBackend):
    """Provably minimal block-local schedules, within a search budget."""

    name = "exact"
    description = ("bounded branch-and-bound optimal block scheduling "
                   "(never worse than \"list\")")

    def __init__(self, budget: ScheduleBudget | None = None) -> None:
        self.budget = budget or DEFAULT_BUDGET
        #: blocks whose search tripped the budget (fell back), since
        #: the backend was constructed — cheap observability for tests
        #: and the gap tooling.
        self.fallbacks = 0

    def schedule_block(
        self,
        block: BasicBlock,
        config: MachineConfig,
        alias_level: AliasLevel = AliasLevel.CONSERVATIVE,
        home_bindings: dict[str, Reg] | None = None,
        heuristic: str = "critical-path",
    ) -> None:
        dag = build_dag(block, config, alias_level, home_bindings)
        incumbent = _list_schedule(block, dag, config, heuristic)
        if dag.n > self.budget.max_block:
            self.fallbacks += 1
            order = incumbent
        else:
            search = _Search(block, dag, config, self.budget)
            try:
                order = search.run(incumbent)
            except ScheduleBudgetError:
                self.fallbacks += 1
                order = search.best_order or incumbent
        check_schedule(block.instrs, order, dag, config,
                       backend=self.name)
        block.instrs = [block.instrs[i] for i in order]


register(ExactScheduler())
