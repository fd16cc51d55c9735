"""Tests for the pluggable scheduler-backend subsystem.

Covers the registry (:mod:`repro.sched.registry`), the re-homed
``"list"`` backend's bit-identity against the pre-refactor golden
digests, the ``"swp"`` and ``"exact"`` backends' validity and quality
guarantees (never worse than ``"list"``; provably optimal on blocks
small enough to brute-force), the search budget and its fallback, the
shared :mod:`repro.sched.validate` checker, cache coherence (backend
choice invalidates fingerprints, trace keys and ledger runs), the gap
report, and the ``--scheduler`` / ``repro gap`` CLI surface.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.__main__ import main as cli_main
from repro.benchmarks import suite
from repro.engine.cache import trace_key
from repro.engine.executor import execute
from repro.engine.plan import plan_sweep
from repro.errors import ScheduleBudgetError, SchedulingError
from repro.machine.presets import resolve
from repro.obs.history import HistoryLedger
from repro.obs.recorder import JsonlRecorder, read_jsonl
from repro.obs.schema import SCHEMA_VERSION
from repro.opt.driver import compile_source
from repro.opt.options import CompilerOptions
from repro.sched import registry
from repro.sched.dag import build_dag
from repro.sched.exact import (
    ExactScheduler,
    ScheduleBudget,
    _dominated,
    _guard_bits,
    _Search,
    _survivors,
)
from repro.sched.listsched import _list_schedule
from repro.sched.validate import check_schedule, evaluate_order
from scripts.gen_golden_schedules import (
    EXACT_OUTPUT as EXACT_GOLDEN_PATH,
    OUTPUT as GOLDEN_PATH,
    exact_search_cells,
    exact_search_records,
    golden_machines,
    schedule_digest,
)

BACKENDS = ("exact", "list", "swp")


def _blocks_with_dags(source: str, machine: str, min_instrs: int = 3):
    """Compile ``source`` scheduled for ``machine`` and yield
    ``(block, dag, config)`` for every schedulable block."""
    config = resolve(machine)
    program = compile_source(
        source, CompilerOptions(schedule_for=config))
    for fn in program.functions.values():
        for block in fn.blocks:
            if len(block.instrs) >= min_instrs:
                yield block, build_dag(block, config,
                                       home_bindings=fn.home_bindings), \
                    config


# Multiplications are by constants only: variable-times-variable
# products inside a loop explode into huge Python ints and stall the
# functional interpreter.
LOOPY = """
proc main(): int {
    var a, b, c, s, i: int;
    a = 3; b = 5; c = 7; s = 0; i = 0;
    while (i < 50) {
        a = b * 3 + c - a;
        b = c * 2 - b + 4;
        c = a + b - c * 2;
        s = s + a - b + c;
        i = i + 1;
    }
    return s;
}
"""


class TestRegistry:
    def test_bundled_backends_registered(self):
        assert tuple(registry.names()) == BACKENDS

    def test_get_returns_named_backend(self):
        for name in BACKENDS:
            assert registry.get(name).name == name

    def test_unknown_name_lists_registered(self):
        with pytest.raises(SchedulingError) as err:
            registry.get("bogus")
        msg = str(err.value)
        assert "bogus" in msg
        for name in BACKENDS:
            assert name in msg

    def test_descriptions_cover_every_backend(self):
        desc = registry.descriptions()
        assert sorted(desc) == sorted(registry.names())
        assert all(desc.values())

    def test_register_rejects_duplicates_and_anonymous(self):
        class Anon(ExactScheduler):
            name = ""

        with pytest.raises(ValueError, match="non-empty"):
            registry.register(Anon())

        class Dup(ExactScheduler):
            name = "list"

        with pytest.raises(ValueError, match="duplicate"):
            registry.register(Dup())

    def test_set_default_roundtrip(self):
        assert registry.get_default() == "list"
        previous = registry.set_default("exact")
        try:
            assert previous == "list"
            assert registry.get_default() == "exact"
            assert CompilerOptions().scheduler == "exact"
        finally:
            registry.set_default(previous)
        assert CompilerOptions().scheduler == "list"

    def test_set_default_validates(self):
        with pytest.raises(SchedulingError, match="bogus"):
            registry.set_default("bogus")
        assert registry.get_default() == "list"

    def test_options_validate_backend_name(self):
        with pytest.raises(ValueError, match="registered"):
            CompilerOptions(scheduler="bogus")

    def test_api_schedulers_lists_registry(self):
        assert api.schedulers() == registry.descriptions()


class TestGoldenBitIdentity:
    """The re-homed ``"list"`` backend must reproduce the pre-refactor
    scheduler bit for bit on the full 8-benchmark x 9-machine grid."""

    def test_list_backend_matches_golden_digests(self):
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            golden = json.load(handle)
        machines = {c.name: c for c in golden_machines()}
        benches = {b.name: b for b in suite.all_benchmarks()}
        assert len(golden) == len(machines) * len(benches) == 72
        mismatches = []
        for key, want in golden.items():
            bench_name, machine_name = key.split("@")
            got = schedule_digest(benches[bench_name],
                                  machines[machine_name],
                                  scheduler="list")
            if got != want:
                mismatches.append(key)
        assert not mismatches, (
            f"'list' diverged from the golden schedules on "
            f"{len(mismatches)} cells: {mismatches[:5]}"
        )


class TestExactSearchTree:
    """The exact search expands the pinned tree: per searched block the
    same node count and the same chosen order as when the golden file
    was written.  A faster search must not regenerate this file."""

    CELLS = {key: (name, config)
             for key, name, config in exact_search_cells()}

    @pytest.mark.parametrize("key", sorted(CELLS))
    def test_search_tree_matches_golden(self, key):
        with open(EXACT_GOLDEN_PATH, encoding="utf-8") as handle:
            golden = json.load(handle)
        name, config = self.CELLS[key]
        got = exact_search_records(suite.get(name), config)
        want = golden[key]
        assert [r[0] for r in got] == [r[0] for r in want]
        diverged = [(w[0], w[2], g[2]) for g, w in zip(got, want)
                    if g != w]
        assert not diverged, (
            f"{len(diverged)} blocks searched differently on {key} "
            f"(label, golden nodes, nodes): {diverged[:5]}"
        )


class TestBackendValidity:
    """Every backend's output passes the shared schedule checker."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("machine", ["superscalar:4",
                                         "superpipelined:4", "cray1"])
    def test_scheduled_blocks_check_out(self, backend, machine):
        config = resolve(machine)
        unscheduled = compile_source(
            LOOPY, CompilerOptions(schedule_for=config))
        scheduled = compile_source(
            LOOPY,
            CompilerOptions(schedule_for=config, scheduler=backend))
        for fn_u, fn_s in zip(unscheduled.functions.values(),
                              scheduled.functions.values()):
            for blk_u, blk_s in zip(fn_u.blocks, fn_s.blocks):
                # Recover the permutation the backend applied and
                # re-validate it against the pre-schedule DAG.
                dag = build_dag(blk_u, config,
                                home_bindings=fn_u.home_bindings)
                texts = [repr(i) for i in blk_u.instrs]
                order = []
                used = set()
                for ins in blk_s.instrs:
                    text = repr(ins)
                    for pos, t in enumerate(texts):
                        if t == text and pos not in used:
                            used.add(pos)
                            order.append(pos)
                            break
                check_schedule(blk_u.instrs, order, dag, config,
                               backend=backend)

    @pytest.mark.parametrize("machine", ["superscalar:4",
                                         "superpipelined:4"])
    def test_exact_never_worse_block_locally(self, machine):
        for block, dag, config in _blocks_with_dags(LOOPY, machine):
            incumbent = _list_schedule(block, dag, config,
                                       "critical-path")
            search = _Search(block, dag, config,
                             ScheduleBudget(max_nodes=4000))
            try:
                best = search.run(list(incumbent))
            except ScheduleBudgetError:
                best = search.best_order
            assert evaluate_order(block.instrs, best, dag, config) <= \
                evaluate_order(block.instrs, incumbent, dag, config)

    def test_exact_beats_list_end_to_end_on_superpipelined(self):
        # The grid's known nonzero gap: deep pipelines punish the
        # heuristic's zero-latency-edge padding.  Schedule *for* the
        # measured machine (the paper's methodology) or the backends
        # trivially tie.
        config = resolve("superpipelined:4")
        opts = suite.default_options(suite.get("whet"),
                                     schedule_for=config)
        slow = api.measure("whet", config, options=opts,
                           scheduler="list")
        fast = api.measure("whet", config, options=opts,
                           scheduler="exact")
        assert fast.minor_cycles < slow.minor_cycles

    def test_swp_matches_or_beats_list_on_loops(self):
        for machine in ("superscalar:4", "superpipelined:4"):
            config = resolve(machine)
            opts = suite.default_options(suite.get("linpack"),
                                         schedule_for=config)
            a = api.measure("linpack", config, options=opts,
                            scheduler="swp")
            b = api.measure("linpack", config, options=opts,
                            scheduler="list")
            assert a.minor_cycles <= b.minor_cycles


class TestExactOptimality:
    """Brute force over all topological orders == the search result."""

    @pytest.mark.parametrize("machine", ["superscalar:2",
                                         "superpipelined:4"])
    def test_search_finds_true_optimum_on_small_blocks(self, machine):
        source = """
proc main(): int {
    var a, b, c, d: int;
    a = 2; b = 3;
    c = a * b + a;
    d = c * c - b;
    a = d + c * 2;
    return a + d;
}
"""
        checked = 0
        for block, dag, config in _blocks_with_dags(source, machine):
            if dag.n > 8:
                continue
            best_brute = min(
                evaluate_order(block.instrs, list(order), dag, config)
                for order in itertools.permutations(range(dag.n))
                if all(
                    order.index(i) < order.index(s)
                    for i in range(dag.n) for s in dag.succs[i]
                )
            )
            incumbent = _list_schedule(block, dag, config,
                                       "critical-path")
            search = _Search(block, dag, config,
                             ScheduleBudget(max_nodes=20_000))
            found = search.run(list(incumbent))
            assert evaluate_order(block.instrs, found, dag, config) \
                == best_brute
            checked += 1
        assert checked > 0


class TestBudget:
    def test_search_raises_typed_budget_error(self):
        blocks = [b for b in
                  _blocks_with_dags(LOOPY, "superpipelined:4")
                  if b[1].n >= 8]
        assert blocks
        block, dag, config = blocks[0]
        incumbent = _list_schedule(block, dag, config, "critical-path")
        search = _Search(block, dag, config,
                         ScheduleBudget(max_nodes=2))
        with pytest.raises(ScheduleBudgetError) as err:
            search.run(list(incumbent))
        assert err.value.limit == "nodes"
        assert err.value.block == block.label
        assert "budget exceeded" in str(err.value)

    @staticmethod
    def _block_over_256_nodes():
        """A block whose search expands more than 256 nodes, the
        interval at which the deadline is polled."""
        for block, dag, config in _blocks_with_dags(LOOPY,
                                                    "superpipelined:4"):
            incumbent = _list_schedule(block, dag, config,
                                       "critical-path")
            try:
                _Search(block, dag, config,
                        ScheduleBudget(max_nodes=256)).run(incumbent)
            except ScheduleBudgetError:
                return block, dag, config, incumbent
        raise AssertionError("no block needs more than 256 nodes")

    def test_deadline_raises_typed_seconds_error(self):
        block, dag, config, incumbent = self._block_over_256_nodes()
        search = _Search(block, dag, config,
                         ScheduleBudget(max_seconds=0.0))
        with pytest.raises(ScheduleBudgetError) as err:
            search.run(list(incumbent))
        assert err.value.limit == "seconds"
        assert err.value.nodes == search.nodes == 256
        assert search.best_order is not None

    def test_backend_falls_back_on_deadline(self):
        config = resolve("superpipelined:4")
        patient = ExactScheduler()
        hurried = ExactScheduler(budget=ScheduleBudget(max_seconds=0.0))
        for backend in (patient, hurried):
            program = compile_source(
                LOOPY, CompilerOptions(schedule_for=config))
            for fn in program.functions.values():
                backend.schedule_function(fn, config)
        # Blocks that finish within 256 nodes never see the deadline;
        # every larger one falls back to its best order so far.
        assert hurried.fallbacks > patient.fallbacks

    def test_budget_error_is_picklable(self):
        import pickle

        err = ScheduleBudgetError("main.entry", 42, "nodes")
        clone = pickle.loads(pickle.dumps(err))
        assert (clone.block, clone.nodes, clone.limit) == \
            ("main.entry", 42, "nodes")

    def test_backend_falls_back_on_exhaustion(self):
        config = resolve("superpipelined:4")
        backend = ExactScheduler(budget=ScheduleBudget(max_nodes=2))
        program = compile_source(
            LOOPY, CompilerOptions(schedule_for=config))
        before = backend.fallbacks
        for fn in program.functions.values():
            backend.schedule_function(fn, config)
        assert backend.fallbacks > before  # fell back, didn't crash

    def test_oversized_blocks_skip_search(self):
        config = resolve("superscalar:4")
        backend = ExactScheduler(
            budget=ScheduleBudget(max_block=0))
        program = compile_source(
            LOOPY, CompilerOptions(schedule_for=config))
        for fn in program.functions.values():
            backend.schedule_function(fn, config)
        assert backend.fallbacks > 0


def _pack(values, width):
    """``values`` (each below ``2**width``) in the search's state
    layout: field ``f`` at bit ``f*(width+1)``, its guard bit clear."""
    return sum(v << (f * (width + 1)) for f, v in enumerate(values))


class TestPackedDominance:
    """The search's packed-int dominance test agrees with the
    componentwise definition on the state tuple it replaces:
    ``(cycle, slots used, unit free times..., ready times...)``, where
    the clock pair compares lexicographically and every other field is
    a "not later than" quantity."""

    @staticmethod
    def _tuple_dominates(a, b):
        (cycle_a, count_a, *rest_a), (cycle_b, count_b, *rest_b) = a, b
        if cycle_a > cycle_b or cycle_a == cycle_b and count_a > count_b:
            return False
        return all(x <= y for x, y in zip(rest_a, rest_b))

    @staticmethod
    def _packed(state, issue_width, width):
        cycle, count, *rest = state
        return _pack([cycle * (issue_width + 1) + count, *rest], width)

    def _pairs(self, rng, issue_width, width, fields):
        top = (1 << width) - 1
        max_cycle = (top - issue_width) // (issue_width + 1)

        def value():
            return rng.choice((0, top, top - 1, rng.randrange(top + 1)))

        def state():
            return (rng.choice((0, max_cycle, rng.randrange(max_cycle + 1))),
                    rng.randrange(issue_width + 1),
                    *(value() for _ in range(fields)))

        for _ in range(400):
            a = state()
            kind = rng.randrange(4)
            if kind == 0:
                b = a  # a tie in every field
            elif kind == 1:
                # later or equal everywhere, the clock pair tied
                b = (a[0], a[1], *(rng.randint(x, top) for x in a[2:]))
            elif kind == 2:
                # one field one step earlier, the rest equal
                b = list(a)
                f = rng.randrange(len(a))
                if b[f] > 0:
                    b[f] -= 1
                b = tuple(b)
            else:
                b = state()
            yield a, b

    @pytest.mark.parametrize("issue_width,width", [(1, 4), (2, 7), (8, 9)])
    def test_agrees_with_componentwise_definition(self, issue_width,
                                                  width):
        rng = random.Random(issue_width * 100 + width)
        fields = 6
        guards = _guard_bits(fields + 1, width)
        seen = {True: 0, False: 0}
        for a, b in self._pairs(rng, issue_width, width, fields):
            want = self._tuple_dominates(a, b)
            pa = self._packed(a, issue_width, width)
            pb = self._packed(b, issue_width, width)
            assert _dominated(pb, [pa], guards) == want, (a, b)
            assert _survivors(pa, [pb], guards) == ([] if want else [pb])
            seen[want] += 1
        assert min(seen.values()) > 50

    def test_no_carry_between_fields_at_the_width_limit(self):
        width = 5
        top = (1 << width) - 1
        guards = _guard_bits(3, width)
        # Field 0 later in a, field 1 at the limit in both: a borrow out
        # of field 0 must not be absorbed by field 1.
        a = _pack([top, top, 0], width)
        b = _pack([0, top, top], width)
        assert not _dominated(b, [a], guards)
        assert _dominated(a, [a], guards)
        assert _dominated(_pack([top] * 3, width), [_pack([0] * 3, width)],
                          guards)


class TestValidateChecker:
    def _one_block(self):
        return next(_blocks_with_dags(LOOPY, "superscalar:4",
                                      min_instrs=5))

    def test_rejects_non_permutation(self):
        block, dag, config = self._one_block()
        order = [0] * dag.n
        with pytest.raises(SchedulingError, match="permutation"):
            check_schedule(block.instrs, order, dag, config)

    def test_rejects_dependence_violation(self):
        block, dag, config = self._one_block()
        order = list(range(dag.n))[::-1]
        with pytest.raises(SchedulingError, match="dependence"):
            check_schedule(block.instrs, order, dag, config)

    def test_accepts_the_list_order(self):
        block, dag, config = self._one_block()
        order = _list_schedule(block, dag, config, "critical-path")
        check_schedule(block.instrs, order, dag, config)


class TestCacheCoherence:
    """Backend choice must flow into every cache and comparison key."""

    def test_fingerprints_differ_only_by_scheduler(self):
        prints = {
            CompilerOptions(scheduler=name).fingerprint()
            for name in BACKENDS
        }
        assert len(prints) == len(BACKENDS)

    def test_trace_keys_differ_by_scheduler(self):
        source = "proc main(): int { return 6 * 7; }"
        keys = {
            trace_key(source, CompilerOptions(scheduler=name))
            for name in BACKENDS
        }
        assert len(keys) == len(BACKENDS)

    def test_plan_cells_carry_scheduler(self):
        plan = plan_sweep(["whet"], [resolve("superscalar:4")],
                          scheduler="exact")
        assert all(c.options.scheduler == "exact" for c in plan.cells)
        groups_exact = plan.compile_groups()
        groups_list = plan_sweep(
            ["whet"], [resolve("superscalar:4")]).compile_groups()
        assert set(groups_exact) != set(groups_list)

    def test_cell_events_and_ledger_distinguish_backends(self, tmp_path):
        reports = {}
        for name in ("list", "exact"):
            path = tmp_path / f"report_{name}.jsonl"
            plan = plan_sweep(["whet"], [resolve("superpipelined:4")],
                              scheduler=name)
            with JsonlRecorder(str(path)) as rec:
                rec.emit("run_start", schema=SCHEMA_VERSION,
                         run_id=f"coherence:{name}")
                execute(plan, recorder=rec)
                rec.emit("run_end", seconds=0.0,
                         counters=dict(rec.counters))
            reports[name] = str(path)
            cells = [e for e in read_jsonl(path)
                     if e.get("event") == "cell"]
            assert cells and all(e["scheduler"] == name for e in cells)
        with HistoryLedger(str(tmp_path / "ledger.sqlite")) as ledger:
            first = ledger.ingest_report(reports["list"],
                                         source="list")
            second = ledger.ingest_report(reports["exact"],
                                          source="exact")
            assert first.created and second.created
            assert first.fingerprint != second.fingerprint

    def test_api_sweep_scheduler_override(self):
        plan = api.plan(["whet"], ["superscalar:4"])
        result = api.sweep(plan, scheduler="exact")
        assert result.ok
        assert all(r.status == "ok" for r in result.rows)


class TestGapReport:
    def test_compute_gap_small_grid(self):
        from repro.analysis.gap import compute_gap

        report = compute_gap(["whet"],
                             [resolve("superscalar:4"),
                              resolve("superpipelined:4")],
                             schedulers=("list", "exact"))
        assert report.ok
        assert len(report.cells) == 2
        by_machine = {c.machine: c for c in report.cells}
        assert by_machine["superpipelined-4"].gap() > 0
        assert by_machine["superscalar-4"].gap() == 0
        rendered = report.render()
        assert "heuristic optimal" in rendered
        payload = report.as_dict()
        assert payload["baseline"] == "list"
        assert len(payload["cells"]) == 2


TIN_OPS = ("+", "-", "*")


@st.composite
def tin_programs(draw):
    """Small random straight-line Tin programs (ints only, no division
    so every run is well-defined)."""
    names = [f"v{i}" for i in range(draw(st.integers(3, 5)))]
    lines = [f"var {', '.join(names)}: int;"]
    for name in names:
        lines.append(f"{name} = {draw(st.integers(1, 9))};")
    for _ in range(draw(st.integers(4, 12))):
        dst = draw(st.sampled_from(names))
        a = draw(st.sampled_from(names))
        b = draw(st.sampled_from(names))
        op = draw(st.sampled_from(TIN_OPS))
        lines.append(f"{dst} = {a} {op} {b};")
    body = "\n    ".join(lines)
    ret = " + ".join(names)
    return (f"proc main(): int {{\n    {body}\n"
            f"    return {ret};\n}}\n")


class TestDifferentialProperty:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(source=tin_programs(),
           machine=st.sampled_from(["superscalar:2", "superscalar:4",
                                    "superpipelined:4"]))
    def test_backends_agree_on_meaning_and_exact_wins(self, source,
                                                      machine):
        config = resolve(machine)
        values = set()
        horizons = {}
        for name in BACKENDS:
            program = compile_source(
                source,
                CompilerOptions(schedule_for=config, scheduler=name))
            from repro.sim.interp import run

            values.add(run(program).value)
            total = 0
            for fn in program.functions.values():
                for block in fn.blocks:
                    dag = build_dag(block, config,
                                    home_bindings=fn.home_bindings)
                    total += evaluate_order(
                        block.instrs, list(range(dag.n)), dag, config)
            horizons[name] = total
        assert len(values) == 1  # scheduling never changes semantics
        assert horizons["exact"] <= horizons["list"]


class TestCli:
    def test_unknown_scheduler_exits_2(self, tmp_path, capsys):
        tin = tmp_path / "p.tin"
        tin.write_text("proc main(): int { return 1; }\n")
        assert cli_main(["measure", str(tin),
                         "--scheduler", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "registered" in err

    def test_measure_with_exact_backend(self, tmp_path):
        tin = tmp_path / "p.tin"
        tin.write_text(LOOPY)
        assert cli_main(["measure", str(tin),
                         "--scheduler", "exact"]) == 0
        assert registry.get_default() == "list"  # restored

    def test_gap_command_small_grid(self, capsys):
        assert cli_main(["gap", "--benchmarks", "whet",
                         "--machines", "superscalar:4",
                         "--schedulers", "list", "exact"]) == 0
        out = capsys.readouterr().out
        assert "heuristic optimal" in out

    def test_gap_unknown_backend_exits_2(self, capsys):
        assert cli_main(["gap", "--benchmarks", "whet",
                         "--machines", "base",
                         "--schedulers", "list", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err
