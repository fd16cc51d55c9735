"""The sweep flow: a plan as a checkpointed, resumable DAG.

:func:`sweep_flow` turns a :class:`~repro.engine.plan.Plan` into a
declarative :class:`~repro.flow.dag.FlowDag` so it inherits
checkpointing and crash-resume from :func:`~repro.flow.engine.run_flow`:
one ``sweep.compile`` node per compile group, one ``sweep.cell`` node
per plan cell (depending on its group's compile), and a local
``sweep.rows`` aggregate.  The nodes run the executor's own group code
(:func:`~repro.engine.executor.acquire_run` and
:func:`~repro.engine.executor._run_group`), so sweep rows, events, and
reports are bit-identical between the flow and non-flow paths (modulo
wall-clock fields).

Node fingerprints reuse the repo's existing content identities —
:func:`~repro.engine.cache.trace_key` for compilations,
:meth:`~repro.machine.config.MachineConfig.fingerprint` for machines —
so editing one benchmark's source or one machine preset invalidates
exactly the downstream DAG slice and nothing else.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable

from ..benchmarks import suite
from ..engine.cache import TraceCache, trace_key
from ..engine.executor import (
    CellResult,
    EngineResult,
    _run_group,
    acquire_run,
    failed_cell,
    finish_run,
)
from ..engine.faults import FaultPlan
from ..engine.plan import Plan
from ..engine.resilience import CELL_STATUSES, RetryPolicy
from ..obs.recorder import Recorder, active_recorder
from ..obs.trace import Tracer
from .dag import FlowDag, FlowError, FlowNode
from .engine import FlowResult, FlowRunner, run_flow


# ---------------------------------------------------------------------------
# Node runner functions (module-level: they travel in pool payloads)
# ---------------------------------------------------------------------------


def _compile_node(name: str, payload: tuple, deps: dict) -> dict:
    """Compile one group's benchmark into the shared disk cache.

    Returns a small summary; the trace itself stays in the
    :class:`~repro.engine.cache.TraceCache`, content-addressed by the
    same key as this node's fingerprint, so dependent cell nodes load
    it without the checkpoint store ever holding a trace twice.
    """
    benchmark, options, cache_root = payload
    start = time.perf_counter()
    result, cached, checksum_ok = acquire_run(benchmark, options,
                                              TraceCache(cache_root))
    return {
        "key": trace_key(suite.get(benchmark).source(), options),
        "instructions": result.instructions,
        "checksum_ok": checksum_ok,
        "cached": cached,
        "seconds": time.perf_counter() - start,
    }


def _validate_compile(value: Any) -> str | None:
    if not isinstance(value, dict):
        return "compile checkpoint is not a dict"
    for field_name in ("key", "instructions", "checksum_ok"):
        if field_name not in value:
            return f"compile checkpoint missing {field_name!r}"
    return None


def _cell_node(name: str, payload: tuple, deps: dict) -> CellResult:
    """Measure one (benchmark, options, machine) cell: a one-cell
    :func:`~repro.engine.executor._run_group` over the trace the
    compile dependency left in the disk cache."""
    benchmark, options, machine, label, observe, cache_root = payload
    cells, _ = _run_group(benchmark, options, [(0, machine, label)],
                          observe, TraceCache(cache_root))
    return cells[0][1]


def _validate_cell(value: Any) -> str | None:
    if not isinstance(value, CellResult):
        return "cell checkpoint is not a CellResult"
    if value.status not in CELL_STATUSES:
        return f"cell checkpoint has unknown status {value.status!r}"
    if value.instructions < 0 or value.minor_cycles < 0:
        return "cell checkpoint has negative counters"
    return None


def _rows_node(name: str, payload: list, deps: dict) -> list[CellResult]:
    """Assemble cell results in plan order, placeholding failed nodes."""
    rows: list[CellResult] = []
    for node_name, benchmark, machine, label in payload:
        cell = deps.get(node_name)
        if isinstance(cell, CellResult):
            rows.append(cell)
        else:
            rows.append(failed_cell(
                benchmark, machine, label, attempts=1,
                error={"kind": "flow",
                       "message": f"flow node {node_name} did not complete",
                       "benchmark": benchmark, "node": node_name},
            ))
    return rows


def _validate_rows(value: Any) -> str | None:
    if not isinstance(value, list) \
            or not all(isinstance(c, CellResult) for c in value):
        return "rows checkpoint is not a list of CellResults"
    if any(c.status == "failed" for c in value):
        # An aggregate embedding failures must recompute: the failed
        # cells were never checkpointed, so a resume may succeed where
        # the original run did not.
        return "rows checkpoint embeds failed cells"
    return None


SWEEP_RUNNERS: dict[str, FlowRunner] = {
    "sweep.compile": FlowRunner("sweep.compile", _compile_node,
                                validate=_validate_compile),
    "sweep.cell": FlowRunner("sweep.cell", _cell_node,
                             validate=_validate_cell),
    "sweep.rows": FlowRunner("sweep.rows", _rows_node,
                             validate=_validate_rows,
                             local=True, allow_failed=True),
}


# ---------------------------------------------------------------------------
# DAG builders
# ---------------------------------------------------------------------------


def sweep_flow(plan: Plan, cache_root: str) -> FlowDag:
    """The DAG equivalent of executing ``plan``: compiles, cells, rows."""
    dag = FlowDag()
    compile_for_index: dict[int, str] = {}
    for gi, indices in enumerate(plan.compile_groups().values()):
        cell0 = plan.cells[indices[0]]
        bench = suite.get(cell0.benchmark)
        node = dag.add(FlowNode(
            name=f"compile:{cell0.benchmark}/g{gi}",
            kind="sweep.compile",
            fingerprint=trace_key(bench.source(), cell0.options),
            payload=(cell0.benchmark, cell0.options, cache_root),
        ))
        for i in indices:
            compile_for_index[i] = node.name
    rows_payload: list[tuple[str, str, str, str]] = []
    for i, cell in enumerate(plan.cells):
        name = f"cell:{i:03d}:{cell.benchmark}@{cell.machine.name}"
        dag.add(FlowNode(
            name=name,
            kind="sweep.cell",
            fingerprint=json.dumps(
                [repr(cell.machine.fingerprint()), plan.observe,
                 cell.options_label],
                separators=(",", ":"),
            ),
            deps=(compile_for_index[i],),
            payload=(cell.benchmark, cell.options, cell.machine,
                     cell.options_label, plan.observe, cache_root),
        ))
        rows_payload.append((name, cell.benchmark, cell.machine.name,
                             cell.options_label))
    dag.add(FlowNode(
        name="rows",
        kind="sweep.rows",
        fingerprint=json.dumps(
            [[b, m, label] for _, b, m, label in rows_payload],
            separators=(",", ":"),
        ),
        deps=tuple(n for n, _, _, _ in rows_payload),
        payload=rows_payload,
    ))
    return dag


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def run_sweep_flow(
    plan: Plan,
    *,
    cache: TraceCache,
    workers: int = 1,
    run_id: str | None = None,
    flow_spec: dict | None = None,
    policy: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    kill_action: Callable[[str, int], None] | None = None,
    recorder: Recorder | None = None,
    tracer: Tracer | None = None,
) -> tuple[EngineResult, FlowResult]:
    """Execute ``plan`` as a checkpointed flow in ``cache``'s directory.

    Returns an :class:`~repro.engine.executor.EngineResult` shaped
    exactly like :func:`~repro.engine.executor.execute`'s, with the
    same ``cell``/``engine`` recorder events plus one ``flow`` summary
    event, and the run's :class:`~repro.flow.engine.FlowResult`.
    ``run_id`` names the journal (passing an existing one resumes it);
    ``kill_action`` replaces the genuine SIGKILL for in-process tests.
    """
    if not cache.enabled:
        raise FlowError(
            "flow execution requires an enabled trace cache "
            "(pass --cache-dir, or drop --no-cache)"
        )
    rec = active_recorder(recorder)
    dag = sweep_flow(plan, cache.root)
    fr = run_flow(
        dag, SWEEP_RUNNERS,
        root=cache.root,
        flow_kind="sweep",
        flow_spec=flow_spec,
        run_id=run_id,
        workers=workers,
        policy=policy,
        faults=faults,
        tracer=tracer,
        kill_action=kill_action,
    )

    rows = fr.values.get("rows")
    if rows is None:
        # The aggregate itself failed: assemble in the parent so the
        # sweep still returns plan-shaped results.
        payload = dag.nodes["rows"].payload
        rows = _rows_node("rows", payload,
                          {n: fr.values.get(n) for n, _, _, _ in payload})

    # A restored node did no work this run: a restored compile counts
    # as a cache hit and adds no compile time, and a restored cell adds
    # no trace-load time, simulation time or replay counters.
    restored = set(fr.restored)
    compile_nodes = [n.name for n in dag.nodes.values()
                     if n.kind == "sweep.compile"]
    compiled = [n for n in compile_nodes if n in fr.values]
    executed = [n for n in compiled if n not in restored]
    misses = sum(1 for n in executed if not fr.values[n].get("cached"))
    restored_cells = frozenset(
        i for i, (name, *_rest) in enumerate(dag.nodes["rows"].payload)
        if name in restored)
    report = finish_run(
        plan, rows, rec,
        workers=workers,
        groups=len(compile_nodes),
        cache_hits=len(compiled) - misses,
        cache_misses=misses,
        seconds=fr.seconds,
        compile_seconds=(
            sum(fr.values[n].get("seconds", 0.0) for n in executed)
            + sum(c.compile_seconds for i, c in enumerate(rows)
                  if i not in restored_cells)),
        restored=restored_cells,
    )
    if rec.enabled:
        rec.emit("flow", **flow_event(fr))
    return EngineResult(cells=rows, report=report), fr


def flow_event(fr: FlowResult) -> dict:
    """The ``flow`` recorder-event payload for one flow result."""
    return {
        "run_id": fr.run_id,
        "dag_signature": fr.dag_signature,
        "nodes": len(fr.statuses),
        "executed": len(fr.executed),
        "restored": len(fr.restored),
        "failed": len(fr.failed),
        "seconds": fr.seconds,
    }
