"""Topological flow execution over the resilient engine substrate.

:func:`run_flow` executes a :class:`~repro.flow.dag.FlowDag` in
deterministic waves: every node whose dependencies have settled is
*restored* from its content-addressed checkpoint when one verifies, and
otherwise dispatched — through the existing supervised pool
(:func:`repro.engine.resilience.run_supervised`) or its serial twin —
so flow nodes inherit the whole retry/backoff/degradation ladder that
PR 5 built for sweep cells.  Aggregation nodes (``FlowRunner.local``)
run inline in the parent, after their inputs settle.

Durability contract, per completed node, in order:

1. the checkpoint is written to the state store (atomic, fsynced);
2. ``node_done`` is appended to the run journal (fsynced);
3. a matching ``kill`` fault (if any) fires — SIGKILL, no unwinding.

A crash between (1) and (2) loses only the journal line; the
checkpoint still restores on resume.  A ``torn-write`` fault truncates
the checkpoint *after* (1), modelling a crash mid-write: the journal
then over-claims, and resume's validation drops the torn entry and
recomputes the node.  Either way a resumed run's values are
bit-identical to an uninterrupted run's.

Node completion **ordinals** (1-based, executed nodes only, in wave
order) are the deterministic sites ``kill@N`` / ``torn-write@N`` fault
specs address; restored nodes never fire faults, so a resumed run
cannot re-kill itself at the boundary that killed its predecessor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..engine.faults import NO_FAULTS, FaultPlan
from ..engine.resilience import (
    RetryPolicy,
    SupervisionStats,
    run_group_serial,
    run_supervised,
)
from ..obs.trace import NULL_TRACER, Tracer
from .dag import FlowDag, FlowError
from .state import (
    JOURNAL_VERSION,
    FlowStateStore,
    Journal,
    JournalError,
    journal_path,
    new_run_id,
    read_journal,
    state_dir,
)

#: Terminal node statuses a run assigns.
NODE_STATUSES = ("executed", "restored", "failed", "skipped")


@dataclass(frozen=True, slots=True)
class FlowRunner:
    """How one node *kind* executes.

    ``func(name, payload, deps) -> value`` does the work; it must be a
    module-level (picklable) callable when the flow may run with
    ``workers > 1``.  ``validate(value) -> str | None`` guards both
    fresh results and restored checkpoints — a message fails/recomputes
    the node.  ``local`` runs the node inline in the parent (aggregates
    over sibling values); ``allow_failed`` passes failed/skipped
    dependencies through as ``None`` instead of skipping the node.
    """

    kind: str
    func: Callable[[str, Any, dict], Any]
    validate: Callable[[Any], str | None] | None = None
    local: bool = False
    allow_failed: bool = False


@dataclass(slots=True)
class FlowResult:
    """Everything one flow run produced."""

    run_id: str
    dag_signature: str
    values: dict[str, Any] = field(default_factory=dict)
    statuses: dict[str, str] = field(default_factory=dict)
    executed: list[str] = field(default_factory=list)
    restored: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)
    journal_path: str = ""
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failed

    def summary(self) -> str:
        text = (
            f"flow {self.run_id}: {len(self.executed)} executed / "
            f"{len(self.restored)} restored"
        )
        if self.failed:
            text += f" / {len(self.failed)} FAILED"
        return text + f" of {len(self.statuses)} nodes"


def _flow_node_task(payload: tuple):
    """Pool entry point: run one flow node's function.

    The runner function travels inside the payload (picklable by
    qualified name), so workers need no registry.
    """
    func, name, node_payload, deps, _attempt = payload
    value = func(name, node_payload, deps)
    return ([(0, value)], False)


def _validate_node_payload(payload, expected_indices: set[int]) -> str | None:
    """Structural check for a flow node's group payload.

    Unlike :func:`~repro.engine.resilience.validate_group_payload` this
    accepts arbitrary node values — value-level validation is the
    runner's job, applied in the parent.
    """
    if not (isinstance(payload, tuple) and len(payload) in (2, 3)):
        return "flow payload has wrong shape"
    results = payload[0]
    if not isinstance(results, list):
        return "flow payload results is not a list"
    seen: set[int] = set()
    for item in results:
        if not (isinstance(item, tuple) and len(item) == 2
                and isinstance(item[0], int)):
            return "flow payload result item malformed"
        seen.add(item[0])
    if seen != expected_indices:
        return (f"flow payload produced indices {sorted(seen)}, "
                f"expected {sorted(expected_indices)}")
    return None


def run_flow(
    dag: FlowDag,
    runners: dict[str, FlowRunner],
    *,
    root: str,
    flow_kind: str = "custom",
    flow_spec: dict | None = None,
    run_id: str | None = None,
    workers: int = 1,
    policy: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    tracer: Tracer | None = None,
    kill_action=None,
) -> FlowResult:
    """Execute ``dag``, journaling to ``<root>/flow/runs/<run_id>``.

    Passing an existing ``run_id`` *is* resuming: completed nodes whose
    checkpoints verify against the current signatures are restored, and
    only the rest execute.  A fresh run against a warm state store gets
    the same treatment — that is the incremental-recompute path (edit
    one benchmark, re-run, only its downstream slice executes).

    ``workers > 1`` dispatches each wave's non-local ready nodes
    through the supervised pool; ``kill_action(node, ordinal)``
    replaces the genuine SIGKILL for in-process tests.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not root:
        raise FlowError("flow execution requires a state root "
                        "(an enabled cache directory)")
    dag.validate()
    for node in dag.nodes.values():
        if node.kind not in runners:
            raise FlowError(
                f"no runner registered for node kind {node.kind!r} "
                f"(node {node.name!r})"
            )
    tr = tracer if tracer is not None else NULL_TRACER
    retry_policy = policy if policy is not None else RetryPolicy()
    fault_plan = faults if faults is not None else NO_FAULTS
    sigs = dag.signatures()
    order = dag.topological_order()
    store = FlowStateStore(state_dir(root))
    rid = run_id or new_run_id()
    jpath = journal_path(root, rid)
    import os

    resuming = os.path.exists(jpath)
    start = time.perf_counter()
    result = FlowResult(run_id=rid, dag_signature=dag.dag_signature(),
                        journal_path=jpath)

    journal = Journal(jpath)
    try:
        if not resuming:
            journal.append({
                "event": "flow_start",
                "version": JOURNAL_VERSION,
                "run_id": rid,
                "flow": {"kind": flow_kind, "spec": flow_spec},
                "dag_signature": result.dag_signature,
                "nodes": len(dag),
            })
        else:
            journal.append({
                "event": "flow_resume",
                "run_id": rid,
                "dag_signature": result.dag_signature,
            })
        with tr.span("flow.run", cat="flow", run_id=rid,
                     nodes=len(dag), workers=workers):
            _run_nodes(dag, runners, order, sigs, store, journal,
                       result, workers=workers, policy=retry_policy,
                       faults=fault_plan, tracer=tr,
                       kill_action=kill_action)
        journal.append({
            "event": "flow_end",
            "run_id": rid,
            "executed": len(result.executed),
            "restored": len(result.restored),
            "failed": len(result.failed),
        })
    finally:
        journal.close()
    result.seconds = time.perf_counter() - start
    return result


def _run_nodes(dag, runners, order, sigs, store, journal, result, *,
               workers, policy, faults, tracer, kill_action) -> None:
    """The wave loop: restore, dispatch, commit, repeat."""
    ordinal = 0  # executed-node completion count (the fault site index)

    def record(name: str, status: str, error: str | None = None) -> None:
        event = {"event": "node_done", "node": name,
                 "signature": sigs[name], "status": status}
        if error is not None:
            event["error"] = error
        journal.append(event)

    def commit(name: str, value) -> None:
        """Checkpoint -> journal -> (maybe) kill, in that order."""
        nonlocal ordinal
        node = dag.nodes[name]
        store.store(sigs[name], name, node.kind, value)
        ordinal += 1
        if faults:
            faults.maybe_tear_checkpoint(store, sigs[name], name, ordinal)
        record(name, "executed")
        result.values[name] = value
        result.statuses[name] = "executed"
        result.executed.append(name)
        if faults:
            faults.fire_kill(name, ordinal, kill_action=kill_action)

    def fail(name: str, message: str, status: str = "failed") -> None:
        result.statuses[name] = status
        result.failed[name] = message
        record(name, status, error=message)

    def deps_for(node) -> dict:
        return {d: result.values.get(d) for d in node.deps}

    while len(result.statuses) < len(dag):
        settled_before = len(result.statuses)
        ready: list[str] = []
        for name in order:
            if name in result.statuses:
                continue
            node = dag.nodes[name]
            if any(d not in result.statuses for d in node.deps):
                continue
            runner = runners[node.kind]
            bad = [d for d in node.deps
                   if result.statuses[d] in ("failed", "skipped")]
            if bad and not runner.allow_failed:
                fail(name, f"dependency {bad[0]} "
                           f"{result.statuses[bad[0]]}",
                     status="skipped")
                continue
            ready.append(name)

        # Restoration pass: a verifying checkpoint short-circuits work.
        to_run: list[str] = []
        for name in ready:
            node = dag.nodes[name]
            runner = runners[node.kind]
            payload = store.load(sigs[name])
            if payload is not None:
                value = payload["value"]
                message = (runner.validate(value)
                           if runner.validate is not None else None)
                if message is None:
                    result.values[name] = value
                    result.statuses[name] = "restored"
                    result.restored.append(name)
                    record(name, "restored")
                    continue
                store.reject(sigs[name])
            to_run.append(name)

        pooled = [n for n in to_run
                  if not runners[dag.nodes[n].kind].local]
        local = [n for n in to_run
                 if runners[dag.nodes[n].kind].local]

        if pooled:
            _dispatch_wave(dag, runners, pooled, deps_for,
                           commit, fail, workers=workers, policy=policy,
                           tracer=tracer)
        for name in local:
            node = dag.nodes[name]
            runner = runners[node.kind]
            with tracer.span("flow.node", cat="flow", node=name,
                             kind=node.kind, where="local"):
                try:
                    value = runner.func(name, node.payload,
                                        deps_for(node))
                except Exception as exc:
                    fail(name, f"{type(exc).__name__}: {exc}")
                    continue
            message = (runner.validate(value)
                       if runner.validate is not None else None)
            if message is not None:
                fail(name, message)
                continue
            commit(name, value)

        if len(result.statuses) == settled_before:
            # Defensive: validate() precludes cycles, so this means a
            # runner mutated the dag mid-run.
            stuck = [n for n in order if n not in result.statuses]
            raise FlowError(f"flow stalled with nodes {stuck!r} unsettled")


def _dispatch_wave(dag, runners, names, deps_for, commit, fail, *,
                   workers, policy, tracer) -> None:
    """Run one wave's pool-eligible nodes through the resilient engine.

    Outcomes are committed in input (wave) order regardless of
    completion order, so checkpoint/journal/kill ordinals stay
    deterministic under any worker interleaving.
    """
    bases = []
    for name in names:
        node = dag.nodes[name]
        runner = runners[node.kind]
        bases.append((runner.func, name, node.payload, deps_for(node)))

    if workers == 1 or len(names) == 1:
        outcomes = []
        for name, base in zip(names, bases):
            with tracer.span("flow.node", cat="flow", node=name,
                             kind=dag.nodes[name].kind, where="serial"):
                outcome = run_group_serial(
                    name,
                    lambda attempt, base=base: _flow_node_task(
                        base + (attempt,)),
                    policy,
                    expected_indices={0},
                    tracer=tracer,
                    validate=_validate_node_payload,
                )
            outcomes.append(outcome)
    else:
        stats = SupervisionStats()
        outcomes = run_supervised(
            [(name, base, {0}) for name, base in zip(names, bases)],
            workers=workers,
            task=_flow_node_task,
            make_payload=lambda base, attempt: base + (attempt,),
            serial_runner=lambda base, attempt: _flow_node_task(
                base + (attempt,)),
            policy=policy,
            stats=stats,
            tracer=tracer,
            validate=_validate_node_payload,
        )

    for name, outcome in zip(names, outcomes):
        if outcome.status == "failed":
            error = outcome.error
            message = (f"{error.kind}: {error.message}"
                       if error is not None else "node failed")
            fail(name, message)
            continue
        assert outcome.results is not None
        value = outcome.results[0][1]
        runner = runners[dag.nodes[name].kind]
        message = (runner.validate(value)
                   if runner.validate is not None else None)
        if message is not None:
            fail(name, message)
            continue
        commit(name, value)


def journal_completed(events: list[dict]) -> dict[str, str]:
    """``node signature -> status`` for every journaled completion.

    The *last* entry per node wins (a resume may re-journal a node it
    recomputed after a torn checkpoint).
    """
    done: dict[str, str] = {}
    for event in events:
        if event.get("event") != "node_done":
            continue
        sig = event.get("signature")
        if isinstance(sig, str):
            done[sig] = str(event.get("status", "?"))
    return done


def verify_journal(events: list[dict], dag: FlowDag,
                   root: str) -> dict[str, str]:
    """Cross-check a journal against the current DAG and state store.

    Returns ``node name -> "restorable" | "stale" | "missing"`` — a
    preview of what resume will restore vs recompute.  ``stale`` means
    the journaled signature no longer matches (inputs changed);
    ``missing`` means the signature matches but no valid checkpoint
    survives (e.g. a torn write).
    """
    done = journal_completed(events)
    store = FlowStateStore(state_dir(root))
    sigs = dag.signatures()
    out: dict[str, str] = {}
    for name, sig in sigs.items():
        status = done.get(sig)
        if status not in ("executed", "restored"):
            out[name] = "stale"
        elif store.load(sig) is not None:
            out[name] = "restorable"
        else:
            out[name] = "missing"
    return out
