"""Declarative, crash-resumable workflow DAGs (``repro.flow``).

The flow layer turns a sweep plan (``repro suite --flow``,
:func:`repro.api.flow_sweep`) into an explicit DAG of
content-fingerprinted nodes (:mod:`~repro.flow.dag`), executes them
through the resilient engine substrate (:mod:`~repro.flow.engine`),
and persists every completed node to a content-addressed state store
alongside an append-only, fsynced run journal
(:mod:`~repro.flow.state`).

Kill the process at *any* node boundary — ``kill -9``, a ``kill@N``
fault spec, a power cut — and ``repro resume <run-id>`` replays the
journal, verifies the surviving checkpoints, re-executes only the
nodes that never completed (or whose checkpoints were torn mid-write),
and produces output bit-identical to an uninterrupted run.  The same
machinery gives incremental recomputation for free: change one
benchmark's source or one machine preset and only the downstream DAG
slice re-runs.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, globals(), {
    ".dag": ("FlowDag", "FlowError", "FlowNode"),
    ".engine": ("NODE_STATUSES", "FlowResult", "FlowRunner",
                "journal_completed", "run_flow", "verify_journal"),
    ".flows": ("SWEEP_RUNNERS", "flow_event", "run_sweep_flow",
               "sweep_flow"),
    ".state": ("JOURNAL_VERSION", "STATE_FORMAT", "FlowStateStore",
               "Journal", "JournalError", "flow_root", "journal_path",
               "list_runs", "new_run_id", "read_journal", "runs_dir",
               "state_dir"),
})

__all__ = [
    "FlowDag",
    "FlowError",
    "FlowNode",
    "FlowResult",
    "FlowRunner",
    "FlowStateStore",
    "JOURNAL_VERSION",
    "Journal",
    "JournalError",
    "NODE_STATUSES",
    "STATE_FORMAT",
    "SWEEP_RUNNERS",
    "flow_event",
    "flow_root",
    "journal_completed",
    "journal_path",
    "list_runs",
    "new_run_id",
    "read_journal",
    "run_flow",
    "run_sweep_flow",
    "runs_dir",
    "state_dir",
    "sweep_flow",
    "verify_journal",
]
