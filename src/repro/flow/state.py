"""Persisted flow state: content-addressed checkpoints + run journals.

Two durable artifacts make a flow run crash-resumable:

* the **state store** — one pickle per completed node, addressed by the
  node's content signature (:meth:`repro.flow.dag.FlowDag.signatures`),
  living under ``<cache-root>/flow/state``.  It is a
  :class:`repro.store.ContentStore` namespace, so a SIGKILL mid-write
  can only ever leave a temp file, never a torn entry behind the final
  name, and a stale or structurally invalid entry — unreadable pickle,
  wrong format tag, truncated by a torn write — is dropped and the
  node recomputes.
* the **run journal** — an append-only JSONL file per run id under
  ``<cache-root>/flow/runs``, fsynced line by line.  It records the
  flow's rebuildable spec (``flow_start``), one ``node_done`` per
  completed node, and a ``flow_end`` summary; ``repro resume`` replays
  it to rebuild the DAG, then trusts only checkpoints that *verify*
  against the current signatures.

Restoration is checkpoint-driven: the journal says what a previous
process *claimed* to finish, the state store proves what actually
survived.  A node journaled complete whose checkpoint fails validation
(the ``torn-write`` fault) is recomputed, so resumed results stay
bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import os
import secrets
import time

from ..store import ContentStore
from .dag import FlowError

#: Bump when the checkpoint payload layout changes incompatibly.
STATE_FORMAT = "flow-state-v1"

#: Journal schema version (checked on resume).
JOURNAL_VERSION = 1


class JournalError(FlowError):
    """A missing, empty, truncated-at-birth, or incompatible journal."""


def flow_root(root: str) -> str:
    """The flow subtree inside a cache root."""
    return os.path.join(root, "flow")


def state_dir(root: str) -> str:
    return os.path.join(flow_root(root), "state")


def runs_dir(root: str) -> str:
    return os.path.join(flow_root(root), "runs")


def journal_path(root: str, run_id: str) -> str:
    if not run_id or "/" in run_id or run_id != os.path.basename(run_id):
        raise JournalError(f"malformed run id {run_id!r}")
    return os.path.join(runs_dir(root), run_id + ".jsonl")


def new_run_id() -> str:
    """A sortable, collision-resistant run id."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"{stamp}-{secrets.token_hex(3)}"


def list_runs(root: str) -> list[str]:
    """Known run ids under ``root``, oldest first."""
    try:
        names = sorted(os.listdir(runs_dir(root)))
    except OSError:
        return []
    return [n[:-len(".jsonl")] for n in names if n.endswith(".jsonl")]


def _is_checkpoint(payload: object) -> bool:
    return (isinstance(payload, dict)
            and payload.get("format") == STATE_FORMAT
            and "value" in payload)


class FlowStateStore(ContentStore):
    """Content-addressed node checkpoints rooted at one directory."""

    def load(self, signature: str) -> dict | None:
        """The checkpoint for ``signature``, or ``None``.

        Returns the full wrapper dict (``{"format", "node", "kind",
        "value"}``) so the caller can apply its own value-level
        validation (and :meth:`reject` a failure).
        """
        return self._get(signature, _is_checkpoint)

    def store(self, signature: str, node: str, kind: str,
              value: object) -> None:
        """Write one checkpoint atomically."""
        self._put(signature, {"format": STATE_FORMAT, "node": node,
                              "kind": kind, "value": value})


class Journal:
    """Append-only JSONL run journal, fsynced per line.

    Every append survives a SIGKILL of the writing process: the line is
    flushed and fsynced before :meth:`append` returns, so the journal
    never claims less than what the state store holds (checkpoints are
    written *before* their ``node_done`` line).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._handle = open(path, "a", encoding="utf-8")

    def append(self, event: dict) -> None:
        self._handle.write(json.dumps(event, separators=(",", ":"),
                                      sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:  # pragma: no cover - defensive
            pass

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_journal(path: str) -> list[dict]:
    """Load and validate a run journal.

    Raises :class:`JournalError` with a one-line message on a missing,
    empty, or incompatible journal; silently drops a trailing torn
    line (the one write a crash can interrupt).
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except FileNotFoundError:
        raise JournalError(f"no journal at {path}") from None
    except OSError as exc:
        raise JournalError(
            f"cannot read journal {path}: {exc.strerror or exc}"
        ) from None
    events: list[dict] = []
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except ValueError:
            if i == len(lines) - 1:
                break  # torn final line: the crash interrupted one write
            raise JournalError(
                f"journal {path}: malformed line {i + 1}"
            ) from None
        if not isinstance(event, dict):
            raise JournalError(
                f"journal {path}: line {i + 1} is not an event object"
            )
        events.append(event)
    if not events:
        raise JournalError(f"journal {path} is empty")
    head = events[0]
    if head.get("event") != "flow_start":
        raise JournalError(
            f"journal {path}: first event is "
            f"{head.get('event', '?')!r}, expected 'flow_start'"
        )
    version = head.get("version")
    if version != JOURNAL_VERSION:
        raise JournalError(
            f"journal {path}: version {version!r} != {JOURNAL_VERSION} "
            "(written by an incompatible build; start a fresh run)"
        )
    return events
