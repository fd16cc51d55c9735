"""Counters and structured-event recording.

One tiny abstraction serves every layer of the pipeline: a
:class:`Recorder` accumulates named counters and emits structured events;
:class:`JsonlRecorder` additionally streams each event as one JSON line,
which is the machine-readable "run report" format consumed by
``scripts/check_report_schema.py`` and archived by CI.

The :data:`NULL_RECORDER` singleton is a no-op sink: code takes a
recorder parameter defaulting to ``None`` and calls
:func:`active_recorder` (or checks ``recorder.enabled``) so the disabled
path costs one attribute test, nothing more.

Every event is a flat JSON object with a required string field
``"event"``; the known event types, their required fields and the
schema version live in :mod:`repro.obs.schema` and are documented in
``docs/observability.md``.
"""

from __future__ import annotations

import json
import threading
from typing import IO

__all__ = [
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "JsonlRecorder",
    "active_recorder",
    "read_jsonl",
    "read_jsonl_tolerant",
]


class Recorder:
    """In-memory counters plus an ordered event log."""

    __slots__ = ("counters", "events")

    enabled = True

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.events: list[dict] = []

    def incr(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at zero)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def emit(self, event: str, /, **fields) -> None:
        """Record one structured event."""
        record = {"event": event, **fields}
        self.events.append(record)
        self._write(record)

    def _write(self, record: dict) -> None:  # overridden by JsonlRecorder
        pass

    def events_named(self, event: str) -> list[dict]:
        """All recorded events of one type, in order."""
        return [e for e in self.events if e["event"] == event]

    # Recorders are usable as context managers; only JsonlRecorder has
    # anything to release on exit.
    def close(self) -> None:
        pass

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullRecorder(Recorder):
    """A recorder that records nothing (the zero-overhead default)."""

    __slots__ = ()

    enabled = False

    def incr(self, name: str, value: float = 1) -> None:
        pass

    def emit(self, event: str, /, **fields) -> None:
        pass


#: Shared no-op sink; safe to pass anywhere a recorder is expected.
NULL_RECORDER = NullRecorder()


def active_recorder(recorder: Recorder | None) -> Recorder:
    """Normalize an optional recorder argument to a usable sink."""
    return recorder if recorder is not None else NULL_RECORDER


class JsonlRecorder(Recorder):
    """A recorder that also streams every event as one JSON line.

    Safe under concurrent writers: each event is serialized to one
    complete line first and handed to the file object in a *single*
    ``write()`` call under a lock, so threads can never interleave or
    tear lines (``flush()``/``close()`` take the same lock).

    Usable as a context manager::

        from repro.obs.schema import SCHEMA_VERSION

        with JsonlRecorder("results/run_report.jsonl") as rec:
            rec.emit("run_start", schema=SCHEMA_VERSION, run_id="suite")
    """

    __slots__ = ("path", "_handle", "_lock")

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = path
        self._handle: IO[str] | None = open(path, "w", encoding="utf-8")
        self._lock = threading.Lock()

    def _write(self, record: dict) -> None:
        # Serialize outside the lock; emit as one atomic write() so a
        # concurrent writer can never interleave inside a line.
        line = json.dumps(record, separators=(",", ":"),
                          sort_keys=True, default=str) + "\n"
        with self._lock:
            if self._handle is None:
                raise ValueError(f"recorder for {self.path!r} is closed")
            self._handle.write(line)

    def flush(self) -> None:
        """Flush buffered lines to the OS (no-op when closed)."""
        with self._lock:
            if self._handle is not None:
                self._handle.flush()

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


def read_jsonl(path: str) -> list[dict]:
    """Load a JSONL run report back into a list of event dicts."""
    events = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}")
            if not isinstance(record, dict) or "event" not in record:
                raise ValueError(
                    f"{path}:{lineno}: every line must be an object "
                    "with an 'event' field"
                )
            events.append(record)
    return events


def read_jsonl_tolerant(path: str) -> tuple[list[dict], int]:
    """Load a JSONL report, skipping malformed lines instead of raising.

    A report written by an interrupted run typically ends in one torn
    (half-written) line; CLI readers (``repro trace``,
    ``repro report --input``) must degrade gracefully rather than
    stack-trace.  Returns ``(events, skipped)`` where ``skipped`` counts
    the undecodable or structurally invalid lines that were dropped.
    """
    events: list[dict] = []
    skipped = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if not isinstance(record, dict) or "event" not in record:
                skipped += 1
                continue
            events.append(record)
    return events, skipped
