"""The run-history ledger: an append-only, content-addressed store.

Every JSONL run report can be *ingested* into one small SQLite
database, giving the repro a memory across runs: per-cell measurements
(cycles, instructions, ILP, stall attribution, replay-memo counters,
supervision status and attempt histories), run-level engine statistics
and metric counters, and per-track resource telemetry.  ``repro diff``
compares any two entries (or raw files) and ``repro dash`` renders the
whole ledger as a self-contained HTML dashboard.  Throughput is not a
ledger concern: ``bench/run.py`` measures it, against the bounds in
``BENCHMARK.json``.

Entries are **content-addressed**: each run's deterministic measurement
content — package version, run id, machine list, and every cell's
simulation numbers, status, attempts and attempt-history structure, but
*not* wall-clock seconds or counter timings — is hashed into a SHA-256
fingerprint, and ingesting a report whose fingerprint is already
present is a no-op.  Ingesting the same report twice is therefore
idempotent, and two runs of the same configuration (bit-identical by
the engine's determinism guarantee) collapse to one ledger entry even
though their wall-clock fields differ.

Only the stdlib (``sqlite3``, ``json``, ``hashlib``) is used.  The
default ledger lives at ``results/history.sqlite``; override with
``$REPRO_LEDGER`` or the CLI ``--ledger`` flag.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
from dataclasses import dataclass

from .recorder import read_jsonl_tolerant
from .schema import STALL_CAUSES

#: Default on-disk location (CI uploads this file as an artifact).
DEFAULT_LEDGER_PATH = "results/history.sqlite"

#: Environment override for the ledger path.
LEDGER_ENV = "REPRO_LEDGER"

#: Bump when the table layout changes (old ledgers are rejected,
#: not migrated — the source reports are the durable artifact).
#: v2: per-cell ``scheduler`` column (the scheduler backend the cell
#: compiled through; NULL for pre-backend reports).
#: v3: vectorized-replay counter columns (``replay_vectorized_blocks``,
#: ``replay_scalar_fallback_blocks``, ``replay_memo_persisted_hits``)
#: and the matching engine-event roll-ups.
#: v4: run reports only; the bench-document mode table is gone.
LEDGER_VERSION = 4

#: Per-cell replay-memo counter columns (match ReplayStats.as_dict()).
_REPLAY_KEYS = ("blocks", "memo_hits", "memo_misses", "fallbacks",
                "memo_instructions", "direct_instructions",
                "vectorized_blocks", "scalar_fallback_blocks",
                "memo_persisted_hits")

#: Run-level engine-report fields copied straight from the ``engine``
#: event (numeric roll-ups plus the replay backend name).
_ENGINE_KEYS = (
    "workers", "cells", "groups", "cache_hits", "cache_misses",
    "seconds", "compile_seconds", "sim_seconds",
    "memo_hits", "memo_misses", "memo_fallbacks",
    "memo_instructions", "direct_instructions",
    "vectorized_blocks", "scalar_fallback_blocks", "memo_persisted_hits",
    "replay_backend",
    "ok_cells", "retried_cells", "degraded_cells", "failed_cells",
    "group_retries", "pool_restarts",
)

_SCHEMA_SQL = f"""
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    fingerprint TEXT NOT NULL UNIQUE,
    kind TEXT NOT NULL,              -- 'report'
    run_id TEXT NOT NULL,
    schema_version INTEGER,
    package_version TEXT NOT NULL,
    source TEXT,
    machines TEXT NOT NULL,          -- JSON list of machine names
    wall_seconds REAL,
    engine TEXT,                     -- JSON: the 'engine' event, if any
    counters TEXT,                   -- JSON: run_end counters
    gauges TEXT                      -- JSON: metrics gauges
);
CREATE TABLE IF NOT EXISTS cells (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    run_ref INTEGER NOT NULL REFERENCES runs(id),
    benchmark TEXT NOT NULL,
    machine TEXT NOT NULL,
    options TEXT NOT NULL,
    scheduler TEXT,
    status TEXT NOT NULL,
    attempts INTEGER NOT NULL,
    cached INTEGER,
    seconds REAL,
    instructions INTEGER,
    minor_cycles INTEGER,
    base_cycles REAL,
    parallelism REAL,
    cpi REAL,
    {", ".join(f"stall_{c} INTEGER" for c in STALL_CAUSES)},
    issued_cycles INTEGER,
    by_class TEXT,                   -- JSON: per-class stall roll-up
    {", ".join(f"replay_{k} INTEGER" for k in _REPLAY_KEYS)},
    error TEXT,                      -- JSON: final typed error
    history TEXT                     -- JSON: per-attempt records
);
CREATE TABLE IF NOT EXISTS resources (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    run_ref INTEGER NOT NULL REFERENCES runs(id),
    track TEXT NOT NULL,
    rss_mb REAL,
    rss_peak_mb REAL,
    cpu_seconds REAL,
    samples INTEGER
);
CREATE INDEX IF NOT EXISTS idx_cells_run ON cells(run_ref);
CREATE INDEX IF NOT EXISTS idx_cells_key
    ON cells(benchmark, machine, options);
"""


def default_ledger_path() -> str:
    """The ledger path: ``$REPRO_LEDGER`` or the repo-local default."""
    return os.environ.get(LEDGER_ENV) or DEFAULT_LEDGER_PATH


@dataclass(frozen=True, slots=True)
class IngestResult:
    """What one ingest call did."""

    run_ref: int        # runs.id of the (new or pre-existing) entry
    fingerprint: str
    created: bool       # False when content addressing deduplicated

    def summary(self) -> str:
        verb = "ingested as" if self.created else "already present as"
        return f"{verb} run #{self.run_ref} ({self.fingerprint[:12]})"


def _package_version() -> str:
    from .. import __version__

    return __version__


# ----------------------------------------------------------------------
# report events -> uniform payload

def _cell_template(benchmark: str, machine: str, options: str) -> dict:
    cell = {
        "benchmark": benchmark,
        "machine": machine,
        "options": options,
        "scheduler": None,
        "status": "ok",
        "attempts": 1,
        "cached": None,
        "seconds": None,
        "instructions": None,
        "minor_cycles": None,
        "base_cycles": None,
        "parallelism": None,
        "cpi": None,
        "stalls": None,
        "replay": None,
        "error": None,
        "history": [],
    }
    return cell


def _stalls_payload(stalls: dict | None) -> dict | None:
    if not isinstance(stalls, dict):
        return None
    out = {c: stalls.get(c) for c in STALL_CAUSES}
    out["issued_cycles"] = stalls.get("issued_cycles")
    by_class = stalls.get("by_class")
    if isinstance(by_class, dict):
        out["by_class"] = by_class
    return out


def _derive_minor_cycles(stalls: dict | None) -> int | None:
    """Reconstruct minor cycles via the conservation law, if possible."""
    if not isinstance(stalls, dict):
        return None
    values = [stalls.get(c) for c in STALL_CAUSES]
    values.append(stalls.get("issued_cycles"))
    if any(not isinstance(v, int) for v in values):
        return None
    return sum(values)


def payload_from_events(events: list[dict], source: str | None = None) -> dict:
    """Build the uniform run payload the ledger stores and ``diff`` reads.

    Joins the report's event streams into one per-cell view:

    * ``cell`` events (the engine path) carry status/attempts/cached/
      seconds plus — since this schema revision — the simulation numbers
      and attempt histories;
    * ``sweep_row`` events contribute the stall breakdown for observed
      sweeps;
    * ``timing`` events (the ``repro report`` observe path, and the
      per-cell timings ``repro suite --report`` re-emits) contribute
      instructions/cycles/stalls/replay for reports without engine
      events.

    Every numeric field present in the source events survives into the
    payload unchanged — the ledger round-trip is lossless.
    """
    run_id = "?"
    schema = None
    machines: list[str] = []
    engine = None
    counters: dict = {}
    gauges: dict = {}
    wall_seconds = None
    resources: list[dict] = []

    cell_events: list[dict] = []
    sweep_rows: dict[tuple, list[dict]] = {}
    timings: dict[tuple, list[dict]] = {}

    for event in events:
        name = event.get("event")
        if name == "run_start":
            run_id = event.get("run_id", "?")
            schema = event.get("schema")
            if isinstance(event.get("machines"), list):
                machines = [str(m) for m in event["machines"]]
        elif name == "engine":
            engine = {k: event.get(k) for k in _ENGINE_KEYS
                      if k in event}
        elif name == "metrics":
            if isinstance(event.get("gauges"), dict):
                gauges = event["gauges"]
        elif name == "run_end":
            if isinstance(event.get("counters"), dict):
                counters = event["counters"]
            if isinstance(event.get("seconds"), (int, float)):
                wall_seconds = event["seconds"]
        elif name == "resource":
            resources.append({
                "track": event.get("track"),
                "rss_mb": event.get("rss_mb"),
                "rss_peak_mb": event.get("rss_peak_mb"),
                "cpu_seconds": event.get("cpu_seconds"),
                "samples": event.get("samples"),
            })
        elif name == "cell":
            cell_events.append(event)
        elif name == "sweep_row":
            key = (event.get("benchmark"), event.get("machine"),
                   event.get("options"))
            sweep_rows.setdefault(key, []).append(event)
        elif name == "timing":
            key = (event.get("benchmark"), event.get("machine"))
            timings.setdefault(key, []).append(event)

    # Engine runs report their own wall clock; prefer it over the
    # CLI-level run_end stamp (measure writes 0.0 there).
    if engine is not None and isinstance(engine.get("seconds"),
                                         (int, float)):
        wall_seconds = engine["seconds"]

    cells: list[dict] = []
    if cell_events:
        for event in cell_events:
            cell = _cell_template(event.get("benchmark"),
                                  event.get("machine"),
                                  event.get("options", "default"))
            cell["scheduler"] = event.get("scheduler")
            cell["status"] = event.get("status", "ok")
            cell["attempts"] = event.get("attempts", 1)
            cell["cached"] = event.get("cached")
            cell["seconds"] = event.get("seconds")
            for field in ("instructions", "minor_cycles", "base_cycles",
                          "parallelism"):
                if field in event:
                    cell[field] = event[field]
            if isinstance(event.get("stalls"), dict):
                cell["stalls"] = _stalls_payload(event["stalls"])
            if isinstance(event.get("replay"), dict):
                cell["replay"] = event["replay"]
            if isinstance(event.get("error"), dict):
                cell["error"] = event["error"]
            if isinstance(event.get("history"), list):
                cell["history"] = event["history"]
            key = (cell["benchmark"], cell["machine"], cell["options"])
            rows = sweep_rows.get(key)
            if rows:
                row = rows.pop(0)
                for field in ("instructions", "base_cycles",
                              "parallelism"):
                    if cell[field] is None and field in row:
                        cell[field] = row[field]
                if cell["stalls"] is None:
                    cell["stalls"] = _stalls_payload(row.get("stalls"))
            tkey = (cell["benchmark"], cell["machine"])
            trows = timings.get(tkey)
            if trows:
                timing = trows.pop(0)
                for field in ("instructions", "minor_cycles",
                              "base_cycles", "parallelism", "cpi"):
                    if cell[field] is None and field in timing:
                        cell[field] = timing[field]
                if cell["stalls"] is None:
                    cell["stalls"] = _stalls_payload(timing.get("stalls"))
                if cell["replay"] is None and isinstance(
                        timing.get("replay"), dict):
                    cell["replay"] = timing["replay"]
            if cell["minor_cycles"] is None:
                cell["minor_cycles"] = _derive_minor_cycles(cell["stalls"])
            if cell["cpi"] is None and isinstance(
                    cell["minor_cycles"], int) and isinstance(
                    cell["instructions"], int) and cell["instructions"]:
                cell["cpi"] = cell["minor_cycles"] / cell["instructions"]
            cells.append(cell)
    else:
        # No engine events: a pure observe report (repro report path).
        # One cell per timing event, in emission order.
        for (benchmark, machine), trows in timings.items():
            for timing in trows:
                cell = _cell_template(benchmark, machine, "default")
                for field in ("instructions", "minor_cycles",
                              "base_cycles", "parallelism", "cpi"):
                    if field in timing:
                        cell[field] = timing[field]
                cell["stalls"] = _stalls_payload(timing.get("stalls"))
                if isinstance(timing.get("replay"), dict):
                    cell["replay"] = timing["replay"]
                cells.append(cell)

    if not machines:
        seen: list[str] = []
        for cell in cells:
            if cell["machine"] not in seen:
                seen.append(cell["machine"])
        machines = seen

    return {
        "kind": "report",
        "run_id": run_id,
        "schema": schema,
        "package_version": _package_version(),
        "source": source,
        "machines": machines,
        "wall_seconds": wall_seconds,
        "engine": engine,
        "counters": counters,
        "gauges": gauges,
        "cells": cells,
        "resources": resources,
    }


def _deterministic_cell(cell: dict) -> dict:
    """The fingerprint-relevant subset of one cell (no wall-clock)."""
    out = {
        "benchmark": cell.get("benchmark"),
        "machine": cell.get("machine"),
        "options": cell.get("options"),
        "scheduler": cell.get("scheduler"),
        "status": cell.get("status"),
        "attempts": cell.get("attempts"),
        "instructions": cell.get("instructions"),
        "minor_cycles": cell.get("minor_cycles"),
        "base_cycles": cell.get("base_cycles"),
        "parallelism": cell.get("parallelism"),
        "stalls": cell.get("stalls"),
        "replay": cell.get("replay"),
    }
    error = cell.get("error")
    out["error_kind"] = error.get("kind") if isinstance(error, dict) \
        else None
    # Attempt messages embed wall-clock figures (timeouts, paths) and
    # seconds are wall-clock outright; the ladder *structure* is what
    # identical runs reproduce.
    out["history"] = [
        (entry.get("attempt"), entry.get("where"), entry.get("kind"))
        for entry in cell.get("history") or []
        if isinstance(entry, dict)
    ]
    return out


def fingerprint_payload(payload: dict) -> str:
    """SHA-256 over a payload's deterministic measurement content."""
    cells = sorted(
        (_deterministic_cell(c) for c in payload.get("cells", [])),
        key=lambda c: (c["benchmark"] or "", c["machine"] or "",
                       c["options"] or ""),
    )
    content = {
        "kind": "report",
        "package_version": payload.get("package_version"),
        "schema": payload.get("schema"),
        "run_id": payload.get("run_id"),
        "machines": payload.get("machines"),
        "cells": cells,
    }
    canonical = json.dumps(content, sort_keys=True,
                           separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# the ledger itself

class LedgerError(ValueError):
    """Raised for unusable ledgers or unresolvable run references."""


#: Seconds SQLite waits on a locked database before giving up (both the
#: driver-level connect timeout and PRAGMA busy_timeout).
BUSY_TIMEOUT = 30.0

#: Bounded application-level retries for writes that still lose the
#: lock race after the busy timeout (each sleeps briefly first).
LOCK_RETRIES = 5
_LOCK_RETRY_SLEEP = 0.05


def _is_locked(exc: sqlite3.OperationalError) -> bool:
    text = str(exc).lower()
    return "locked" in text or "busy" in text


class HistoryLedger:
    """One SQLite-backed run-history ledger (see module docstring).

    Usable as a context manager; all writes are committed per ingest.
    Safe under concurrent writers: the connection waits
    :data:`BUSY_TIMEOUT` seconds on a locked database, and ingestion
    additionally retries a bounded number of times, so two simultaneous
    ``repro ingest`` processes serialize instead of dying with
    ``database is locked``.

    ``create=False`` refuses to materialize a missing ledger — readers
    (``repro diff``, ``repro dash``) use it so a typo'd path is a clean
    :class:`LedgerError`, never a fresh empty database.
    """

    def __init__(self, path: str | None = None, *,
                 create: bool = True) -> None:
        self.path = path or default_ledger_path()
        if not create and not os.path.exists(self.path):
            raise LedgerError(f"no ledger at {self.path}")
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._conn = sqlite3.connect(self.path, timeout=BUSY_TIMEOUT)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute(
            f"PRAGMA busy_timeout = {int(BUSY_TIMEOUT * 1000)}")
        self._conn.executescript(_SCHEMA_SQL)
        # Two processes may race to stamp a fresh ledger's version:
        # INSERT OR IGNORE lets the loser fall through to the re-read.
        self._conn.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
            ("ledger_version", str(LEDGER_VERSION)),
        )
        self._conn.commit()
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'ledger_version'"
        ).fetchone()
        if row is not None and row["value"] != str(LEDGER_VERSION):
            raise LedgerError(
                f"{self.path}: ledger version {row['value']} != "
                f"{LEDGER_VERSION}; re-ingest the source reports into a "
                "fresh ledger"
            )

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "HistoryLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- ingestion ------------------------------------------------------

    def ingest_report(self, report: str | list,
                      source: str | None = None) -> IngestResult:
        """Ingest one JSONL run report (path or pre-loaded event list).

        Raises :class:`LedgerError` when the events hold no
        ``run_start`` (an empty file, or one holding only torn lines).
        """
        if isinstance(report, str):
            events, _skipped = read_jsonl_tolerant(report)
            source = source if source is not None else report
        else:
            events = report
        if not any(e.get("event") == "run_start" for e in events):
            raise LedgerError(
                f"{source or 'report'}: no run_start event; not a run report")
        payload = payload_from_events(events, source=source)
        return self._ingest_payload(payload)

    def _ingest_payload(self, payload: dict) -> IngestResult:
        """Write one payload, retrying bounded times on a locked db."""
        last: sqlite3.OperationalError | None = None
        for attempt in range(LOCK_RETRIES + 1):
            if attempt:
                time.sleep(_LOCK_RETRY_SLEEP * attempt)
            try:
                return self._ingest_once(payload)
            except sqlite3.OperationalError as exc:
                if not _is_locked(exc):
                    raise
                last = exc
                try:
                    self._conn.rollback()
                except sqlite3.Error:
                    pass
        raise LedgerError(
            f"{self.path}: database stayed locked through "
            f"{LOCK_RETRIES} retries ({last})"
        )

    def _ingest_once(self, payload: dict) -> IngestResult:
        fingerprint = fingerprint_payload(payload)
        row = self._conn.execute(
            "SELECT id FROM runs WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        if row is not None:
            return IngestResult(row["id"], fingerprint, created=False)
        try:
            return self._insert_payload(payload, fingerprint)
        except sqlite3.IntegrityError:
            # Concurrent ingest of identical content: the other writer
            # won the UNIQUE(fingerprint) race; dedupe to its entry.
            self._conn.rollback()
            row = self._conn.execute(
                "SELECT id FROM runs WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
            if row is None:  # pragma: no cover - defensive
                raise
            return IngestResult(row["id"], fingerprint, created=False)

    def _insert_payload(self, payload: dict,
                        fingerprint: str) -> IngestResult:
        cur = self._conn.execute(
            "INSERT INTO runs (fingerprint, kind, run_id, schema_version,"
            " package_version, source, machines, wall_seconds, engine,"
            " counters, gauges) VALUES (?,?,?,?,?,?,?,?,?,?,?)",
            (
                fingerprint,
                payload["kind"],
                payload["run_id"],
                payload.get("schema"),
                payload["package_version"],
                payload.get("source"),
                json.dumps(payload.get("machines") or []),
                payload.get("wall_seconds"),
                json.dumps(payload["engine"])
                if payload.get("engine") is not None else None,
                json.dumps(payload.get("counters") or {}),
                json.dumps(payload.get("gauges") or {}),
            ),
        )
        run_ref = cur.lastrowid
        assert run_ref is not None
        for cell in payload.get("cells", []):
            self._insert_cell(run_ref, cell)
        for res in payload.get("resources", []):
            self._conn.execute(
                "INSERT INTO resources (run_ref, track, rss_mb,"
                " rss_peak_mb, cpu_seconds, samples) VALUES (?,?,?,?,?,?)",
                (run_ref, res.get("track"), res.get("rss_mb"),
                 res.get("rss_peak_mb"), res.get("cpu_seconds"),
                 res.get("samples")),
            )
        self._conn.commit()
        return IngestResult(run_ref, fingerprint, created=True)

    def _insert_cell(self, run_ref: int, cell: dict) -> None:
        stalls = cell.get("stalls") or {}
        replay = cell.get("replay") or {}
        by_class = stalls.get("by_class")
        columns = [
            "run_ref", "benchmark", "machine", "options", "scheduler",
            "status", "attempts", "cached", "seconds", "instructions",
            "minor_cycles", "base_cycles", "parallelism", "cpi",
        ]
        values: list = [
            run_ref, cell["benchmark"], cell["machine"], cell["options"],
            cell.get("scheduler"), cell["status"], cell["attempts"],
            (None if cell.get("cached") is None
             else int(bool(cell["cached"]))),
            cell.get("seconds"), cell.get("instructions"),
            cell.get("minor_cycles"), cell.get("base_cycles"),
            cell.get("parallelism"), cell.get("cpi"),
        ]
        for cause in STALL_CAUSES:
            columns.append(f"stall_{cause}")
            values.append(stalls.get(cause))
        columns.append("issued_cycles")
        values.append(stalls.get("issued_cycles"))
        columns.append("by_class")
        values.append(json.dumps(by_class, sort_keys=True)
                      if by_class is not None else None)
        for key in _REPLAY_KEYS:
            columns.append(f"replay_{key}")
            values.append(replay.get(key))
        columns.append("error")
        values.append(json.dumps(cell["error"], sort_keys=True)
                      if cell.get("error") is not None else None)
        columns.append("history")
        values.append(json.dumps(cell.get("history") or [])
                      if cell.get("history") else None)
        marks = ",".join("?" * len(columns))
        self._conn.execute(
            f"INSERT INTO cells ({','.join(columns)}) VALUES ({marks})",
            values,
        )

    # -- queries --------------------------------------------------------

    def runs(self) -> list[dict]:
        """All ledger entries, oldest first."""
        out = []
        for row in self._conn.execute(
            "SELECT id, fingerprint, kind, run_id, schema_version,"
            " package_version, source, machines, wall_seconds,"
            " engine, counters, gauges FROM runs ORDER BY id"
        ):
            entry = dict(row)
            entry["machines"] = json.loads(entry["machines"])
            for field in ("engine", "counters", "gauges"):
                entry[field] = (json.loads(entry[field])
                                if entry[field] else None)
            out.append(entry)
        return out

    def resolve(self, ref: str) -> int:
        """Resolve a run reference to a ``runs.id``.

        Accepts a numeric id, ``latest`` / ``latest~N`` (N entries
        back), or a unique fingerprint hex prefix (≥ 6 chars).
        """
        ref = ref.strip()
        if ref.isdigit():
            run_ref = int(ref)
            row = self._conn.execute(
                "SELECT id FROM runs WHERE id = ?", (run_ref,)
            ).fetchone()
            if row is None:
                raise LedgerError(f"no ledger entry with id {run_ref}")
            return run_ref
        if ref == "latest" or ref.startswith("latest~"):
            back = 0
            if ref.startswith("latest~"):
                suffix = ref[len("latest~"):]
                if not suffix.isdigit():
                    raise LedgerError(f"bad run reference {ref!r}")
                back = int(suffix)
            rows = self._conn.execute(
                "SELECT id FROM runs ORDER BY id DESC LIMIT 1 OFFSET ?",
                (back,),
            ).fetchone()
            if rows is None:
                raise LedgerError(
                    f"ledger has no entry {back} back from latest")
            return rows["id"]
        if len(ref) >= 6 and all(c in "0123456789abcdef"
                                 for c in ref.lower()):
            rows = self._conn.execute(
                "SELECT id FROM runs WHERE fingerprint LIKE ?",
                (ref.lower() + "%",),
            ).fetchall()
            if len(rows) == 1:
                return rows[0]["id"]
            if len(rows) > 1:
                raise LedgerError(
                    f"fingerprint prefix {ref!r} is ambiguous "
                    f"({len(rows)} matches)")
        raise LedgerError(
            f"cannot resolve run reference {ref!r} (use an id, 'latest',"
            " 'latest~N', or a fingerprint prefix)")

    def cells(self, run_ref: int) -> list[dict]:
        """Per-cell payload dicts for one run, in ingest order."""
        out = []
        for row in self._conn.execute(
            "SELECT * FROM cells WHERE run_ref = ? ORDER BY id",
            (run_ref,),
        ):
            out.append(self._row_to_cell(row))
        return out

    @staticmethod
    def _row_to_cell(row: sqlite3.Row) -> dict:
        cell = {
            "benchmark": row["benchmark"],
            "machine": row["machine"],
            "options": row["options"],
            "scheduler": row["scheduler"],
            "status": row["status"],
            "attempts": row["attempts"],
            "cached": (None if row["cached"] is None
                       else bool(row["cached"])),
            "seconds": row["seconds"],
            "instructions": row["instructions"],
            "minor_cycles": row["minor_cycles"],
            "base_cycles": row["base_cycles"],
            "parallelism": row["parallelism"],
            "cpi": row["cpi"],
            "stalls": None,
            "replay": None,
            "error": (json.loads(row["error"])
                      if row["error"] else None),
            "history": (json.loads(row["history"])
                        if row["history"] else []),
        }
        if row["issued_cycles"] is not None or any(
            row[f"stall_{c}"] is not None for c in STALL_CAUSES
        ):
            stalls = {c: row[f"stall_{c}"] for c in STALL_CAUSES}
            stalls["issued_cycles"] = row["issued_cycles"]
            if row["by_class"]:
                stalls["by_class"] = json.loads(row["by_class"])
            cell["stalls"] = stalls
        if any(row[f"replay_{k}"] is not None for k in _REPLAY_KEYS):
            cell["replay"] = {k: row[f"replay_{k}"]
                              for k in _REPLAY_KEYS}
        return cell

    def resources(self, run_ref: int) -> list[dict]:
        return [
            {"track": row["track"], "rss_mb": row["rss_mb"],
             "rss_peak_mb": row["rss_peak_mb"],
             "cpu_seconds": row["cpu_seconds"],
             "samples": row["samples"]}
            for row in self._conn.execute(
                "SELECT * FROM resources WHERE run_ref = ? ORDER BY id",
                (run_ref,),
            )
        ]

    def payload(self, run_ref: int) -> dict:
        """Rebuild the uniform payload for one ledger entry.

        Inverse of ingestion: every numeric field round-trips exactly
        (SQLite REAL is an IEEE double; Python floats survive intact).
        """
        row = self._conn.execute(
            "SELECT * FROM runs WHERE id = ?", (run_ref,)
        ).fetchone()
        if row is None:
            raise LedgerError(f"no ledger entry with id {run_ref}")
        return {
            "kind": row["kind"],
            "run_id": row["run_id"],
            "schema": row["schema_version"],
            "package_version": row["package_version"],
            "source": row["source"],
            "machines": json.loads(row["machines"]),
            "wall_seconds": row["wall_seconds"],
            "engine": (json.loads(row["engine"])
                       if row["engine"] else None),
            "counters": (json.loads(row["counters"])
                         if row["counters"] else {}),
            "gauges": (json.loads(row["gauges"])
                       if row["gauges"] else {}),
            "cells": self.cells(run_ref),
            "resources": self.resources(run_ref),
        }

    def flaky_cells(self) -> list[dict]:
        """Every cell across history that was not a clean first-try ok.

        The dashboard's flaky-cell table: one entry per (run, cell)
        whose status is retried/degraded/failed, with the run reference
        and attempt history attached.
        """
        out = []
        for row in self._conn.execute(
            "SELECT cells.*, runs.run_id AS run_label FROM cells"
            " JOIN runs ON runs.id = cells.run_ref"
            " WHERE cells.status != 'ok' ORDER BY cells.run_ref, cells.id"
        ):
            cell = self._row_to_cell(row)
            cell["run_ref"] = row["run_ref"]
            cell["run_label"] = row["run_label"]
            out.append(cell)
        return out

    def export(self) -> dict:
        """The whole ledger as one canonical dict (dashboard data).

        The dashboard embeds exactly this structure as JSON; tests
        compare the embedded blob against a fresh ``export()`` to prove
        the dashboard shows the ledger, nothing else.
        """
        runs = self.runs()
        for entry in runs:
            entry["cells"] = self.cells(entry["id"])
            entry["resources"] = self.resources(entry["id"])
        return {
            "ledger_version": LEDGER_VERSION,
            "path": self.path,
            "runs": runs,
            "flaky": self.flaky_cells(),
        }
