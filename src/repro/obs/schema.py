"""The run-report event schema and its validators — one shared module.

This is the single home of the event names, required fields and
conservation laws.  ``scripts/check_report_schema.py`` loads it by file
path, via :func:`importlib.util.spec_from_file_location`, so CI can
validate a report without installing the package, and every emitter
stamps ``run_start`` with :data:`SCHEMA_VERSION` from here, so the
emitters and the validator can never drift.

Deliberately **stdlib-only with no intra-package imports**: loading this
file executes nothing but constant definitions and pure functions.

Checks, per report file (:func:`check_file`):

* every line is a JSON object with a string ``event`` field;
* the first event is ``run_start`` carrying the expected schema version,
  and a ``run_end`` event is present;
* every event type is known and carries its required fields;
* common numeric fields have sane types and signs;
* every ``timing``/``sweep_row`` event with a ``stalls`` payload obeys
  the conservation law: the per-cause stall cycles plus ``issued_cycles``
  reconstruct ``minor_cycles`` exactly, and the per-class roll-up sums
  back to the per-cause totals;
* every event with a ``replay`` payload obeys
  ``memo_instructions + direct_instructions == instructions``,
  ``vectorized_blocks + scalar_fallback_blocks <= blocks`` and
  ``memo_persisted_hits <= memo_hits``;
* every ``status`` is one of ``ok/retried/degraded/failed``; ``engine``
  events obey status conservation
  (``ok + retried + degraded + failed == cells``);
* every ``cell`` event's ``history`` payload (per-attempt records for
  retried/degraded/failed cells) is structurally sound;
* ``span`` events carry non-negative microsecond times and well-formed
  span/parent IDs;
* ``metrics`` events carry numeric counters/gauges and histograms
  obeying bucket conservation, plus the cache conservation law
  ``cache.gets == cache.hits + cache.misses + cache.corrupt`` for every
  store family with a ``cache.*gets`` counter (``cache.``,
  ``cache.memo_``, ...);
* ``resource`` events (per-track RSS/CPU telemetry from the sampling
  thread, see :mod:`repro.obs.resource`) carry a track name and
  non-negative gauges.
"""

from __future__ import annotations

import json

#: Version stamp carried by every ``run_start`` event.
SCHEMA_VERSION = 1

#: event name -> fields that must be present (value may be any JSON type;
#: the validator additionally type-checks the common numeric fields).
#: ``timing`` and ``cell`` events may carry an optional ``replay``
#: payload (replay-memo counters) and ``cell`` events an optional
#: ``history`` payload (per-attempt supervision records); ``engine``
#: events carry the corresponding ``memo_*`` roll-ups.  The validator
#: checks all three.  ``cell`` events may additionally carry an
#: optional ``scheduler`` string (the scheduler backend the cell
#: compiled through; absent in pre-backend reports, which implies the
#: historical ``"list"`` scheduler).
EVENT_SCHEMA: dict[str, tuple[str, ...]] = {
    "run_start": ("schema", "run_id"),
    "compile_pass": ("benchmark", "pass", "seconds"),
    "compile": ("benchmark", "seconds", "n_passes"),
    "timing": ("benchmark", "machine", "instructions", "minor_cycles",
               "base_cycles", "parallelism", "cpi"),
    "sweep_row": ("benchmark", "machine", "options", "instructions",
                  "base_cycles", "parallelism"),
    "cell": ("benchmark", "machine", "options", "seconds", "cached",
             "status"),
    "engine": ("workers", "cells", "groups", "cache_hits",
               "cache_misses", "seconds", "ok_cells", "retried_cells",
               "degraded_cells", "failed_cells"),
    "span": ("name", "cat", "track", "start_us", "dur_us", "span_id",
             "parent_id"),
    "metrics": ("counters", "gauges", "histograms"),
    "resource": ("track", "rss_peak_mb", "cpu_seconds", "samples"),
    "exhibit": ("ident", "title", "seconds"),
    "flow": ("run_id", "nodes", "executed", "restored", "failed"),
    "run_end": ("seconds", "counters"),
}

STALL_CAUSES = ("control", "raw_dep", "memory_order", "unit_conflict",
                "issue_width")

#: field -> (allowed types, may the value be negative?)
_NUMERIC_FIELDS: dict[str, tuple[tuple[type, ...], bool]] = {
    "seconds": ((int, float), False),
    "instructions": ((int,), False),
    "minor_cycles": ((int,), False),
    "base_cycles": ((int, float), False),
    "parallelism": ((int, float), False),
    "cpi": ((int, float), False),
    "n_passes": ((int,), False),
    # engine-summary counts
    "workers": ((int,), False),
    "cells": ((int,), False),
    "groups": ((int,), False),
    "cache_hits": ((int,), False),
    "cache_misses": ((int,), False),
    # engine replay-memo roll-ups
    "memo_hits": ((int,), False),
    "memo_misses": ((int,), False),
    "memo_fallbacks": ((int,), False),
    "memo_instructions": ((int,), False),
    "direct_instructions": ((int,), False),
    # vectorized-replay roll-ups (engine events and replay payloads)
    "vectorized_blocks": ((int,), False),
    "scalar_fallback_blocks": ((int,), False),
    "memo_persisted_hits": ((int,), False),
    # supervision status counts and retry accounting
    "ok_cells": ((int,), False),
    "retried_cells": ((int,), False),
    "degraded_cells": ((int,), False),
    "failed_cells": ((int,), False),
    "group_retries": ((int,), False),
    "pool_restarts": ((int,), False),
    "attempts": ((int,), False),
    # span events (microsecond times relative to the run's first span)
    "start_us": ((int, float), False),
    "dur_us": ((int, float), False),
    "span_id": ((int,), False),
    # resource telemetry gauges
    "rss_mb": ((int, float), False),
    "rss_peak_mb": ((int, float), False),
    "cpu_seconds": ((int, float), False),
    "samples": ((int,), False),
    # flow events (checkpointed workflow-DAG summaries)
    "nodes": ((int,), False),
    "executed": ((int,), False),
    "restored": ((int,), False),
    "failed": ((int,), False),
    # compile_pass size fields use -1 for "not applicable"
    "instrs_before": ((int,), True),
    "instrs_after": ((int,), True),
    "blocks_before": ((int,), True),
    "blocks_after": ((int,), True),
}

#: replay payload counters (all required, all non-negative ints)
_REPLAY_FIELDS = ("blocks", "memo_hits", "memo_misses", "fallbacks",
                  "memo_instructions", "direct_instructions")

#: vectorized-replay payload counters: optional (absent in pre-kernel
#: reports) but non-negative ints when present.
_REPLAY_VEC_FIELDS = ("vectorized_blocks", "scalar_fallback_blocks",
                      "memo_persisted_hits")

#: legal values of a cell/sweep_row supervision status
CELL_STATUSES = ("ok", "retried", "degraded", "failed")

#: fields every history attempt record must carry.
_HISTORY_FIELDS = ("attempt", "where", "kind", "message", "seconds")


def check_replay(replay: object, record: dict) -> list[str]:
    """Validate one replay-memo payload; returns error strings."""
    if not isinstance(replay, dict):
        return [f"replay must be an object, got {type(replay).__name__}"]
    errors = []
    for name in _REPLAY_FIELDS:
        value = replay.get(name)
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < 0:
            errors.append(f"replay.{name} must be a non-negative int")
    for name in _REPLAY_VEC_FIELDS:
        if name not in replay:
            continue
        value = replay[name]
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < 0:
            errors.append(f"replay.{name} must be a non-negative int")
    if errors:
        return errors
    instructions = record.get("instructions")
    if isinstance(instructions, int):
        total = replay["memo_instructions"] + replay["direct_instructions"]
        if total != instructions:
            errors.append(
                f"replay conservation violated: memoized+direct == "
                f"{total}, instructions == {instructions}"
            )
    # Vectorized-kernel conservation: every block is replayed by at
    # most one of the vectorized kernel / the scalar fallback pass, and
    # a persisted memo hit is in particular a memo hit.
    vec = replay.get("vectorized_blocks", 0)
    fallback = replay.get("scalar_fallback_blocks", 0)
    if vec + fallback > replay["blocks"]:
        errors.append(
            f"replay conservation violated: vectorized+fallback == "
            f"{vec + fallback} exceeds blocks == {replay['blocks']}"
        )
    persisted = replay.get("memo_persisted_hits", 0)
    if persisted > replay["memo_hits"]:
        errors.append(
            f"replay conservation violated: memo_persisted_hits == "
            f"{persisted} exceeds memo_hits == {replay['memo_hits']}"
        )
    return errors


def check_stalls(stalls: object, record: dict) -> list[str]:
    """Validate one stall-breakdown payload; returns error strings."""
    errors = []
    if not isinstance(stalls, dict):
        return [f"stalls must be an object, got {type(stalls).__name__}"]
    for cause in STALL_CAUSES + ("issued_cycles",):
        value = stalls.get(cause)
        if not isinstance(value, int) or value < 0:
            errors.append(f"stalls.{cause} must be a non-negative int")
    if errors:
        return errors
    total = sum(stalls[c] for c in STALL_CAUSES) + stalls["issued_cycles"]
    minor = record.get("minor_cycles")
    if isinstance(minor, int) and total != minor:
        errors.append(
            f"conservation violated: stalls+issued == {total}, "
            f"minor_cycles == {minor}"
        )
    by_class = stalls.get("by_class", {})
    if not isinstance(by_class, dict):
        errors.append("stalls.by_class must be an object")
        return errors
    for cause in STALL_CAUSES:
        rolled = 0
        for klass, row in by_class.items():
            if not isinstance(row, dict):
                errors.append(f"by_class[{klass!r}] must be an object")
                return errors
            rolled += row.get(cause, 0)
        if rolled != stalls[cause]:
            errors.append(
                f"by_class roll-up of {cause} is {rolled}, "
                f"expected {stalls[cause]}"
            )
    return errors


def check_history(history: object) -> list[str]:
    """Validate one cell ``history`` payload (per-attempt records)."""
    if not isinstance(history, (list, tuple)):
        return ["history must be a list of attempt records"]
    errors = []
    for i, entry in enumerate(history):
        if not isinstance(entry, dict):
            errors.append(f"history[{i}] must be an object")
            continue
        for name in _HISTORY_FIELDS:
            if name not in entry:
                errors.append(f"history[{i}]: missing field {name!r}")
        attempt = entry.get("attempt")
        if isinstance(attempt, bool) or not isinstance(attempt, int) \
                or attempt < 1:
            errors.append(f"history[{i}]: attempt must be a positive int")
        seconds = entry.get("seconds")
        if isinstance(seconds, bool) \
                or not isinstance(seconds, (int, float)) or seconds < 0:
            errors.append(
                f"history[{i}]: seconds must be a non-negative number")
        for name in ("where", "kind", "message"):
            if name in entry and not isinstance(entry[name], str):
                errors.append(f"history[{i}]: {name} must be a string")
        if entry.get("where") not in (None, "worker", "serial"):
            errors.append(
                f"history[{i}]: where must be 'worker' or 'serial'")
    return errors


def check_span(record: dict) -> list[str]:
    """Validate one span event's ID fields; returns error strings."""
    errors = []
    parent = record.get("parent_id")
    if parent is not None and (isinstance(parent, bool)
                               or not isinstance(parent, int)
                               or parent < 0):
        errors.append("span: parent_id must be null or a non-negative int")
    for name in ("name", "cat", "track"):
        if name in record and not isinstance(record[name], str):
            errors.append(f"span: field {name!r} must be a string")
    return errors


def check_resource(record: dict) -> list[str]:
    """Validate one resource-telemetry event; returns error strings.

    Numeric signs/types are covered by the shared numeric-field table;
    this adds the track name and the samples/peak coherence rule
    (a peak exists only if at least one sample was taken).
    """
    errors = []
    track = record.get("track")
    if not isinstance(track, str) or not track:
        errors.append("resource: track must be a non-empty string")
    samples = record.get("samples")
    peak = record.get("rss_peak_mb")
    if isinstance(samples, int) and not isinstance(samples, bool) \
            and samples == 0 and isinstance(peak, (int, float)) and peak > 0:
        errors.append("resource: rss_peak_mb > 0 with samples == 0")
    return errors


def check_histogram(name: str, hist: object) -> list[str]:
    """Validate one histogram payload; returns error strings."""
    if not isinstance(hist, dict):
        return [f"metrics: histogram {name!r} must be an object"]
    errors = []
    bounds = hist.get("bounds")
    counts = hist.get("counts")
    count = hist.get("count")
    total = hist.get("sum")
    if (not isinstance(bounds, list) or not bounds
            or any(isinstance(b, bool) or not isinstance(b, (int, float))
                   for b in bounds)
            or bounds != sorted(bounds)):
        errors.append(
            f"metrics: histogram {name!r} bounds must be a sorted "
            "non-empty numeric list")
    if (not isinstance(counts, list)
            or any(isinstance(c, bool) or not isinstance(c, int) or c < 0
                   for c in counts)):
        errors.append(
            f"metrics: histogram {name!r} counts must be "
            "non-negative ints")
    elif isinstance(bounds, list) and len(counts) != len(bounds) + 1:
        errors.append(
            f"metrics: histogram {name!r} needs len(bounds)+1 buckets "
            f"(overflow included), got {len(counts)}")
    if isinstance(count, bool) or not isinstance(count, int) or count < 0:
        errors.append(
            f"metrics: histogram {name!r} count must be a "
            "non-negative int")
    elif isinstance(counts, list) and all(
            isinstance(c, int) and not isinstance(c, bool) for c in counts
    ) and sum(counts) != count:
        errors.append(
            f"metrics: histogram {name!r} bucket conservation violated: "
            f"sum(counts) == {sum(counts)}, count == {count}")
    if isinstance(total, bool) or not isinstance(total, (int, float)):
        errors.append(f"metrics: histogram {name!r} sum must be numeric")
    return errors


def check_metrics(record: dict) -> list[str]:
    """Validate one metrics snapshot event; returns error strings."""
    errors = []
    for section in ("counters", "gauges"):
        values = record.get(section)
        if not isinstance(values, dict):
            errors.append(f"metrics: {section} must be an object")
            continue
        for name, value in values.items():
            if isinstance(value, bool) \
                    or not isinstance(value, (int, float)):
                errors.append(
                    f"metrics: {section}[{name!r}] must be numeric")
    histograms = record.get("histograms")
    if not isinstance(histograms, dict):
        errors.append("metrics: histograms must be an object")
    else:
        for name, hist in histograms.items():
            errors.extend(check_histogram(name, hist))
    counters = record.get("counters")
    if isinstance(counters, dict):
        # Cache conservation: every lookup of every store namespace
        # (cache.*, cache.memo_*, ...) ends as exactly one of
        # hit / miss / corrupt-drop.
        families = [name[:-len("gets")] for name in counters
                    if name.startswith("cache.") and name.endswith("gets")]
        for family in families:
            parts = (counters.get(f"{family}hits", 0)
                     + counters.get(f"{family}misses", 0)
                     + counters.get(f"{family}corrupt", 0))
            if parts != counters[f"{family}gets"]:
                errors.append(
                    f"metrics: {family}* conservation violated: "
                    f"hits+misses+corrupt == {parts}, "
                    f"gets == {counters[f'{family}gets']}")
    return errors


def check_event(record: dict) -> list[str]:
    """Validate one event object; returns error strings."""
    event = record.get("event")
    if not isinstance(event, str):
        return ["missing or non-string 'event' field"]
    required = EVENT_SCHEMA.get(event)
    if required is None:
        return [f"unknown event type {event!r}"]
    errors = [f"{event}: missing field {name!r}"
              for name in required if name not in record]
    for name, (types, allow_negative) in _NUMERIC_FIELDS.items():
        if name not in record:
            continue
        value = record[name]
        if isinstance(value, bool) or not isinstance(value, types):
            errors.append(f"{event}: field {name!r} has bad type "
                          f"{type(value).__name__}")
        elif not allow_negative and value < 0:
            errors.append(f"{event}: field {name!r} is negative ({value})")
    if event == "run_start" and record.get("schema") != SCHEMA_VERSION:
        errors.append(
            f"run_start: schema {record.get('schema')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    for name in ("scheduler", "replay_backend"):
        if name in record and not isinstance(record[name], str):
            errors.append(
                f"{event}: field {name!r} has bad type "
                f"{type(record[name]).__name__}"
            )
    if "status" in record and record["status"] not in CELL_STATUSES:
        errors.append(
            f"{event}: status {record['status']!r} not in "
            f"{'/'.join(CELL_STATUSES)}"
        )
    if event == "engine" and all(
        isinstance(record.get(name), int)
        for name in ("cells", "ok_cells", "retried_cells",
                     "degraded_cells", "failed_cells")
    ):
        # Status conservation: every cell ends in exactly one state.
        total = (record["ok_cells"] + record["retried_cells"]
                 + record["degraded_cells"] + record["failed_cells"])
        if total != record["cells"]:
            errors.append(
                f"engine: status conservation violated: "
                f"ok+retried+degraded+failed == {total}, "
                f"cells == {record['cells']}"
            )
    if event == "flow" and all(
        isinstance(record.get(name), int)
        for name in ("nodes", "executed", "restored", "failed")
    ):
        # Node conservation: every node ends in exactly one state
        # (skipped nodes are counted under ``failed``).
        total = (record["executed"] + record["restored"]
                 + record["failed"])
        if total != record["nodes"]:
            errors.append(
                f"flow: node conservation violated: "
                f"executed+restored+failed == {total}, "
                f"nodes == {record['nodes']}"
            )
    if event == "span":
        errors.extend(check_span(record))
    if event == "metrics":
        errors.extend(check_metrics(record))
    if event == "resource":
        errors.extend(check_resource(record))
    if "stalls" in record:
        errors.extend(check_stalls(record["stalls"], record))
    if "replay" in record and record["replay"] is not None:
        errors.extend(check_replay(record["replay"], record))
    if "history" in record and record["history"] is not None:
        errors.extend(check_history(record["history"]))
    return errors


def check_file(path: str) -> list[str]:
    """Validate one JSONL report; returns 'line: message' error strings."""
    errors: list[str] = []
    events: list[tuple[int, dict]] = []
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    errors.append(f"line {lineno}: invalid JSON ({exc})")
                    continue
                if not isinstance(record, dict):
                    errors.append(f"line {lineno}: not a JSON object")
                    continue
                events.append((lineno, record))
                errors.extend(
                    f"line {lineno}: {msg}" for msg in check_event(record)
                )
    except OSError as exc:
        return [str(exc)]
    if not events:
        errors.append("report contains no events")
    else:
        if events[0][1].get("event") != "run_start":
            errors.append("first event must be 'run_start'")
        names = [record.get("event") for _, record in events]
        if "run_end" not in names:
            errors.append("no 'run_end' event found")
    return errors

