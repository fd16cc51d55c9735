#!/usr/bin/env python3
"""Validate a JSONL run report against the repro.obs event schema.

Usage: python scripts/check_report_schema.py results/run_report.jsonl [...]

All schema knowledge (event names, required fields, conservation laws)
lives in ``src/repro/obs/schema.py`` — one shared stdlib-only module.
This script loads it **by file path**, so CI can validate a report
without installing the package, and ``tests/test_obs_report.py`` pins
the re-exported schema against ``repro.obs.schema.EVENT_SCHEMA`` so
the emitters and the validator can never drift.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

_SCHEMA_PATH = (Path(__file__).resolve().parent.parent
                / "src" / "repro" / "obs" / "schema.py")


def _load_schema():
    spec = importlib.util.spec_from_file_location("_repro_obs_schema",
                                                  _SCHEMA_PATH)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_schema = _load_schema()

# Re-exports: everything callers and tests historically imported from
# this script resolves to the shared module's single copy.
SCHEMA_VERSION = _schema.SCHEMA_VERSION
EVENT_SCHEMA = _schema.EVENT_SCHEMA
STALL_CAUSES = _schema.STALL_CAUSES
CELL_STATUSES = _schema.CELL_STATUSES
check_replay = _schema.check_replay
check_stalls = _schema.check_stalls
check_history = _schema.check_history
check_span = _schema.check_span
check_resource = _schema.check_resource
check_histogram = _schema.check_histogram
check_metrics = _schema.check_metrics
check_event = _schema.check_event
check_file = _schema.check_file


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    failed = False
    for path in argv:
        errors = check_file(path)
        if errors:
            failed = True
            for message in errors:
                print(f"{path}: {message}", file=sys.stderr)
        else:
            print(f"{path}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
