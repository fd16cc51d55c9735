"""Observability: stall attribution, compile profiling, run reports.

The instrumentation layer threaded through the compile→schedule→simulate
pipeline:

* :mod:`repro.obs.stalls` — :class:`StallBreakdown`, the exact per-cause
  stall-cycle accounting produced by ``simulate(..., observe=True)``;
* :mod:`repro.obs.profile` — :class:`CompileProfile` /
  :class:`SchedStats`, pass-level wall-time and size deltas collected by
  the compile driver;
* :mod:`repro.obs.recorder` — counters and structured JSONL event
  emission (:class:`Recorder`, :class:`JsonlRecorder`,
  :data:`NULL_RECORDER`);
* :mod:`repro.obs.trace` — hierarchical span tracing with
  cross-process merge and Chrome trace-event (Perfetto) export
  (:class:`Tracer`, :data:`NULL_TRACER`, :func:`chrome_trace`);
* :mod:`repro.obs.metrics` — counters/gauges/fixed-bucket histograms
  with deterministic cross-process merge (:class:`MetricsRegistry`,
  :data:`NULL_METRICS`);
* :mod:`repro.obs.live` — the ``--live`` terminal progress line
  (:class:`ProgressLine`);
* :mod:`repro.obs.report` — machine-readable run reports over the
  benchmark suite and their ASCII rendering;
* :mod:`repro.obs.schema` — the one shared home of the run-report
  event schema (:data:`EVENT_SCHEMA`, :data:`SCHEMA_VERSION`) and its
  validators (also loaded standalone by
  ``scripts/check_report_schema.py``);
* :mod:`repro.obs.resource` — per-process RSS/CPU telemetry
  (:class:`ResourceSampler`);
* :mod:`repro.obs.history` — the content-addressed run-history ledger
  (:class:`HistoryLedger`);
* :mod:`repro.obs.diff` — cross-run regression diffing
  (:func:`diff_payloads`, :class:`DiffPolicy`);
* :mod:`repro.obs.dash` — the self-contained static HTML dashboard
  (:func:`write_dashboard`).

Everything here is opt-in: with no recorder/profile passed, the hot
paths run the exact same code as before this layer existed.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, globals(), {
    ".dash": ("render_dashboard", "write_dashboard"),
    ".diff": ("DiffEntry", "DiffPolicy", "DiffResult", "diff_payloads"),
    ".history": ("DEFAULT_LEDGER_PATH", "HistoryLedger", "IngestResult",
                 "LedgerError", "default_ledger_path", "fingerprint_payload",
                 "payload_from_events"),
    ".live": ("ProgressLine",),
    ".metrics": ("NULL_METRICS", "Histogram", "MetricsRegistry",
                 "NullMetrics", "active_metrics"),
    ".profile": ("NULL_PROFILE", "CompileProfile", "PassStat", "SchedStats",
                 "program_size"),
    ".recorder": ("NULL_RECORDER", "JsonlRecorder", "NullRecorder",
                  "Recorder", "active_recorder", "read_jsonl",
                  "read_jsonl_tolerant"),
    ".resource": ("ResourceSampler", "cpu_seconds", "max_rss_mb", "rss_mb"),
    ".schema": ("EVENT_SCHEMA", "SCHEMA_VERSION"),
    ".stalls": ("STALL_CAUSES", "StallBreakdown"),
    ".trace": ("NULL_TRACER", "NullTracer", "Span", "Tracer",
               "active_tracer", "chrome_trace", "emit_span_events",
               "profile_tree", "spans_from_events", "write_chrome_trace"),
})

__all__ = [
    "DEFAULT_LEDGER_PATH",
    "EVENT_SCHEMA",
    "NULL_METRICS",
    "NULL_PROFILE",
    "NULL_RECORDER",
    "NULL_TRACER",
    "SCHEMA_VERSION",
    "STALL_CAUSES",
    "CompileProfile",
    "DiffEntry",
    "DiffPolicy",
    "DiffResult",
    "Histogram",
    "HistoryLedger",
    "IngestResult",
    "JsonlRecorder",
    "LedgerError",
    "MetricsRegistry",
    "NullMetrics",
    "NullRecorder",
    "NullTracer",
    "PassStat",
    "ProgressLine",
    "Recorder",
    "ResourceSampler",
    "SchedStats",
    "Span",
    "StallBreakdown",
    "Tracer",
    "active_metrics",
    "active_recorder",
    "active_tracer",
    "chrome_trace",
    "cpu_seconds",
    "default_ledger_path",
    "diff_payloads",
    "emit_span_events",
    "fingerprint_payload",
    "max_rss_mb",
    "payload_from_events",
    "profile_tree",
    "program_size",
    "read_jsonl",
    "read_jsonl_tolerant",
    "render_dashboard",
    "rss_mb",
    "spans_from_events",
    "write_chrome_trace",
]
