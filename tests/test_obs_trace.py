"""Tests for the span tracer, metrics registry, Chrome trace export,
live progress line, and the engine's end-to-end observability.

The determinism cases pin the tentpole guarantee: two identical runs —
serial or parallel, clean or faulted — produce identical merged metric
values and identical span trees (names and structure; timestamps and
worker PIDs are explicitly excluded).  The overhead guard pins the
other half: tracing the warm full grid costs at most 2% of wall clock.
"""

from __future__ import annotations

import gc
import io
import json
import math
import time

import pytest

from repro.engine.executor import execute
from repro.engine.faults import FaultPlan
from repro.engine.plan import plan_sweep
from repro.engine.resilience import RetryPolicy
from repro.obs.live import ProgressLine
from repro.obs.metrics import (
    COUNT_BUCKETS,
    NULL_METRICS,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    active_metrics,
)
from repro.obs.recorder import JsonlRecorder, read_jsonl
from repro.obs.trace import (
    MAIN_TRACK,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    active_tracer,
    chrome_trace,
    emit_span_events,
    profile_tree,
    spans_from_events,
    write_chrome_trace,
)

FAST = RetryPolicy(base_delay=0.001, max_delay=0.01, group_timeout=60.0)


class TestTracer:
    def test_nesting_records_parent_child_ids(self):
        tr = Tracer()
        with tr.span("outer", cat="a"):
            with tr.span("inner", cat="b", benchmark="whet"):
                pass
        outer, inner = tr.spans
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.args == {"benchmark": "whet"}
        assert outer.dur_ns >= inner.dur_ns >= 0

    def test_current_id_tracks_open_span(self):
        tr = Tracer()
        assert tr.current_id() is None
        with tr.span("outer"):
            outer_id = tr.current_id()
            with tr.span("inner"):
                assert tr.current_id() != outer_id
            assert tr.current_id() == outer_id
        assert tr.current_id() is None

    def test_exception_closes_span(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("doomed"):
                raise RuntimeError("boom")
        assert tr.spans[0].dur_ns >= 0
        assert tr.current_id() is None

    def test_record_retroactive_span(self):
        tr = Tracer()
        with tr.span("parent"):
            now = time.monotonic_ns()
            span = tr.record("backoff", "resilience", now - 5_000_000,
                             5_000_000, attempt=2)
        assert span.parent_id == tr.spans[0].span_id
        assert span.dur_ns == 5_000_000
        assert tr.record("x", "y", 0, -10).dur_ns == 0  # clamped

    def test_merge_renames_ids_and_reparents_roots(self):
        parent = Tracer()
        with parent.span("engine.run"):
            root_id = parent.current_id()
        worker = Tracer(track="worker-123")
        with worker.span("group.run"):
            with worker.span("simulate"):
                pass
        parent.merge(worker.export(), parent_id=root_id)
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids))  # no collisions
        group = next(s for s in parent.spans if s.name == "group.run")
        sim = next(s for s in parent.spans if s.name == "simulate")
        assert group.parent_id == root_id
        assert sim.parent_id == group.span_id
        assert group.track == "worker-123"  # worker identity preserved
        # A second merge of the same batch must still not collide.
        parent.merge(worker.export(), parent_id=root_id)
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids))

    def test_merge_empty_is_noop(self):
        tr = Tracer()
        tr.merge([], parent_id=None)
        assert tr.spans == []

    def test_span_dict_round_trip(self):
        tr = Tracer()
        with tr.span("s", cat="c", k=1):
            pass
        clone = Span.from_dict(tr.spans[0].as_dict())
        assert clone == tr.spans[0]

    def test_null_tracer_records_nothing(self):
        tr = NullTracer()
        with tr.span("ignored"):
            pass
        tr.record("ignored", "c", 0, 1)
        tr.merge([{"name": "x", "span_id": 0}])
        assert tr.spans == []
        assert not tr.enabled
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")  # shared

    def test_active_tracer(self):
        assert active_tracer(None) is NULL_TRACER
        tr = Tracer()
        assert active_tracer(tr) is tr


class TestMetrics:
    def test_counters_gauges_histograms(self):
        mx = MetricsRegistry()
        mx.incr("hits")
        mx.incr("hits", 2)
        mx.gauge("workers", 4)
        mx.gauge("workers", 2)
        mx.observe("lat", 0.003)
        snap = mx.as_dict()
        assert snap["counters"] == {"hits": 3}
        assert snap["gauges"] == {"workers": 2}
        assert snap["histograms"]["lat"]["count"] == 1

    def test_histogram_conservation_and_overflow(self):
        h = Histogram(bounds=(1, 10, 100))
        for v in (0.5, 5, 50, 500, 5000):
            h.observe(v)
        assert sum(h.counts) == h.count == 5
        assert h.counts == [1, 1, 1, 2]  # last slot is overflow
        assert h.sum == 5555.5

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=())
        with pytest.raises(ValueError):
            Histogram(bounds=(5, 1))

    def test_histogram_merge_requires_identical_bounds(self):
        a = Histogram(bounds=(1, 10))
        b = Histogram(bounds=(1, 100))
        with pytest.raises(ValueError):
            a.merge(b.as_dict())

    def test_merge_is_order_independent(self):
        def snapshot(k):
            mx = MetricsRegistry()
            mx.incr("cells", k)
            mx.observe("size", 10 ** k, bounds=COUNT_BUCKETS)
            return mx.as_dict()

        parts = [snapshot(k) for k in (1, 2, 3)]
        ab = MetricsRegistry()
        ba = MetricsRegistry()
        for p in parts:
            ab.merge(p)
        for p in reversed(parts):
            ba.merge(p)
        a, b = ab.as_dict(), ba.as_dict()
        assert a["counters"] == b["counters"]
        assert a["histograms"] == b["histograms"]

    def test_merge_none_is_noop(self):
        mx = MetricsRegistry()
        mx.merge(None)
        mx.merge({})
        assert mx.as_dict() == {"counters": {}, "gauges": {},
                                "histograms": {}}

    def test_null_metrics_records_nothing(self):
        mx = NullMetrics()
        mx.incr("x")
        mx.gauge("g", 1)
        mx.observe("h", 1.0)
        mx.merge({"counters": {"x": 5}})
        assert mx.as_dict() == {"counters": {}, "gauges": {},
                                "histograms": {}}
        assert not mx.enabled

    def test_active_metrics(self):
        assert active_metrics(None) is NULL_METRICS
        mx = MetricsRegistry()
        assert active_metrics(mx) is mx


def _tree(n=3) -> Tracer:
    tr = Tracer()
    with tr.span("run", cat="engine"):
        for i in range(n):
            with tr.span("step", cat="engine", i=i):
                pass
    return tr


class TestChromeTrace:
    def test_structure(self):
        tr = _tree()
        worker = Tracer(track="worker-7")
        with worker.span("group.run"):
            pass
        tr.merge(worker.export(), parent_id=tr.spans[0].span_id)
        doc = chrome_trace(tr.spans, process_name="repro-test")
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(tr.spans)
        names = {e["name"]: e for e in meta}
        assert names["process_name"]["args"]["name"] == "repro-test"
        threads = [e["args"]["name"] for e in meta
                   if e["name"] == "thread_name"]
        assert threads == [MAIN_TRACK, "worker-7"]  # main row first
        # Times are relative microseconds from the earliest span.
        assert min(e["ts"] for e in complete) == 0
        assert all(e["dur"] >= 0 and e["pid"] == 0 for e in complete)
        worker_tid = next(e["args"]["name"] == "worker-7" and e["tid"]
                          for e in meta if e["name"] == "thread_name"
                          and e["args"]["name"] == "worker-7")
        assert any(e["tid"] == worker_tid for e in complete)

    def test_write_chrome_trace_creates_dirs(self, tmp_path):
        path = tmp_path / "nested" / "trace.json"
        write_chrome_trace(str(path), _tree().spans)
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in doc["traceEvents"])


class TestProfileTree:
    def test_aggregates_siblings(self):
        text = profile_tree(_tree(5).spans)
        assert "run" in text
        # Five sibling "step" spans fold into one line with count 5.
        step_lines = [ln for ln in text.splitlines() if "step" in ln]
        assert len(step_lines) == 1
        assert step_lines[0].rstrip().endswith("5")

    def test_empty(self):
        assert "(no spans recorded)" in profile_tree([])


class TestSpanEvents:
    def test_emit_and_rebuild(self, tmp_path):
        tr = _tree(2)
        path = tmp_path / "run.jsonl"
        with JsonlRecorder(path) as rec:
            emit_span_events(rec, tr)
            emit_span_events(rec, tr)  # watermark: no duplicates
        events = read_jsonl(path)
        spans = spans_from_events(events)
        assert len(spans) == len(tr.spans)
        assert [s.name for s in spans] == [s.name for s in tr.spans]
        rebuilt_root = next(s for s in spans if s.parent_id is None)
        assert rebuilt_root.name == "run"

    def test_null_paths_emit_nothing(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlRecorder(path) as rec:
            emit_span_events(rec, NULL_TRACER)
            emit_span_events(rec, Tracer())  # enabled but empty
        assert read_jsonl(path) == []


class TestProgressLine:
    def test_paints_counts_and_rate(self):
        out = io.StringIO()
        line = ProgressLine(total_cells=4, stream=out, min_interval=0.0)
        line.update(2, "ok", 1000)
        line.update(1, "retried", 500)
        line.update(1, "failed", 0)
        line.finish()
        text = out.getvalue()
        assert "cells 4/4" in text
        assert "2 ok 1 retried 0 degraded 1 failed" in text
        assert text.endswith("\n")

    def test_format_rate(self):
        assert ProgressLine._format_rate(2_500_000) == "2.5M"
        assert ProgressLine._format_rate(2_500) == "2.5k"
        assert ProgressLine._format_rate(42) == "42"


BENCHES = ["whet", "linpack"]
MACHINES = ["base", "superscalar:4"]


def _run(workers=1, faults=None, tracer=None, metrics=None, progress=None):
    plan = plan_sweep(BENCHES, MACHINES, observe=True)
    return execute(plan, workers=workers, policy=FAST, faults=faults,
                   tracer=tracer, metrics=metrics, progress=progress)


def span_tree(tracer: Tracer) -> list[tuple]:
    """Canonical (structure-only) form of a span forest: every span as
    ``(path-of-names, cat)``, sorted — timestamps, IDs, and worker PID
    tracks excluded so identical runs compare equal."""
    by_id = {s.span_id: s for s in tracer.spans}

    def path(span: Span) -> tuple:
        names = [span.name]
        while span.parent_id is not None:
            span = by_id[span.parent_id]
            names.append(span.name)
        return tuple(reversed(names))

    return sorted((path(s), s.cat) for s in tracer.spans)


def stable_metrics(metrics: MetricsRegistry) -> dict:
    """Metrics snapshot minus wall-time histograms (the one
    nondeterministic shape)."""
    snap = metrics.as_dict()
    snap["histograms"] = {
        name: hist for name, hist in snap["histograms"].items()
        if not name.endswith(".seconds")
    }
    return snap


class TestEngineObservability:
    def test_serial_run_records_spans_and_metrics(self):
        tr, mx = Tracer(), MetricsRegistry()
        result = _run(tracer=tr, metrics=mx)
        names = {s.name for s in tr.spans}
        assert {"engine.run", "group.run", "compile.run",
                "simulate"} <= names
        root = next(s for s in tr.spans if s.name == "engine.run")
        assert root.parent_id is None and root.dur_ns > 0
        groups = [s for s in tr.spans if s.name == "group.run"]
        assert all(g.parent_id == root.span_id for g in groups)
        c = mx.counters
        assert c["engine.cells"] == len(result.cells) == 4
        assert c["engine.cells.ok"] == 4
        hist = mx.histograms["cell.instructions"]
        assert sum(hist.counts) == hist.count == 4

    def test_parallel_run_merges_worker_tracks(self):
        tr, mx = Tracer(), MetricsRegistry()
        result = _run(workers=2, tracer=tr, metrics=mx)
        tracks = {s.track for s in tr.spans}
        assert MAIN_TRACK in tracks
        assert any(t.startswith("worker-") for t in tracks)
        # Worker roots are re-parented under the engine root.
        by_id = {s.span_id: s for s in tr.spans}
        for span in tr.spans:
            if span.parent_id is not None:
                assert span.parent_id in by_id  # tree stays connected
        assert mx.counters["engine.cells"] == len(result.cells)
        assert mx.gauges["engine.workers"] == 2

    def test_faulted_run_records_resilience_spans(self):
        tr, mx = Tracer(), MetricsRegistry()
        result = _run(workers=2, tracer=tr, metrics=mx,
                      faults=FaultPlan.parse("crash@whet#1"))
        names = {s.name for s in tr.spans}
        assert {"attempt.failed", "retry.backoff", "pool.respawn"} <= names
        assert mx.counters["engine.group_retries"] >= 1
        assert mx.counters["engine.pool_restarts"] >= 1
        # At least the whet cells retried (the innocent in-flight group
        # may also be resubmitted when the pool dies under it).
        assert mx.counters["engine.cells.retried"] >= 2
        assert all(c.status in ("ok", "retried") for c in result.cells)

    def test_progress_callback_sees_every_cell(self):
        seen = []
        _run(workers=2, progress=lambda key, outcome, n:
             seen.append((key[0], outcome.status, n)))
        assert sum(n for _, _, n in seen) == 4
        assert all(status == "ok" for _, status, _ in seen)

    def test_recorder_auto_enables_tracing(self, tmp_path):
        path = tmp_path / "run.jsonl"
        plan = plan_sweep(BENCHES, MACHINES)
        with JsonlRecorder(path) as rec:
            execute(plan, workers=1, recorder=rec)
        kinds = {e.get("event") for e in read_jsonl(path)}
        assert "span" in kinds
        assert "metrics" in kinds

    def test_cache_counter_conservation(self, tmp_path):
        from repro.engine.cache import open_cache

        plan = plan_sweep(BENCHES, MACHINES)
        for _ in range(2):  # second pass is all cache hits
            mx = MetricsRegistry()
            execute(plan, cache=open_cache(str(tmp_path)), metrics=mx)
            c = mx.counters
            assert c["cache.gets"] == (c.get("cache.hits", 0)
                                       + c.get("cache.misses", 0)
                                       + c.get("cache.corrupt", 0))
        assert c["cache.hits"] == 2  # one get per compile group


class TestMergeDeterminism:
    """Two identical runs must merge to identical metrics and span
    trees — the fixed-bucket + plan-order-merge guarantee."""

    def _pair(self, **kwargs):
        runs = []
        for _ in range(2):
            tr, mx = Tracer(), MetricsRegistry()
            _run(tracer=tr, metrics=mx, **kwargs)
            runs.append((tr, mx))
        return runs

    def test_serial_runs_identical(self):
        (tr_a, mx_a), (tr_b, mx_b) = self._pair()
        assert stable_metrics(mx_a) == stable_metrics(mx_b)
        assert span_tree(tr_a) == span_tree(tr_b)

    def test_parallel_runs_identical(self):
        (tr_a, mx_a), (tr_b, mx_b) = self._pair(workers=2)
        assert stable_metrics(mx_a) == stable_metrics(mx_b)
        assert span_tree(tr_a) == span_tree(tr_b)

    def test_faulted_runs_identical(self):
        # corrupt-result retries deterministically without killing the
        # pool (a crash fault's pool teardown can catch the innocent
        # in-flight group at a timing-dependent point).
        faults = "corrupt-result@linpack#1"
        (tr_a, mx_a), (tr_b, mx_b) = self._pair(
            workers=2, faults=FaultPlan.parse(faults))
        assert stable_metrics(mx_a) == stable_metrics(mx_b)
        assert span_tree(tr_a) == span_tree(tr_b)
        # The retry rungs are part of the deterministic tree.
        names = {path[-1] for path, _ in span_tree(tr_a)}
        assert {"attempt.failed", "retry.backoff"} <= names

    def test_serial_and_parallel_metrics_agree(self):
        tr_s, mx_s = Tracer(), MetricsRegistry()
        _run(tracer=tr_s, metrics=mx_s)
        tr_p, mx_p = Tracer(), MetricsRegistry()
        _run(workers=2, tracer=tr_p, metrics=mx_p)
        stable_s, stable_p = stable_metrics(mx_s), stable_metrics(mx_p)
        # Same work, same deterministic counts (modulo the workers gauge).
        assert stable_s["histograms"] == stable_p["histograms"]
        assert stable_s["counters"]["engine.cells"] == \
            stable_p["counters"]["engine.cells"]


class TestOverheadGuard:
    """Tracing the warm full grid must cost at most 2% of wall clock."""

    def test_warm_grid_overhead_within_two_percent(self, tmp_path):
        from repro.benchmarks import suite
        from repro.engine.cache import open_cache

        plan = plan_sweep(suite.all_benchmarks(),
                          ["base", "superscalar:2", "superscalar:4",
                           "superscalar:8", "superpipelined:4",
                           "multititan", "cray1"])
        cache = open_cache(str(tmp_path / "cache"))
        execute(plan, cache=cache)  # populate: later runs are warm

        # The warm grid alone takes well under a second, so one run per
        # sample puts the 2% bound near host noise: repeat it until a
        # sample lasts at least 0.5 s.
        start = time.perf_counter()
        execute(plan, cache=cache)
        reps = max(1, math.ceil(0.5 / (time.perf_counter() - start)))

        rows = {}

        def timed(traced: bool) -> float:
            # Start every sample from a collected heap, so a collection
            # of garbage left by earlier samples (or by the rest of the
            # test session) is not charged to one arm.
            gc.collect()
            start = time.perf_counter()
            for _ in range(reps):
                tr = Tracer() if traced else None
                mx = MetricsRegistry() if traced else None
                result = execute(plan, cache=cache, tracer=tr, metrics=mx)
            seconds = time.perf_counter() - start
            rows[traced] = [(c.benchmark, c.machine, c.instructions,
                             c.minor_cycles, c.base_cycles, c.parallelism)
                            for c in result.cells]
            return seconds

        # Interleaved best-of timing damps scheduler noise, and the arm
        # that runs first alternates so neither always pays for a
        # warming host; keep sampling (to a bound) until the comparison
        # stabilizes.
        best = {False: float("inf"), True: float("inf")}
        for i in range(5):
            for arm in ((False, True) if i % 2 == 0 else (True, False)):
                best[arm] = min(best[arm], timed(arm))
            if best[True] <= best[False] * 1.02:
                break
        # Tracing observes the grid; it must not change a single cell.
        assert rows[True] == rows[False]
        plain, traced = best[False], best[True]
        overhead = traced / plain - 1.0
        assert overhead <= 0.02, (
            f"tracing overhead {overhead:.1%} exceeds 2% "
            f"(plain {plain:.3f}s, traced {traced:.3f}s, "
            f"{reps} runs per sample)"
        )
