"""Execute a :class:`~repro.engine.plan.Plan`, serially or across a pool.

Cells are grouped by compile unit (equal benchmark + option
fingerprint): each group compiles/functionally-executes its benchmark
once — consulting the :class:`~repro.engine.cache.TraceCache` first —
then replays the trace on every machine in the group.  With
``workers > 1`` whole groups are fanned across a
:class:`concurrent.futures.ProcessPoolExecutor`; workers return only
picklable :class:`CellResult` payloads and the parent reassembles them
in plan order, so the parallel path is bit-identical to the serial one
(``workers=1``), which runs the exact same group code inline.

Execution is *supervised* (:mod:`repro.engine.resilience`): worker
crashes, hangs, and corrupt payloads cost bounded retries with backoff,
a broken pool is respawned with only unfinished groups requeued, and a
group that exhausts its worker budget is re-run once in-process before
being marked failed.  Every cell carries a structured ``status``
(``ok`` / ``retried`` / ``degraded`` / ``failed``) plus its attempt
history; ``ok`` cells are bit-identical to an unsupervised clean run.
Deterministic faults can be injected for testing via
:mod:`repro.engine.faults` (the ``REPRO_FAULTS`` environment variable).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from ..benchmarks import suite
from ..machine.config import MachineConfig
from ..obs.metrics import COUNT_BUCKETS, NULL_METRICS, MetricsRegistry
from ..obs.recorder import Recorder, active_recorder
from ..obs.resource import ResourceSampler
from ..obs.stalls import StallBreakdown
from ..obs.trace import (
    MAIN_TRACK,
    NULL_TRACER,
    Tracer,
    emit_span_events,
    worker_track,
)
from ..opt.options import CompilerOptions
from ..sim.memo import open_memo_store
from ..sim.replay import BACKEND, ReplayStats
from ..sim.timing import simulate
from .cache import NULL_TRACE_CACHE, TraceCache, trace_key
from .faults import NO_FAULTS, FaultPlan
from .plan import Plan
from .resilience import (
    NO_LIMITS,
    ResourceLimits,
    RetryPolicy,
    SupervisionStats,
    run_group_serial,
    run_supervised,
)


@dataclass(slots=True)
class CellResult:
    """Everything one cell's measurement produced (picklable)."""

    benchmark: str
    options_label: str
    machine: str
    instructions: int
    checksum_ok: bool
    minor_cycles: int
    base_cycles: float
    parallelism: float
    #: stall attribution; populated only when the plan was observed
    stalls: StallBreakdown | None
    #: wall time of this cell's timing simulation
    seconds: float
    #: wall time of the group's compile step (shared across the group)
    compile_seconds: float
    #: True when the group's trace came from the on-disk cache
    compile_cached: bool
    #: replay-memo counters from the timing simulation
    #: (:meth:`~repro.sim.replay.ReplayStats.as_dict`), when available
    replay: dict | None = None
    #: supervision outcome: ok | retried | degraded | failed
    status: str = "ok"
    #: total attempts the cell's group consumed (1 for a clean run)
    attempts: int = 1
    #: final typed error (:meth:`CellError.as_dict`) for failed cells
    error: dict | None = None
    #: per-failed-attempt records (empty for a clean run)
    history: tuple = ()

    def to_timing(self):
        """Rebuild the equivalent :class:`~repro.sim.timing.TimingResult`
        (parallelism/cpi are derived, so nothing is lost in transit)."""
        from ..sim.timing import TimingResult

        return TimingResult(
            config_name=self.machine,
            instructions=self.instructions,
            minor_cycles=self.minor_cycles,
            base_cycles=self.base_cycles,
            stalls=self.stalls,
            replay=(ReplayStats(**self.replay)
                    if self.replay is not None else None),
        )


@dataclass(slots=True)
class EngineReport:
    """Execution statistics for one engine run."""

    workers: int
    cells: int
    groups: int
    cache_hits: int
    cache_misses: int
    seconds: float
    compile_seconds: float = 0.0
    sim_seconds: float = 0.0
    #: replay-memo counters summed over every cell's timing simulation
    memo_hits: int = 0
    memo_misses: int = 0
    memo_fallbacks: int = 0
    #: dynamic instructions advanced via memo hits vs replayed directly
    memo_instructions: int = 0
    direct_instructions: int = 0
    #: block events replayed by the vectorized kernel / forced back to
    #: the scalar engine after a failed verification (see
    #: :class:`repro.sim.replay.ReplayStats`)
    vectorized_blocks: int = 0
    scalar_fallback_blocks: int = 0
    #: memo hits served from payloads persisted on disk
    memo_persisted_hits: int = 0
    #: active replay backend (:data:`repro.sim.replay.BACKEND`)
    replay_backend: str = ""
    #: supervision outcome counts (ok + retried + degraded + failed == cells)
    ok_cells: int = 0
    retried_cells: int = 0
    degraded_cells: int = 0
    failed_cells: int = 0
    #: failed group attempts (each consumed one retry-ladder slot)
    group_retries: int = 0
    #: times the worker pool was killed and respawned
    pool_restarts: int = 0

    def as_dict(self) -> dict:
        return {
            "workers": self.workers,
            "cells": self.cells,
            "groups": self.groups,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "seconds": self.seconds,
            "compile_seconds": self.compile_seconds,
            "sim_seconds": self.sim_seconds,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_fallbacks": self.memo_fallbacks,
            "memo_instructions": self.memo_instructions,
            "direct_instructions": self.direct_instructions,
            "vectorized_blocks": self.vectorized_blocks,
            "scalar_fallback_blocks": self.scalar_fallback_blocks,
            "memo_persisted_hits": self.memo_persisted_hits,
            "replay_backend": self.replay_backend,
            "ok_cells": self.ok_cells,
            "retried_cells": self.retried_cells,
            "degraded_cells": self.degraded_cells,
            "failed_cells": self.failed_cells,
            "group_retries": self.group_retries,
            "pool_restarts": self.pool_restarts,
        }

    def summary(self) -> str:
        """One-line human rendering for the CLI."""
        text = (
            f"engine: {self.cells} cells in {self.groups} compile groups, "
            f"workers={self.workers}, cache {self.cache_hits} hit / "
            f"{self.cache_misses} miss, {self.seconds:.2f}s wall"
        )
        total = self.memo_instructions + self.direct_instructions
        if total:
            text += (
                f" | replay memo {self.memo_hits} hit / "
                f"{self.memo_misses} miss / "
                f"{self.memo_fallbacks} fallback, "
                f"{self.memo_instructions / total:.0%} of instructions "
                f"memoized"
            )
        if self.retried_cells or self.degraded_cells or self.failed_cells:
            text += (
                f" | status {self.ok_cells} ok / "
                f"{self.retried_cells} retried / "
                f"{self.degraded_cells} degraded / "
                f"{self.failed_cells} FAILED "
                f"({self.group_retries} retries, "
                f"{self.pool_restarts} pool restarts)"
            )
        return text


@dataclass(slots=True)
class EngineResult:
    """Cell results in plan order plus the engine report."""

    cells: list[CellResult] = field(default_factory=list)
    report: EngineReport | None = None
    #: per-track resource telemetry summaries (``sample_resources`` runs
    #: only): one dict per track, parent first, workers in merge order
    resources: list[dict] = field(default_factory=list)

    def failed_cells(self) -> list[CellResult]:
        """Cells that exhausted the whole degradation ladder."""
        return [c for c in self.cells if c.status == "failed"]


def acquire_run(
    benchmark: str,
    options: CompilerOptions,
    cache: TraceCache,
    *,
    faults: FaultPlan = NO_FAULTS,
    attempt: int = 1,
    limits: ResourceLimits = NO_LIMITS,
    tracer: Tracer = NULL_TRACER,
    metrics: MetricsRegistry = NULL_METRICS,
):
    """Get one compile unit's run; returns ``(run, cached, checksum_ok)``.

    The in-process memo comes first (free), then the on-disk cache,
    then a compile whose run is stored back.  ``cached`` is True when
    no compile ran.  ``limits`` bounds the compile's instruction budget
    and checks RSS afterwards; ``faults``/``attempt`` may corrupt the
    freshly stored entry.  A compile runs under one ``compile.run``
    span on ``tracer``, with the compile driver's ``pass.*`` spans
    nested inside it.
    """
    bench = suite.get(benchmark)
    result = suite.cached_run(bench, options)
    key = None
    try:
        if result is None and cache.enabled:
            key = trace_key(bench.source(), options)
            with tracer.span("cache.get", cat="cache", benchmark=benchmark):
                result = cache.load(key)
            if result is not None:
                # Share the cached run with in-process callers
                # (exhibits, etc.).
                suite.seed_run(bench, options, result)
        cached = result is not None
        if result is None:
            with tracer.span("compile.run", cat="compile",
                             benchmark=benchmark):
                result = suite.run_benchmark(
                    bench, options, max_instructions=limits.max_instructions,
                    tracer=tracer,
                )
            if key is not None:
                with tracer.span("cache.put", cat="cache",
                                 benchmark=benchmark):
                    cache.store(key, result)
                if faults:
                    faults.maybe_corrupt_cache(cache, key, benchmark, attempt)
    finally:
        cache.stats.record_to(metrics, "cache.")
    limits.check_rss()
    checksum_ok = abs(result.value - bench.reference()) <= bench.fp_tolerance
    return result, cached, checksum_ok


def _run_group(
    benchmark: str,
    options: CompilerOptions,
    machine_cells: list[tuple[int, MachineConfig, str]],
    observe: bool,
    cache: TraceCache,
    faults: FaultPlan = NO_FAULTS,
    attempt: int = 1,
    limits: ResourceLimits = NO_LIMITS,
    in_worker: bool = False,
    tracer: Tracer = NULL_TRACER,
    metrics: MetricsRegistry = NULL_METRICS,
) -> tuple[list[tuple[int, CellResult]], bool]:
    """Compile one group's benchmark and measure every machine in it.

    ``machine_cells`` carries ``(plan_index, machine, options_label)``
    triples; the plan index rides along so the caller can reassemble
    results in plan order regardless of completion order.  ``faults``
    and ``attempt`` drive deterministic fault injection; ``limits``
    enforces the per-cell instruction-budget and RSS guardrails.

    ``tracer``/``metrics`` receive the group/cache/compile/simulate
    spans and the cache/replay/timing metrics; both default to the
    zero-overhead null sinks.
    """
    if faults:
        faults.fire_group_faults(
            benchmark, [m.name for _, m, _ in machine_cells],
            attempt, in_worker,
        )
    with tracer.span("group.run", cat="engine", benchmark=benchmark,
                     cells=len(machine_cells), attempt=attempt):
        start = time.perf_counter()
        result, cached, checksum_ok = acquire_run(
            benchmark, options, cache, faults=faults, attempt=attempt,
            limits=limits, tracer=tracer, metrics=metrics,
        )
        compile_seconds = time.perf_counter() - start
        if not cached:
            metrics.observe("compile.seconds", compile_seconds)

        # Persistent replay-memo store inside the trace cache's
        # directory: warm-starts every cell's replay from previously
        # learned memo tables (disabled alongside the cache, keeping
        # cacheless runs byte-for-byte deterministic).
        memo = open_memo_store(cache)

        out: list[tuple[int, CellResult]] = []
        try:
            for index, machine, label in machine_cells:
                t0 = time.perf_counter()
                with tracer.span("simulate", cat="sim", benchmark=benchmark,
                                 machine=machine.name):
                    timing = simulate(result.trace, machine, observe=observe,
                                      memo=memo)
                cell = CellResult(
                    benchmark=benchmark,
                    options_label=label,
                    machine=machine.name,
                    instructions=result.instructions,
                    checksum_ok=checksum_ok,
                    minor_cycles=timing.minor_cycles,
                    base_cycles=timing.base_cycles,
                    parallelism=timing.parallelism,
                    stalls=timing.stalls,
                    seconds=time.perf_counter() - t0,
                    compile_seconds=compile_seconds,
                    compile_cached=cached,
                    replay=(timing.replay.as_dict()
                            if timing.replay is not None else None),
                )
                if metrics.enabled:
                    metrics.incr("engine.cells")
                    metrics.observe("cell.sim.seconds", cell.seconds)
                    metrics.observe("cell.instructions", cell.instructions,
                                    bounds=COUNT_BUCKETS)
                    if timing.replay is not None:
                        timing.replay.record_to(metrics)
                if faults:
                    cell = faults.maybe_corrupt_cell(cell, attempt)
                out.append((index, cell))
        finally:
            # The engine never replays this trace again: release its
            # vectorized plan arrays.  The plan itself stays for direct
            # simulate() callers; a later replay reloads the arrays
            # from the store or rebuilds them.
            if result.trace._plan is not None:
                result.trace._plan.vec = None
            _trim_heap()
        memo.stats.record_to(metrics, "cache.memo_")
    return out, cached


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or ``None`` on other C libraries."""
    import ctypes

    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None


def _trim_heap() -> None:
    """Give the C heap's free pages back to the OS (glibc only).

    A group's plan arrays are its largest allocations.  Once freed,
    their pages stay resident whenever a live block sits above them in
    the heap, so without a trim the share of one group's memory that
    outlives it, and with it the next group's peak RSS, would depend
    on where the allocator happened to place things.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def _run_group_task(payload: tuple):
    """Pool entry point: rebuild the cache handle and run one group.

    With ``traced`` set, the worker buffers spans/metrics into local
    collectors and ships them back as a third payload element — the
    existing result round-trip is the only IPC.  With ``sample`` set a
    :class:`~repro.obs.resource.ResourceSampler` additionally records
    this worker's RSS/CPU gauges for the duration of the group and its
    summary rides home on the same element.
    """
    (benchmark, options, machine_cells, observe,
     cache_root, attempt, faults, limits, traced, sample) = payload
    cache = TraceCache(cache_root) if cache_root else NULL_TRACE_CACHE
    if not traced:
        return _run_group(
            benchmark, options, machine_cells, observe, cache,
            faults=faults, attempt=attempt, limits=limits, in_worker=True,
        )
    tracer = Tracer(track=worker_track())
    metrics = MetricsRegistry()
    sampler = None
    if sample:
        sampler = ResourceSampler(metrics, track=worker_track()).start()
    try:
        results, cached = _run_group(
            benchmark, options, machine_cells, observe, cache,
            faults=faults, attempt=attempt, limits=limits, in_worker=True,
            tracer=tracer, metrics=metrics,
        )
    finally:
        resource = sampler.stop() if sampler is not None else None
    obs = {"spans": tracer.export(), "metrics": metrics.as_dict()}
    if resource is not None:
        obs["resource"] = resource
    return results, cached, obs


def _prime_task(payload: tuple):
    """Pool entry point for :func:`prime_runs`."""
    index, benchmark, options, cache_root = payload
    cache = TraceCache(cache_root) if cache_root else NULL_TRACE_CACHE
    result, cached, _ = acquire_run(benchmark, options, cache)
    return index, result, cached


def prime_runs(
    jobs: list[tuple[str, CompilerOptions]],
    *,
    workers: int = 1,
    cache: TraceCache | None = None,
) -> EngineReport:
    """Warm the in-process run memo for a set of compilations.

    ``jobs`` is a list of (benchmark name, options) compile units;
    duplicates (by option fingerprint) collapse to one compile.  With
    ``workers>1`` compiles fan across a process pool and the resulting
    runs — traces included — are shipped back and seeded into
    :mod:`repro.benchmarks.suite`'s memo, so subsequent inline code
    (e.g. the exhibit drivers) never recompiles.  The disk cache, when
    given, is populated as a side effect and serves later runs.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    disk_cache = cache if cache is not None else NULL_TRACE_CACHE
    unique: dict[tuple, tuple[str, CompilerOptions]] = {}
    for benchmark, options in jobs:
        unique.setdefault((benchmark, options.fingerprint()),
                          (benchmark, options))
    work = list(unique.values())
    start = time.perf_counter()
    hits = misses = 0

    if workers == 1 or len(work) <= 1:
        for benchmark, options in work:
            _, cached, _ = acquire_run(benchmark, options, disk_cache)
            hits, misses = hits + cached, misses + (not cached)
    else:
        from concurrent.futures import ProcessPoolExecutor

        cache_root = disk_cache.root if disk_cache.enabled else ""
        payloads = [(i, b, o, cache_root)
                    for i, (b, o) in enumerate(work)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for index, result, cached in pool.map(_prime_task, payloads):
                benchmark, options = work[index]
                suite.seed_run(suite.get(benchmark), options, result)
                hits, misses = hits + cached, misses + (not cached)

    seconds = time.perf_counter() - start
    return EngineReport(
        workers=workers,
        cells=0,
        groups=len(work),
        cache_hits=hits,
        cache_misses=misses,
        seconds=seconds,
        compile_seconds=seconds,
    )


def failed_cell(
    benchmark: str, machine: str, options_label: str, *,
    attempts: int, error: dict | None, history: tuple = (),
) -> CellResult:
    """Placeholder for a cell whose group (or flow node) exhausted the
    whole ladder: zero counters, ``status="failed"`` and the error."""
    return CellResult(
        benchmark=benchmark,
        options_label=options_label,
        machine=machine,
        instructions=0,
        checksum_ok=False,
        minor_cycles=0,
        base_cycles=0.0,
        parallelism=0.0,
        stalls=None,
        seconds=0.0,
        compile_seconds=0.0,
        compile_cached=False,
        replay=None,
        status="failed",
        attempts=attempts,
        error=error,
        history=history,
    )


def finish_run(
    plan: Plan,
    cells: list[CellResult],
    rec: Recorder,
    *,
    workers: int,
    groups: int,
    cache_hits: int,
    cache_misses: int,
    seconds: float,
    compile_seconds: float,
    group_retries: int = 0,
    pool_restarts: int = 0,
    restored: frozenset[int] = frozenset(),
) -> EngineReport:
    """Build the run's :class:`EngineReport` from its plan-ordered
    ``cells`` and, when ``rec`` is enabled, emit one ``cell`` event per
    cell and the closing ``engine`` event.

    ``restored`` holds the plan indices of cells a flow restored from
    checkpoints: their simulation time and replay-memo counters belong
    to the run that computed them, so this run's report adds none of
    them.
    """
    report = EngineReport(
        workers=workers,
        cells=len(cells),
        groups=groups,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        seconds=seconds,
        compile_seconds=compile_seconds,
        sim_seconds=sum(c.seconds for i, c in enumerate(cells)
                        if i not in restored),
        replay_backend=BACKEND,
        ok_cells=sum(1 for c in cells if c.status == "ok"),
        retried_cells=sum(1 for c in cells if c.status == "retried"),
        degraded_cells=sum(1 for c in cells if c.status == "degraded"),
        failed_cells=sum(1 for c in cells if c.status == "failed"),
        group_retries=group_retries,
        pool_restarts=pool_restarts,
    )
    for i, c in enumerate(cells):
        if c.replay and i not in restored:
            report.memo_hits += c.replay.get("memo_hits", 0)
            report.memo_misses += c.replay.get("memo_misses", 0)
            report.memo_fallbacks += c.replay.get("fallbacks", 0)
            report.memo_instructions += c.replay.get(
                "memo_instructions", 0)
            report.direct_instructions += c.replay.get(
                "direct_instructions", 0)
            report.vectorized_blocks += c.replay.get(
                "vectorized_blocks", 0)
            report.scalar_fallback_blocks += c.replay.get(
                "scalar_fallback_blocks", 0)
            report.memo_persisted_hits += c.replay.get(
                "memo_persisted_hits", 0)
    if not rec.enabled:
        return report
    # `cells` is plan-ordered, so each result's scheduler comes from
    # the matching plan cell.
    for plan_cell, c in zip(plan.cells, cells):
        event = {
            "benchmark": c.benchmark,
            "machine": c.machine,
            "options": c.options_label,
            "scheduler": plan_cell.options.scheduler,
            "seconds": c.seconds,
            "cached": c.compile_cached,
            "status": c.status,
            "attempts": c.attempts,
            "instructions": c.instructions,
            "minor_cycles": c.minor_cycles,
            "base_cycles": c.base_cycles,
            "parallelism": c.parallelism,
        }
        if c.stalls is not None:
            event["stalls"] = c.stalls.as_dict()
        if c.replay is not None:
            event["replay"] = c.replay
        if c.error is not None:
            event["error"] = c.error
        if c.history:
            event["history"] = list(c.history)
        rec.emit("cell", **event)
        rec.incr("engine.cells")
    rec.emit("engine", **report.as_dict())
    return report


def _merge_resource(acc: dict[str, dict], summary: dict) -> None:
    """Fold one worker's resource summary into the per-track aggregate.

    A pool worker runs many groups over its lifetime, each shipping one
    summary under the same track name: peaks and CPU time are
    monotonically non-decreasing per process, so keep the max; sample
    counts accumulate; the latest ``rss_mb`` wins.
    """
    track = summary["track"]
    prev = acc.get(track)
    if prev is None:
        acc[track] = dict(summary)
        return
    prev["rss_mb"] = summary["rss_mb"]
    prev["rss_peak_mb"] = max(prev["rss_peak_mb"], summary["rss_peak_mb"])
    prev["cpu_seconds"] = max(prev["cpu_seconds"], summary["cpu_seconds"])
    prev["samples"] += summary["samples"]


def execute(
    plan: Plan,
    *,
    workers: int = 1,
    cache: TraceCache | None = None,
    recorder: Recorder | None = None,
    policy: RetryPolicy | None = None,
    faults: FaultPlan | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    progress=None,
    sample_resources: bool = False,
) -> EngineResult:
    """Execute every cell of ``plan`` and return results in plan order.

    ``workers=1`` runs the groups inline (the serial fallback);
    ``workers>1`` fans them across a supervised process pool.  ``cache``
    (a :class:`~repro.engine.cache.TraceCache`, or ``None`` for no disk
    cache) is consulted before every compile and populated after every
    miss, in the parent and in every worker alike.

    ``policy`` configures the retry/backoff/timeout/degradation ladder
    (:class:`~repro.engine.resilience.RetryPolicy`, default policy when
    ``None``); ``faults`` injects deterministic failures for testing
    (default: whatever ``$REPRO_FAULTS`` names; an empty plan when
    unset).  A sweep always completes: cells that fail every rung of
    the ladder come back with ``status="failed"`` and a typed error
    instead of aborting the run.

    ``recorder`` receives one ``cell`` event per cell (in plan order)
    and a closing ``engine`` summary event, followed by the run's
    ``span`` events and one ``metrics`` snapshot.

    ``tracer``/``metrics`` opt into span tracing and the metrics
    registry explicitly (pass your own to keep a handle on the merged
    run — e.g. for :func:`~repro.obs.trace.write_chrome_trace`); when
    ``None`` they are auto-enabled iff a recorder is active, so plain
    ``execute(plan)`` stays on the zero-overhead null path.  Workers
    buffer spans/metrics locally and ship them back on the result
    payload; the parent merges them in plan order, which keeps merged
    metric values deterministic.  ``progress(group_key, outcome,
    n_cells)`` is called as each group settles (the ``--live`` hook).

    ``sample_resources=True`` additionally runs a
    :class:`~repro.obs.resource.ResourceSampler` thread in the parent
    and in every worker, recording per-track RSS/CPU gauges into the
    metrics registry and per-track summaries onto the result (and as
    ``resource`` report events).  Strictly opt-in: the gauges are
    wall-clock-dependent, so the default path keeps its bit-identical
    merged-metrics guarantee.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    rec = active_recorder(recorder)
    tr = tracer if tracer is not None else (
        Tracer() if rec.enabled else NULL_TRACER)
    mx = metrics if metrics is not None else (
        MetricsRegistry() if rec.enabled or sample_resources
        else NULL_METRICS)
    retry_policy = policy if policy is not None else RetryPolicy()
    fault_plan = faults if faults is not None else FaultPlan.from_env()
    disk_cache = cache if cache is not None else NULL_TRACE_CACHE
    groups = plan.compile_groups()
    start = time.perf_counter()
    slots: list[CellResult | None] = [None] * len(plan.cells)
    hits = misses = 0
    compile_seconds = 0.0
    stats = SupervisionStats()

    group_indices = list(groups.values())
    group_args = [
        (
            plan.cells[indices[0]].benchmark,
            plan.cells[indices[0]].options,
            [(i, plan.cells[i].machine, plan.cells[i].options_label)
             for i in indices],
            plan.observe,
        )
        for indices in group_indices
    ]
    group_keys = plan.group_labels()

    sampler = (ResourceSampler(mx, track=MAIN_TRACK).start()
               if sample_resources else None)
    #: per-track worker summaries, aggregated in merge (plan) order
    worker_resources: dict[str, dict] = {}

    def serial_runner(base: tuple, attempt: int):
        benchmark, options, machine_cells, observe = base
        return _run_group(
            benchmark, options, machine_cells, observe, disk_cache,
            faults=fault_plan, attempt=attempt,
            limits=retry_policy.limits, in_worker=False,
            tracer=tr, metrics=mx,
        )

    with tr.span("engine.run", cat="engine", workers=workers,
                 cells=len(plan.cells), groups=len(group_args)):
        root_id = tr.current_id()

        if workers == 1 or len(group_args) <= 1:
            outcomes = []
            for key, base, indices in zip(group_keys, group_args,
                                          group_indices):
                outcome = run_group_serial(
                    key,
                    lambda attempt, base=base: serial_runner(base, attempt),
                    retry_policy,
                    expected_indices=set(indices),
                    tracer=tr,
                )
                if progress is not None:
                    progress(key, outcome, len(indices))
                outcomes.append(outcome)
        else:
            cache_root = disk_cache.root if disk_cache.enabled else ""
            traced = tr.enabled or mx.enabled

            def make_payload(base: tuple, attempt: int) -> tuple:
                return base + (cache_root, attempt, fault_plan,
                               retry_policy.limits, traced,
                               sample_resources)

            outcomes = run_supervised(
                [(key, base, set(indices))
                 for key, base, indices
                 in zip(group_keys, group_args, group_indices)],
                workers=workers,
                task=_run_group_task,
                make_payload=make_payload,
                serial_runner=serial_runner,
                policy=retry_policy,
                faults=fault_plan,
                stats=stats,
                tracer=tr,
                progress=progress,
            )

        for indices, outcome in zip(group_indices, outcomes):
            # Splice worker-buffered spans/metrics into the parent
            # collectors, in plan order (deterministic merge).
            if outcome.obs:
                tr.merge(outcome.obs.get("spans") or [],
                         parent_id=root_id)
                mx.merge(outcome.obs.get("metrics"))
                summary = outcome.obs.get("resource")
                if summary:
                    _merge_resource(worker_resources, summary)
            if outcome.status == "failed":
                error = (outcome.error.as_dict()
                         if outcome.error is not None else None)
                history = tuple(r.as_dict() for r in outcome.history)
                installed = [(i, failed_cell(
                    plan.cells[i].benchmark, plan.cells[i].machine.name,
                    plan.cells[i].options_label,
                    attempts=outcome.attempts, error=error,
                    history=history,
                )) for i in indices]
            else:
                assert outcome.results is not None
                installed = outcome.results
                for _, cell_result in installed:
                    cell_result.status = outcome.status
                    cell_result.attempts = outcome.attempts
                    cell_result.history = tuple(
                        r.as_dict() for r in outcome.history
                    )
                compile_seconds += installed[0][1].compile_seconds
                if outcome.cached:
                    hits += 1
                else:
                    misses += 1
            for index, cell_result in installed:
                slots[index] = cell_result

    resources: list[dict] = []
    if sampler is not None:
        resources.append(sampler.stop())
    resources.extend(worker_resources.values())

    cells = [c for c in slots if c is not None]
    assert len(cells) == len(plan.cells), "engine lost cell results"
    report = finish_run(
        plan, cells, rec,
        workers=workers,
        groups=len(groups),
        cache_hits=hits,
        cache_misses=misses,
        seconds=time.perf_counter() - start,
        compile_seconds=compile_seconds,
        group_retries=sum(len(o.history) for o in outcomes),
        pool_restarts=stats.pool_restarts,
    )
    if mx.enabled:
        mx.gauge("engine.workers", workers)
        mx.incr("engine.groups", len(groups))
        mx.incr("engine.cells.ok", report.ok_cells)
        mx.incr("engine.cells.retried", report.retried_cells)
        mx.incr("engine.cells.degraded", report.degraded_cells)
        mx.incr("engine.cells.failed", report.failed_cells)
        mx.incr("engine.group_retries", report.group_retries)
        mx.incr("engine.pool_restarts", report.pool_restarts)
    if rec.enabled:
        for summary in resources:
            rec.emit("resource", **summary)
        emit_span_events(rec, tr)
        if mx.enabled:
            rec.emit("metrics", **mx.as_dict())
    return EngineResult(cells=cells, report=report, resources=resources)
