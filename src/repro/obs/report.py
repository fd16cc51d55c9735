"""Structured run reports: suite-wide stall attribution + compile profiles.

``build_suite_report`` compiles and runs benchmarks with pass-level
profiling, replays every trace with stall attribution on a set of
machines, and emits the whole run as JSONL events through a recorder —
the machine-readable report archived by CI (``results/run_report.jsonl``)
and validated by ``scripts/check_report_schema.py``.  The same data
renders as ASCII tables for the ``repro report`` / ``measure --profile``
CLI paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..analysis.tables import format_table
from ..machine.config import MachineConfig
from ..machine.presets import paper_machines
from ..opt.options import CompilerOptions
from ..sim.timing import TimingResult, simulate
from .profile import CompileProfile
from .recorder import SCHEMA_VERSION, Recorder, active_recorder
from .stalls import STALL_CAUSES
from .trace import Tracer, active_tracer, emit_span_events

#: Table headers shared by every stall-breakdown rendering.
_STALL_HEADERS = ["machine", "base cycles", "instr/cycle", "raw_dep",
                  "memory_order", "unit_conflict", "issue_width",
                  "control", "issued", "minor cycles"]

_PROFILE_HEADERS = ["pass", "ms", "instrs in", "instrs out", "delta",
                    "blocks"]


def default_report_machines() -> list[MachineConfig]:
    """The standard machine set a run report measures against (the
    paper's seven machines, shared with :mod:`repro.machine.presets`)."""
    return paper_machines()


def stall_row(timing: TimingResult) -> list[object]:
    """One stall-table row for an observed :class:`TimingResult`."""
    s = timing.stalls
    if s is None:
        raise ValueError(
            f"{timing.config_name}: no stall breakdown; run "
            "simulate(..., observe=True)"
        )
    return [
        timing.config_name, timing.base_cycles, timing.parallelism,
        s.raw_dep, s.memory_order, s.unit_conflict, s.issue_width,
        s.control, s.issued_cycles, timing.minor_cycles,
    ]


def render_stall_table(
    timings: list[TimingResult], title: str | None = None
) -> str:
    """Render observed timings as a stall-attribution table."""
    return format_table(
        _STALL_HEADERS, [stall_row(t) for t in timings], title=title
    )


def render_profile_table(
    profile: CompileProfile, title: str | None = None
) -> str:
    """Render a compile profile as a per-pass table."""
    text = format_table(_PROFILE_HEADERS, profile.as_rows(), title=title)
    if profile.sched is not None:
        sched = profile.sched
        text += (
            f"\nscheduler: {sched.blocks_scheduled}/{sched.blocks_seen} "
            f"blocks scheduled, {sched.instructions} instructions, "
            f"{sched.seconds * 1e3:.1f} ms"
        )
    return text


@dataclass(slots=True)
class BenchmarkReport:
    """Everything observed about one benchmark in one run."""

    benchmark: str
    checksum_ok: bool
    instructions: int
    profile: CompileProfile
    timings: list[TimingResult]

    def render(self) -> str:
        parts = [
            f"== {self.benchmark} — {self.instructions} dynamic "
            f"instructions, checksum "
            f"{'ok' if self.checksum_ok else 'MISMATCH'} =="
        ]
        parts.append(render_profile_table(
            self.profile, title="compile profile"
        ))
        parts.append(render_stall_table(
            self.timings, title="stall attribution (minor cycles)"
        ))
        memo_line = self.replay_summary()
        if memo_line:
            parts.append(memo_line)
        return "\n\n".join(parts)

    def replay_summary(self) -> str:
        """One-line replay-memo roll-up over this benchmark's timings
        (empty when no timing carried replay statistics)."""
        hits = misses = fallbacks = memoized = total = 0
        seen = False
        for t in self.timings:
            s = t.replay
            if s is None:
                continue
            seen = True
            hits += s.memo_hits
            misses += s.memo_misses
            fallbacks += s.fallbacks
            memoized += s.memo_instructions
            total += s.memo_instructions + s.direct_instructions
        if not seen:
            return ""
        frac = memoized / total if total else 0.0
        return (
            f"replay memo ({len(self.timings)} machines): "
            f"{hits} hits / {misses} misses / {fallbacks} fallbacks, "
            f"{frac:.0%} of instructions memoized"
        )


def _markdown_table(headers: list[str], rows: list[list]) -> str:
    """Render a GitHub-flavored markdown table."""
    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join(" --- " for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(fmt(v) for v in row) + " |")
    return "\n".join(lines)


@dataclass(slots=True)
class RunReport:
    """A full observed run over the benchmark suite."""

    run_id: str
    seconds: float
    benchmarks: list[BenchmarkReport]

    def render(self) -> str:
        parts = [br.render() for br in self.benchmarks]
        parts.append(
            f"run '{self.run_id}': {len(self.benchmarks)} benchmarks in "
            f"{self.seconds:.2f}s"
        )
        return "\n\n".join(parts)

    def as_dict(self) -> dict:
        """The whole report as one JSON-serializable dict
        (``repro report --format json``)."""
        return {
            "run_id": self.run_id,
            "seconds": self.seconds,
            "conservation_holds": self.conservation_holds(),
            "benchmarks": [
                {
                    "benchmark": br.benchmark,
                    "checksum_ok": br.checksum_ok,
                    "instructions": br.instructions,
                    "compile_seconds": br.profile.total_seconds(),
                    "passes": [s.as_dict() for s in br.profile.passes],
                    "timings": [t.as_dict() for t in br.timings],
                }
                for br in self.benchmarks
            ],
        }

    def render_markdown(self) -> str:
        """The report as GitHub-flavored markdown — pasteable into a PR
        (``repro report --format markdown``)."""
        parts = [f"## run `{self.run_id}` — "
                 f"{len(self.benchmarks)} benchmarks, "
                 f"{self.seconds:.2f}s"]
        for br in self.benchmarks:
            checksum = "ok" if br.checksum_ok else "**MISMATCH**"
            parts.append(
                f"### {br.benchmark}\n\n"
                f"{br.instructions} dynamic instructions, "
                f"checksum {checksum}, compiled in "
                f"{br.profile.total_seconds() * 1e3:.1f} ms"
            )
            parts.append(_markdown_table(
                _STALL_HEADERS, [stall_row(t) for t in br.timings]
            ))
            memo_line = br.replay_summary()
            if memo_line:
                parts.append(memo_line)
        return "\n\n".join(parts)

    def conservation_holds(self) -> bool:
        """True iff every breakdown satisfies issued+stalled==minor."""
        return all(
            t.stalls is not None
            and t.stalls.stalled + t.stalls.issued_cycles == t.minor_cycles
            for br in self.benchmarks
            for t in br.timings
        )


def emit_compile_events(
    recorder: Recorder, benchmark: str, profile: CompileProfile
) -> None:
    """Emit one ``compile_pass`` event per pass plus a ``compile`` roll-up."""
    for stat in profile.passes:
        recorder.emit("compile_pass", benchmark=benchmark,
                      **stat.as_dict())
    recorder.emit(
        "compile",
        benchmark=benchmark,
        seconds=profile.total_seconds(),
        n_passes=len(profile.passes),
        sched=profile.sched.as_dict() if profile.sched else None,
    )


def observe_benchmark(
    bench,
    machines: list[MachineConfig],
    options: CompilerOptions | None = None,
    recorder: Recorder | None = None,
    tracer: Tracer | None = None,
) -> BenchmarkReport:
    """Compile, run, and measure one benchmark with full observability.

    ``tracer`` (optional) receives one ``observe`` span per benchmark
    with nested ``compile.run``/``simulate`` children.
    """
    from ..benchmarks import suite
    from ..sim.interp import run as interp_run
    from ..opt.driver import compile_source

    rec = active_recorder(recorder)
    tr = active_tracer(tracer)
    if isinstance(bench, str):
        bench = suite.get(bench)
    opts = options or suite.default_options(bench)
    profile = CompileProfile()
    with tr.span("observe", cat="report", benchmark=bench.name):
        with tr.span("compile.run", cat="compile", benchmark=bench.name):
            program = compile_source(bench.source(), opts, profile)
        emit_compile_events(rec, bench.name, profile)

        result = interp_run(program)
        ok = abs(result.value - bench.reference()) <= bench.fp_tolerance
        timings = []
        for config in machines:
            with tr.span("simulate", cat="sim", benchmark=bench.name,
                         machine=config.name):
                timing = simulate(result.trace, config, observe=True)
            timings.append(timing)
            rec.emit("timing", benchmark=bench.name, **timing.as_dict())
            rec.incr("timings")
        rec.incr("benchmarks")
    return BenchmarkReport(
        benchmark=bench.name,
        checksum_ok=ok,
        instructions=result.instructions,
        profile=profile,
        timings=timings,
    )


def _observe_task(payload: tuple) -> "BenchmarkReport":
    """Pool entry point: observe one benchmark without a recorder.

    Compile profiling measures real wall time, so reports always compile
    fresh (no trace cache); the worker returns the picklable
    :class:`BenchmarkReport` and the parent re-emits its events.
    """
    bench_name, machines = payload
    return observe_benchmark(bench_name, machines)


def _emit_benchmark_events(rec: Recorder, report: "BenchmarkReport") -> None:
    """Re-emit one worker-produced benchmark report as recorder events,
    mirroring what :func:`observe_benchmark` emits when run inline."""
    emit_compile_events(rec, report.benchmark, report.profile)
    for timing in report.timings:
        rec.emit("timing", benchmark=report.benchmark, **timing.as_dict())
        rec.incr("timings")
    rec.incr("benchmarks")


def build_suite_report(
    benchmarks: list | None = None,
    machines: list[MachineConfig] | None = None,
    recorder: Recorder | None = None,
    run_id: str = "suite",
    workers: int = 1,
    tracer: Tracer | None = None,
) -> RunReport:
    """Observe the whole suite (or a subset) and return the run report.

    All events stream through ``recorder`` as the run progresses, so a
    :class:`~repro.obs.recorder.JsonlRecorder` yields a complete JSONL
    report even if rendering is never requested.  With ``workers>1``
    benchmarks are observed in parallel processes; workers return
    picklable :class:`BenchmarkReport` payloads and the parent emits
    their events in suite order, so the JSONL content matches the serial
    run.  A worker failure (crashed process, broken pool) degrades that
    benchmark to an in-process rerun instead of aborting the report.

    ``tracer`` collects the run's span timeline; when ``None`` one is
    created automatically iff a recorder is active, and its spans are
    emitted as ``span`` events just before ``run_end``.
    """
    from ..benchmarks import suite

    rec = active_recorder(recorder)
    # Like the engine: tracing is on whenever a recorder is (the JSONL
    # report then carries the span timeline), opt-out via NULL_TRACER.
    tr = tracer if tracer is not None else (
        Tracer() if rec.enabled else active_tracer(None))
    configs = (list(machines) if machines is not None
               else default_report_machines())
    benchs = benchmarks if benchmarks is not None else suite.all_benchmarks()
    rec.emit("run_start", schema=SCHEMA_VERSION, run_id=run_id,
             machines=[c.name for c in configs],
             stall_causes=list(STALL_CAUSES))
    start = time.perf_counter()
    with tr.span("report.run", cat="report", run_id=run_id,
                 benchmarks=len(benchs)):
        if workers <= 1 or len(benchs) <= 1:
            reports = [
                observe_benchmark(bench, configs, recorder=rec, tracer=tr)
                for bench in benchs
            ]
        else:
            names = [b if isinstance(b, str) else b.name for b in benchs]
            with tr.span("observe.parallel", cat="report",
                         workers=workers):
                worker_reports = _observe_parallel(names, configs, workers)
            reports = []
            for name, report in zip(names, worker_reports):
                if report is None:
                    # Worker lost to a crash or broken pool: degrade to
                    # an in-process rerun so the report still covers the
                    # suite.
                    report = observe_benchmark(name, configs, tracer=tr)
                _emit_benchmark_events(rec, report)
                reports.append(report)
    seconds = time.perf_counter() - start
    emit_span_events(rec, tr)
    rec.emit("run_end", seconds=seconds, counters=dict(rec.counters))
    return RunReport(run_id=run_id, seconds=seconds, benchmarks=reports)


def _observe_parallel(
    names: list[str], configs: list[MachineConfig], workers: int
) -> list["BenchmarkReport | None"]:
    """Observe benchmarks across a pool; ``None`` marks lost workers.

    One crashed worker breaks a whole :class:`ProcessPoolExecutor`, so
    each benchmark gets its own future and failures are recorded per
    benchmark rather than letting ``pool.map`` raise away every result.
    """
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    results: list["BenchmarkReport | None"] = [None] * len(names)
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_observe_task, (name, configs))
                for name in names
            ]
            for i, future in enumerate(futures):
                try:
                    results[i] = future.result()
                except (BrokenExecutor, OSError):
                    continue  # degraded serially by the caller
    except BrokenExecutor:
        pass
    return results

