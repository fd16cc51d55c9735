"""Structured run reports: suite-wide stall attribution + compile profiles.

``build_suite_report`` runs benchmarks through the execution engine
(:func:`repro.engine.executor.execute`) with stall attribution on a set
of machines, reads each benchmark's compile profile off the compile
driver's ``pass.*`` spans, and emits the whole run as JSONL events
through a recorder — the machine-readable report archived by CI
(``results/run_report.jsonl``) and validated by
``scripts/check_report_schema.py``.  The same data renders as ASCII
tables for the ``repro report`` / ``measure --profile`` CLI paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.tables import format_table
from ..machine.config import MachineConfig
from ..machine.presets import paper_machines
from ..sim.timing import TimingResult
from .profile import PassStat, compile_passes
from .recorder import Recorder, active_recorder
from .schema import SCHEMA_VERSION
from .stalls import STALL_CAUSES
from .trace import Tracer, emit_span_events

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


def profile_seconds(profile: list[PassStat]) -> float:
    """Wall time across every pass of a compile profile."""
    return sum(p.seconds for p in profile)


def _sched_counts(profile: list[PassStat]) -> dict | None:
    """The scheduler's block counts from the profile's ``schedule`` pass
    (None when the compile did not schedule)."""
    for p in profile:
        if p.sched_blocks >= 0:
            return {
                "blocks_seen": p.blocks_after,
                "blocks_scheduled": p.sched_blocks,
                "instructions": p.sched_instrs,
            }
    return None


def render_profile_table(
    profile: list[PassStat], title: str | None = None
) -> str:
    """Render a compile profile (see :func:`compile_passes`) as a
    per-pass table."""
    if not profile:
        return f"{title or 'compile profile'}: no compile in this run"
    rows = [
        [
            p.name,
            p.seconds * 1e3,
            "-" if p.instrs_before < 0 else p.instrs_before,
            "-" if p.instrs_after < 0 else p.instrs_after,
            "-" if p.instrs_before < 0 else f"{p.instr_delta:+d}",
            "-" if p.blocks_after < 0 else p.blocks_after,
        ]
        for p in profile
    ]
    text = format_table(_PROFILE_HEADERS, rows, title=title)
    for p in profile:
        if p.sched_blocks >= 0:
            text += (
                f"\nscheduler: {p.sched_blocks}/{p.blocks_after} blocks "
                f"scheduled, {p.sched_instrs} instructions, "
                f"{p.seconds * 1e3:.1f} ms"
            )
    return text


@dataclass(slots=True)
class BenchmarkReport:
    """Everything observed about one benchmark in one run."""

    benchmark: str
    checksum_ok: bool
    instructions: int
    #: per-pass compile profile; empty when this run compiled nothing
    profile: list[PassStat]
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
    #: the engine's cell results in plan order, each with its
    #: supervision ``status`` (ok / retried / degraded / failed)
    cells: list

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
                    "compile_seconds": profile_seconds(br.profile),
                    "passes": [s.as_dict() for s in br.profile],
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
            compiled = (f"compiled in {profile_seconds(br.profile) * 1e3:.1f}"
                        " ms" if br.profile else "no compile in this run")
            parts.append(
                f"### {br.benchmark}\n\n"
                f"{br.instructions} dynamic instructions, "
                f"checksum {checksum}, {compiled}"
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
    recorder: Recorder, benchmark: str, profile: list[PassStat]
) -> None:
    """Emit one ``compile_pass`` event per pass plus a ``compile`` roll-up."""
    for stat in profile:
        recorder.emit("compile_pass", benchmark=benchmark,
                      **stat.as_dict())
    recorder.emit(
        "compile",
        benchmark=benchmark,
        seconds=profile_seconds(profile),
        n_passes=len(profile),
        sched=_sched_counts(profile),
    )


def build_suite_report(
    benchmarks: list | None = None,
    machines: list[MachineConfig] | None = None,
    recorder: Recorder | None = None,
    run_id: str = "suite",
    workers: int = 1,
    tracer: Tracer | None = None,
) -> RunReport:
    """Observe the whole suite (or a subset) and return the run report.

    The run is ``plan_sweep(benchmarks, machines, observe=True)``
    executed by :func:`repro.engine.executor.execute` with no disk
    cache.  ``workers>1`` fans compile groups across the engine's
    supervised pool: a crashed or hung worker costs retries, not the
    report, and each cell carries its supervision status
    (:attr:`RunReport.cells`).  Each benchmark's compile profile is
    read off the ``pass.*`` spans under its ``compile.run`` span
    (:func:`~repro.obs.profile.compile_passes`).

    Every call compiles every benchmark.  A benchmark reports "no
    compile in this run" and an empty profile only when its group
    failed before compiling.

    Events go through ``recorder`` in suite order once the engine has
    finished: per benchmark its ``compile_pass``/``compile`` events and
    one ``timing`` event per measured machine, then the run's ``span``
    events and ``run_end``.  ``tracer`` collects the span timeline; a
    private :class:`~repro.obs.trace.Tracer` is used when it is
    ``None`` or disabled, since the compile profiles are read off it.
    """
    from ..benchmarks import suite
    from ..engine.executor import execute
    from ..engine.plan import plan_sweep

    rec = active_recorder(recorder)
    tr = tracer if tracer is not None and tracer.enabled else Tracer()
    configs = (list(machines) if machines is not None
               else default_report_machines())
    benchs = benchmarks if benchmarks is not None else suite.all_benchmarks()
    names = [b if isinstance(b, str) else b.name for b in benchs]
    rec.emit("run_start", schema=SCHEMA_VERSION, run_id=run_id,
             machines=[c.name for c in configs],
             stall_causes=list(STALL_CAUSES))
    first_span = len(tr.spans)
    with tr.span("report.run", cat="report", run_id=run_id,
                 benchmarks=len(names)) as run_span:
        result = execute(plan_sweep(names, configs, observe=True),
                         workers=workers, tracer=tr)
    seconds = run_span.dur_ns / 1e9

    spans = tr.spans[first_span:]
    # A retried group may compile more than once; the last one counts.
    compiles = {s.args.get("benchmark"): s for s in spans
                if s.name == "compile.run"}
    reports = []
    for name in names:
        cells = [c for c in result.cells
                 if c.benchmark == name and c.status != "failed"]
        compile_span = compiles.get(name)
        profile = (compile_passes(spans, compile_span)
                   if compile_span is not None else [])
        report = BenchmarkReport(
            benchmark=name,
            checksum_ok=bool(cells) and cells[0].checksum_ok,
            instructions=cells[0].instructions if cells else 0,
            profile=profile,
            timings=[c.to_timing() for c in cells],
        )
        emit_compile_events(rec, name, profile)
        for timing in report.timings:
            rec.emit("timing", benchmark=name, **timing.as_dict())
            rec.incr("timings")
        rec.incr("benchmarks")
        reports.append(report)
    emit_span_events(rec, tr)
    rec.emit("run_end", seconds=seconds, counters=dict(rec.counters))
    return RunReport(run_id=run_id, seconds=seconds, benchmarks=reports,
                     cells=result.cells)
