"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run <file.tin>``
    Compile and execute a Tin source file; print its result.
``measure <file.tin | benchmarks>``
    Compile, execute and report ILP across standard machines
    (``--profile`` adds pass-level compile stats and stall attribution).
    Given suite benchmark names instead of a file, the grid runs through
    the execution engine (``--workers``, ``--machines``).
``suite``
    Run the eight-benchmark suite and print the ILP summary.  With
    ``--flow`` the run executes as a checkpointed workflow DAG: every
    compile and simulation cell is journaled under a run id (printed at
    the end) so a killed run can be continued with ``resume``.
``resume <run-id>``
    Resume a killed ``suite --flow`` run from its journal: nodes with a
    valid checkpoint are restored, everything else re-executes, and the
    final report is bit-identical to an uninterrupted run.
``report``
    Observe the suite end to end through the engine: per-pass compile
    profile, per-machine stall breakdown, and a machine-readable JSONL
    run report.
``exhibit <ident> [...]``
    Regenerate paper exhibits (``exhibit list`` to enumerate).
``gap``
    Measure the scheduling gap — ``cycles(list) - cycles(exact)`` per
    grid cell — across scheduler backends (``--schedulers``), with the
    fraction of cells where the heuristic is already optimal.
``trace <run.jsonl>``
    Self-profile a JSONL run report's span events: an aggregated
    time-per-phase tree, cache/memo hit rates and retry counts, plus
    optional Chrome trace-event export (``--chrome``) for Perfetto.
``ingest <report.jsonl> [...]``
    Ingest JSONL run reports into the run-history ledger
    (``results/history.sqlite`` by default; content-addressed, so
    re-ingesting the same run is a no-op).
``diff <A> <B>``
    Per-cell, per-metric regression diff between two run reports or
    ledger entries (``latest``, ``latest~1``, an id, or a fingerprint
    prefix).  Exits nonzero iff a gated metric regressed.  Throughput
    is not a ledger metric: ``bench/run.py`` measures it and
    ``BENCHMARK.json`` declares its bounds (the one bench document).
``dash``
    Render the whole ledger as one self-contained static HTML
    dashboard (no network, no external assets).

The ``measure``/``suite``/``report``/``exhibit``/``gap`` commands
submit their work through :mod:`repro.engine`; each registers only the
engine flags it honours.  ``--workers N`` fans compilation across a
process pool; a content-addressed trace cache under ``--cache-dir``
(default ``.repro-cache``; disable with ``--no-cache``) skips
recompilation across runs and processes (a report always compiles
fresh); ``--scheduler NAME`` compiles everything through one scheduler
backend (see :mod:`repro.sched.registry`; default ``list``);
``--trace-out PATH`` writes the run's merged span timeline as a
Perfetto-loadable Chrome trace JSON; ``--live`` and
``--sample-resources`` (``measure``/``suite``) paint a progress line on
stderr and record per-process RSS/CPU telemetry.
Machine sets are preset names resolved by
:func:`repro.machine.presets.resolve`, with ``paper`` expanding to the
paper's seven standard machines.
"""

from __future__ import annotations

import argparse
import os
import sys

from .analysis.tables import format_table
from .engine.cache import DEFAULT_CACHE_DIR, TraceCache, open_cache
from .machine.config import MachineConfig
from .machine.presets import ideal_superscalar, paper_machines, resolve
from .opt.options import CompilerOptions, OptLevel
from .sim.interp import run as interp_run
from .sim.timing import simulate


#: The engine knobs: flag -> ``add_argument`` keywords.  Each command
#: registers only the ones it honours (see :func:`_add_engine_flags`).
_ENGINE_FLAGS = {
    "--workers": dict(
        type=int, default=1, metavar="N",
        help="worker processes for the execution engine (default 1: "
             "serial, bit-identical results either way)",
    ),
    "--cache-dir": dict(
        metavar="DIR", default=DEFAULT_CACHE_DIR,
        help="content-addressed trace cache directory "
             f"(default: {DEFAULT_CACHE_DIR!r}; $REPRO_CACHE_DIR overrides)",
    ),
    "--no-cache": dict(
        action="store_true",
        help="disable the on-disk trace cache for this run",
    ),
    "--retries": dict(
        type=int, default=None, metavar="N",
        help="attempts per compile group before degrading to serial "
             "(default 3)",
    ),
    "--group-timeout": dict(
        type=float, default=None, metavar="SEC",
        help="wall-clock budget per compile group in a worker before it "
             "counts as hung (default 300; 0 disables)",
    ),
    "--faults": dict(
        metavar="SPEC", default=None,
        help="deterministic fault-injection plan, e.g. "
             "'crash@whet#1,hang@linpack' (default: $REPRO_FAULTS)",
    ),
    "--trace-out": dict(
        metavar="PATH", default=None,
        help="write the run's span timeline as Chrome trace-event JSON "
             "(load at ui.perfetto.dev)",
    ),
    "--live": dict(
        action="store_true",
        help="show a live progress line (cells done, status counts, "
             "instantaneous instr/s) on stderr",
    ),
    "--sample-resources": dict(
        action="store_true",
        help="record per-process RSS/CPU telemetry (metrics gauges plus "
             "'resource' report events; off by default because gauge "
             "values are wall-clock-dependent)",
    ),
    "--scheduler": dict(
        metavar="NAME", default=None,
        help="scheduler backend for every compilation this run "
             "(list, swp, exact, ...; 'repro gap' compares them; "
             "default: list)",
    ),
}


def _add_engine_flags(parser: argparse.ArgumentParser,
                      flags=tuple(_ENGINE_FLAGS)) -> None:
    """Register the engine ``flags`` a command honours (default: all)."""
    for flag in flags:
        parser.add_argument(flag, **_ENGINE_FLAGS[flag])


def _add_ledger_flag(parser: argparse.ArgumentParser) -> None:
    from .obs.history import DEFAULT_LEDGER_PATH, LEDGER_ENV

    parser.add_argument(
        "--ledger", metavar="PATH", default=None,
        help="run-history ledger database (default: "
             f"${LEDGER_ENV} or {DEFAULT_LEDGER_PATH!r})",
    )


def _add_machines_flag(parser: argparse.ArgumentParser,
                       default_help: str) -> None:
    parser.add_argument(
        "--machines", nargs="+", metavar="SPEC", default=None,
        help="machine presets to measure on, space- or comma-separated "
             "names like superscalar:4 or multititan "
             f"('paper' = the paper's seven; default: {default_help})",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Jouppi & Wall (ASPLOS 1989) ILP measurement system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="compile and execute a Tin file")
    p_run.add_argument("file")
    p_run.add_argument(
        "-O", dest="opt", type=int, default=4, choices=range(5),
        help="optimization level (0..4, default 4)",
    )

    p_measure = sub.add_parser(
        "measure",
        help="measure a Tin file's (or suite benchmarks') ILP",
    )
    p_measure.add_argument(
        "target",
        help="a .tin source file, or suite benchmark names "
             "(comma/space separated, e.g. 'linpack,whet')",
    )
    p_measure.add_argument("-O", dest="opt", type=int, default=4,
                           choices=range(5))
    p_measure.add_argument("--unroll", type=int, default=1)
    p_measure.add_argument("--careful", action="store_true")
    p_measure.add_argument(
        "--profile", action="store_true",
        help="collect pass-level compile stats and stall attribution",
    )
    p_measure.add_argument(
        "--report", metavar="PATH", default=None,
        help="also write the observed run as a JSONL report",
    )
    _add_machines_flag(p_measure, "the paper's seven machines")
    _add_engine_flags(p_measure)

    p_suite = sub.add_parser("suite", help="run the eight-benchmark suite")
    p_suite.add_argument(
        "--profile", action="store_true",
        help="add per-benchmark stall attribution on the 64-wide machine",
    )
    p_suite.add_argument(
        "--report", metavar="PATH", default=None,
        help="also write the observed run as a JSONL report",
    )
    p_suite.add_argument(
        "--benchmarks", nargs="+", metavar="NAME", default=None,
        help="subset of benchmarks, space- or comma-separated "
             "(default: the whole suite)",
    )
    p_suite.add_argument(
        "--flow", action="store_true",
        help="run as a checkpointed workflow DAG: every compile and "
             "cell is journaled under a run id and 'repro resume' can "
             "continue a killed run bit-identically (requires the "
             "trace cache)",
    )
    p_suite.add_argument(
        "--run-id", metavar="ID", default=None,
        help="flow run id to journal under (default: generated; "
             "reusing an existing id resumes it)",
    )
    _add_machines_flag(p_suite, "the ideal 64-wide superscalar")
    _add_engine_flags(p_suite)

    p_resume = sub.add_parser(
        "resume",
        help="resume a killed 'suite --flow' run from its journal",
    )
    p_resume.add_argument(
        "run_id",
        help="flow run id to resume (see <cache-dir>/flow/runs/)",
    )
    p_resume.add_argument(
        "--report", metavar="PATH", default=None,
        help="also write the resumed run as a JSONL report",
    )
    p_resume.add_argument(
        "--cache-dir", metavar="DIR", default=DEFAULT_CACHE_DIR,
        help="cache directory holding the flow state and journal "
             f"(default: {DEFAULT_CACHE_DIR!r})",
    )
    p_resume.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for the re-executed nodes (default 1)",
    )

    p_report = sub.add_parser(
        "report",
        help="observe the suite: compile profiles, stall breakdowns, JSONL",
    )
    p_report.add_argument(
        "-o", "--output", metavar="PATH",
        default="results/run_report.jsonl",
        help="JSONL run-report path (default: results/run_report.jsonl)",
    )
    p_report.add_argument(
        "--benchmarks", nargs="+", metavar="NAME", default=None,
        help="subset of benchmarks, space- or comma-separated "
             "(default: the whole suite)",
    )
    p_report.add_argument(
        "--quiet", action="store_true",
        help="write the JSONL report without rendering tables",
    )
    p_report.add_argument(
        "--format", choices=("text", "json", "markdown"), default="text",
        help="stdout rendering: human tables (text, the default), one "
             "JSON document, or GitHub-flavored markdown",
    )
    _add_machines_flag(p_report, "the paper's seven machines")
    # No cache, retry, fault, live or sampling knobs: the report always
    # compiles fresh and runs under the engine's default supervision.
    _add_engine_flags(p_report, ("--workers", "--trace-out", "--scheduler"))

    p_report.add_argument(
        "--input", metavar="PATH", default=None,
        help="summarize an existing JSONL run report instead of "
             "running the suite (tolerates truncated reports)",
    )

    p_ex = sub.add_parser("exhibit", help="regenerate paper exhibits")
    p_ex.add_argument("idents", nargs="+",
                      help="exhibit ids, or 'list' / 'all'")
    _add_engine_flags(p_ex, ("--workers", "--cache-dir", "--no-cache",
                             "--scheduler"))

    # No abbreviations: a stray --scheduler must not pass as --schedulers.
    p_gap = sub.add_parser(
        "gap",
        help="measure the list-vs-exact scheduling gap over the grid",
        allow_abbrev=False,
    )
    p_gap.add_argument(
        "--benchmarks", nargs="+", metavar="NAME", default=None,
        help="subset of benchmarks, space- or comma-separated "
             "(default: the whole suite)",
    )
    p_gap.add_argument(
        "--schedulers", nargs="+", metavar="NAME",
        default=None,
        help="backends to compare, baseline first "
             "(default: list swp exact)",
    )
    p_gap.add_argument(
        "--json", action="store_true",
        help="emit the gap report as one JSON document",
    )
    _add_machines_flag(p_gap, "the paper's seven machines")
    # Each gap run pins its own scheduler backend.
    _add_engine_flags(p_gap, ("--workers", "--cache-dir", "--no-cache",
                              "--retries", "--group-timeout"))

    p_trace = sub.add_parser(
        "trace",
        help="self-profile a JSONL run report's span events",
    )
    p_trace.add_argument("input", help="run report (JSONL) to profile")
    p_trace.add_argument(
        "--chrome", metavar="PATH", default=None,
        help="also export the spans as Chrome trace-event JSON "
             "(load at ui.perfetto.dev)",
    )

    p_ingest = sub.add_parser(
        "ingest",
        help="ingest run reports into the ledger",
    )
    p_ingest.add_argument(
        "inputs", nargs="+", metavar="PATH",
        help="JSONL run reports (.jsonl)",
    )
    _add_ledger_flag(p_ingest)

    p_diff = sub.add_parser(
        "diff",
        help="regression-diff two runs (files or ledger references)",
    )
    p_diff.add_argument(
        "a", help="baseline: a .jsonl run report or a ledger reference "
                  "(id, 'latest', 'latest~N', fingerprint prefix)")
    p_diff.add_argument("b", help="candidate (same forms as the baseline)")
    _add_ledger_flag(p_diff)
    p_diff.add_argument(
        "--seconds-tolerance", type=float, default=None, metavar="FRAC",
        help="relative band inside which wall-clock changes are ignored "
             "(default 0.25)",
    )
    p_diff.add_argument(
        "--warn-only", action="store_true",
        help="report every finding but always exit 0 (CI cold-cache "
             "configurations)",
    )
    p_diff.add_argument(
        "--json", action="store_true",
        help="emit the findings as one JSON document instead of text",
    )

    p_dash = sub.add_parser(
        "dash",
        help="render the ledger as a self-contained HTML dashboard",
    )
    _add_ledger_flag(p_dash)
    p_dash.add_argument(
        "--out", metavar="PATH", default="results/dash.html",
        help="output HTML file (default: results/dash.html)",
    )
    p_dash.add_argument(
        "--title", default="repro run history",
        help="dashboard page title",
    )
    return parser


def _resolve_machines(
    specs: list[str] | None, default: list[MachineConfig]
) -> list[MachineConfig]:
    """Resolve a --machines argument (None = the command's default)."""
    if specs is None:
        return default
    names = [name for spec in specs
             for name in spec.replace(",", " ").split()]
    configs: list[MachineConfig] = []
    for name in names:
        if name.lower() == "paper":
            configs.extend(paper_machines())
        else:
            configs.append(resolve(name))
    return configs or default


def _parse_benchmarks(tokens: list[str] | None) -> list[str] | None:
    """Validate a --benchmarks argument; exits with code 2 when unknown."""
    from .benchmarks.suite import parse_benchmark_list

    try:
        return parse_benchmark_list(tokens)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        raise SystemExit(2)


def _engine_cache(args) -> TraceCache:
    return open_cache(getattr(args, "cache_dir", None),
                      getattr(args, "no_cache", False))


def _engine_policy(args):
    """A RetryPolicy from --retries/--group-timeout (None = defaults)."""
    from .engine.resilience import RetryPolicy

    retries = getattr(args, "retries", None)
    timeout = getattr(args, "group_timeout", None)
    if retries is None and timeout is None:
        return None
    policy = RetryPolicy()
    kwargs = {}
    if retries is not None:
        kwargs["max_attempts"] = retries
    if timeout is not None:
        kwargs["group_timeout"] = timeout if timeout > 0 else None
    import dataclasses

    return dataclasses.replace(policy, **kwargs)


def _engine_faults(args):
    """A FaultPlan from --faults (None = $REPRO_FAULTS via the engine)."""
    from .engine.faults import FaultPlan

    spec = getattr(args, "faults", None)
    if spec is None:
        return None
    try:
        return FaultPlan.parse(spec)
    except ValueError as exc:
        print(f"--faults: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _report_failures(items) -> int:
    """Print the one-line failure manifest; returns the exit code."""
    from .engine.resilience import failure_manifest

    manifest = failure_manifest(items)
    if manifest is None:
        return 0
    print(manifest, file=sys.stderr)
    return 1


def _compile_file(path: str, args, tracer=None) -> tuple:
    from .obs.trace import active_tracer
    from .opt.driver import compile_source

    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    options = CompilerOptions(
        opt_level=OptLevel(args.opt),
        unroll=getattr(args, "unroll", 1),
        careful=getattr(args, "careful", False),
    )
    program = compile_source(source, options, active_tracer(tracer))
    return program, interp_run(program)


def _open_recorder(path: str | None):
    """A JSONL recorder at ``path``, or the shared no-op sink."""
    from .obs.recorder import NULL_RECORDER, JsonlRecorder

    if path is None:
        return NULL_RECORDER
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return JsonlRecorder(path)


def _engine_tracer(args):
    """A Tracer when --trace-out asks for one (else None: the engine
    auto-enables its own iff a recorder is active)."""
    if getattr(args, "trace_out", None) is None:
        return None
    from .obs.trace import Tracer

    return Tracer()


def _write_trace(args, tracer) -> None:
    """Write --trace-out's Chrome trace JSON, when requested."""
    path = getattr(args, "trace_out", None)
    if path is None or tracer is None:
        return
    from .obs.trace import write_chrome_trace

    write_chrome_trace(path, tracer.spans)
    print(f"Chrome trace written to {path} (load at ui.perfetto.dev)")


def _nullcontext():
    from contextlib import nullcontext

    return nullcontext()


def _progress_line(args, total_cells: int):
    """(ProgressLine, engine progress callback), or (None, None)."""
    if not getattr(args, "live", False):
        return None, None
    from .obs.live import ProgressLine

    line = ProgressLine(total_cells)

    def callback(key, outcome, n_cells):
        del key
        instructions = 0
        if outcome.results:
            instructions = sum(
                cell.instructions for _, cell in outcome.results
            )
        line.update(n_cells, outcome.status, instructions)

    return line, callback


def _cmd_run(args) -> int:
    _program, result = _compile_file(args.file, args)
    print(f"result: {result.value}")
    print(f"dynamic instructions: {result.instructions}")
    return 0


def _measure_benchmarks(args) -> int:
    """`repro measure linpack,whet`: suite benchmarks through the engine."""
    from .analysis.sweep import summarize, sweep
    from .obs.schema import SCHEMA_VERSION
    from .obs.report import render_stall_table

    benchmarks = _parse_benchmarks([args.target])
    assert benchmarks is not None
    machines = _resolve_machines(args.machines, paper_machines())
    observe = args.profile
    options = None
    if (args.opt, args.unroll, args.careful) != (4, 1, False):
        options = CompilerOptions(
            opt_level=OptLevel(args.opt),
            unroll=args.unroll,
            careful=args.careful,
        )
    tracer = _engine_tracer(args)
    line, progress = _progress_line(
        args, total_cells=len(benchmarks) * len(machines))
    with _open_recorder(args.report) as recorder:
        if recorder.enabled:
            recorder.emit("run_start", schema=SCHEMA_VERSION,
                          run_id=f"measure:{','.join(benchmarks)}",
                          machines=[c.name for c in machines])
        # The progress line's context manager clears a painted line on
        # exception (so tracebacks don't land mid-line) and paints the
        # final summary on clean exit.
        with line if line is not None else _nullcontext():
            rows = sweep(
                benchmarks, machines, options=options, observe=observe,
                recorder=recorder, workers=args.workers,
                cache=_engine_cache(args),
                policy=_engine_policy(args), faults=_engine_faults(args),
                tracer=tracer, progress=progress,
                sample_resources=args.sample_resources,
            )
        print(summarize(rows))
        if observe:
            by_bench: dict[str, list] = {}
            for row in rows:
                if row.status != "failed":
                    by_bench.setdefault(row.benchmark, []).append(row)
            for bench, bench_rows in by_bench.items():
                print()
                print(render_stall_table(
                    [_row_timing(r) for r in bench_rows],
                    title=f"{bench}: stall attribution (minor cycles)",
                ))
        if recorder.enabled:
            recorder.emit("run_end", seconds=0.0,
                          counters=dict(recorder.counters))
    _write_trace(args, tracer)
    if args.report is not None:
        print(f"\nJSONL report written to {args.report}")
    return _report_failures(rows)


def _row_timing(row):
    """A SweepRow's equivalent TimingResult (for the stall tables)."""
    from .sim.timing import TimingResult

    minor = (row.stalls.minor_cycles if row.stalls is not None
             else round(row.base_cycles))
    return TimingResult(
        config_name=row.machine,
        instructions=row.instructions,
        minor_cycles=minor,
        base_cycles=row.base_cycles,
        stalls=row.stalls,
    )


def _cmd_measure(args) -> int:
    if not os.path.exists(args.target):
        try:
            benchmarks = _parse_benchmarks([args.target])
        except SystemExit:
            print(f"measure: {args.target!r} is neither a file nor a "
                  "benchmark list", file=sys.stderr)
            return 2
        if benchmarks:
            return _measure_benchmarks(args)

    machines = _resolve_machines(args.machines, paper_machines())
    if not args.profile and args.report is None:
        _program, result = _compile_file(args.target, args)
        print(f"result: {result.value}   "
              f"dynamic instructions: {result.instructions}")
        rows = []
        for config in machines:
            timing = simulate(result.trace, config)
            rows.append([timing.config_name, timing.base_cycles,
                         timing.parallelism])
        print(format_table(["machine", "base cycles", "instr/cycle"], rows))
        return 0

    from .obs.profile import compile_passes
    from .obs.schema import SCHEMA_VERSION
    from .obs.report import (
        emit_compile_events,
        profile_seconds,
        render_profile_table,
        render_stall_table,
    )
    from .obs.trace import Tracer

    tracer = Tracer()
    with _open_recorder(args.report) as recorder:
        recorder.emit("run_start", schema=SCHEMA_VERSION,
                      run_id=args.target)
        with tracer.span("compile.run", cat="compile",
                         benchmark=args.target) as compile_span:
            _program, result = _compile_file(args.target, args, tracer)
        profile = compile_passes(tracer.spans, compile_span)
        emit_compile_events(recorder, args.target, profile)
        print(f"result: {result.value}   "
              f"dynamic instructions: {result.instructions}")
        print()
        print(render_profile_table(profile, title="compile profile"))
        timings = []
        for config in machines:
            timing = simulate(result.trace, config, observe=True)
            timings.append(timing)
            recorder.emit("timing", benchmark=args.target,
                          **timing.as_dict())
        print()
        print(render_stall_table(
            timings, title="stall attribution (minor cycles)"
        ))
        recorder.emit("run_end", seconds=profile_seconds(profile),
                      counters=dict(recorder.counters))
    if args.report is not None:
        print(f"\nJSONL report written to {args.report}")
    return 0


def _cmd_suite(args) -> int:
    from .benchmarks import suite as bench_suite

    profile = getattr(args, "profile", False)
    benchmarks = _parse_benchmarks(getattr(args, "benchmarks", None))
    bench_names = benchmarks or [
        b.name for b in bench_suite.all_benchmarks()
    ]
    machines = _resolve_machines(
        getattr(args, "machines", None), [ideal_superscalar(64)]
    )
    return _run_suite(args, bench_names, machines, profile=profile,
                      use_flow=getattr(args, "flow", False),
                      run_id=getattr(args, "run_id", None))


def _cmd_resume(args) -> int:
    """Resume a killed ``suite --flow`` run from its journal."""
    from .flow import FlowError, JournalError, journal_path, read_journal

    cache_root = args.cache_dir
    try:
        events = read_journal(journal_path(cache_root, args.run_id))
    except JournalError as exc:
        print(f"resume: {exc}", file=sys.stderr)
        return 2
    start = events[0]
    flow_info = start.get("flow") or {}
    spec = flow_info.get("spec") or {}
    if flow_info.get("kind") != "sweep" or spec.get("driver") != "suite":
        print(f"resume: run {args.run_id!r} was not started by "
              "'repro suite --flow'; only suite runs are resumable",
              file=sys.stderr)
        return 2
    try:
        bench_names = list(spec["benchmarks"])
        machines = [resolve(name) for name in spec["machines"]]
        profile = bool(spec.get("profile", False))
    except (KeyError, TypeError, ValueError) as exc:
        print(f"resume: malformed flow spec in journal: {exc}",
              file=sys.stderr)
        return 2
    scheduler = spec.get("scheduler")
    from .sched import registry as sched_registry

    previous = None
    if scheduler is not None:
        try:
            previous = sched_registry.set_default(scheduler)
        except Exception as exc:
            print(f"resume: {exc}", file=sys.stderr)
            return 2
    try:
        return _run_suite(args, bench_names, machines, profile=profile,
                          use_flow=True, run_id=args.run_id,
                          observe=spec.get("observe"))
    except FlowError as exc:
        print(f"resume: {exc}", file=sys.stderr)
        return 2
    finally:
        if previous is not None:
            sched_registry.set_default(previous)


def _run_suite(args, bench_names, machines, *, profile, use_flow,
               run_id, observe=None) -> int:
    from .engine.executor import execute
    from .engine.plan import plan_sweep
    from .analysis.sweep import summarize
    from .obs.report import render_stall_table

    single_machine = len(machines) == 1
    if use_flow:
        unsupported = [flag for flag, attr in (
            ("--sample-resources", "sample_resources"), ("--live", "live"),
        ) if getattr(args, attr, False)]
        if unsupported:
            print(f"suite: --flow does not support "
                  f"{' or '.join(unsupported)}", file=sys.stderr)
            return 2

    with _open_recorder(getattr(args, "report", None)) as recorder:
        if recorder.enabled:
            from .obs.schema import SCHEMA_VERSION

            recorder.emit("run_start", schema=SCHEMA_VERSION,
                          run_id="suite",
                          machines=[c.name for c in machines])
        if observe is None:
            observe = profile or recorder.enabled
        plan = plan_sweep(bench_names, machines, observe=observe)
        tracer = _engine_tracer(args)
        flow_result = None
        if use_flow:
            from .flow import FlowError, run_sweep_flow

            cache = _engine_cache(args)
            if not cache.enabled:
                print("suite: --flow requires the trace cache "
                      "(drop --no-cache)", file=sys.stderr)
                return 2
            flow_spec = {
                "driver": "suite",
                "benchmarks": list(bench_names),
                "machines": [c.name for c in machines],
                "observe": bool(observe),
                "profile": bool(profile),
                "scheduler": getattr(args, "scheduler", None),
            }
            try:
                result, flow_result = run_sweep_flow(
                    plan, cache=cache,
                    workers=getattr(args, "workers", 1),
                    run_id=run_id, flow_spec=flow_spec,
                    policy=_engine_policy(args),
                    faults=_engine_faults(args),
                    recorder=recorder, tracer=tracer,
                )
            except FlowError as exc:
                print(f"suite: {exc}", file=sys.stderr)
                return 2
        else:
            line, progress = _progress_line(args,
                                            total_cells=len(plan.cells))
            with line if line is not None else _nullcontext():
                result = execute(
                    plan,
                    workers=getattr(args, "workers", 1),
                    cache=_engine_cache(args),
                    recorder=recorder,
                    policy=_engine_policy(args),
                    faults=_engine_faults(args),
                    tracer=tracer,
                    progress=progress,
                    sample_resources=getattr(args, "sample_resources",
                                             False),
                )
        if recorder.enabled:
            for cell in result.cells:
                if cell.status != "failed":
                    recorder.emit("timing", benchmark=cell.benchmark,
                                  **cell.to_timing().as_dict())

        if single_machine:
            headers = ["benchmark", "dyn. instructions", "checksum",
                       "available ILP"]
            if profile:
                headers += ["raw_dep", "memory_order", "unit_conflict",
                            "issue_width"]
            rows = []
            for cell in result.cells:
                if cell.status == "failed":
                    row = [cell.benchmark, "-", "FAILED", "-"]
                    if profile:
                        row += ["-"] * 4
                    rows.append(row)
                    continue
                row = [cell.benchmark, cell.instructions,
                       "ok" if cell.checksum_ok else "MISMATCH",
                       cell.parallelism]
                if profile:
                    s = cell.stalls
                    row += [s.raw_dep, s.memory_order, s.unit_conflict,
                            s.issue_width]
                rows.append(row)
            print(format_table(headers, rows))
        else:
            from .analysis.sweep import SweepRow

            sweep_rows = [
                SweepRow(
                    benchmark=c.benchmark, options_label=c.options_label,
                    machine=c.machine, instructions=c.instructions,
                    base_cycles=c.base_cycles, parallelism=c.parallelism,
                    stalls=c.stalls,
                )
                for c in result.cells
            ]
            print(summarize(sweep_rows))
            bad = sorted({c.benchmark for c in result.cells
                          if not c.checksum_ok and c.status != "failed"})
            print("checksums:",
                  "all ok" if not bad else f"MISMATCH in {', '.join(bad)}")
            if profile:
                for bench in bench_names:
                    cells = [c for c in result.cells
                             if c.benchmark == bench
                             and c.status != "failed"]
                    if not cells:
                        continue
                    print()
                    print(render_stall_table(
                        [c.to_timing() for c in cells],
                        title=f"{bench}: stall attribution (minor cycles)",
                    ))
        assert result.report is not None
        print(result.report.summary())
        if flow_result is not None:
            print(flow_result.summary())
        if recorder.enabled:
            recorder.emit("run_end", seconds=result.report.seconds,
                          counters=dict(recorder.counters))
    _write_trace(args, tracer)
    return _report_failures(result.cells)


def _cmd_report(args) -> int:
    from .obs.report import build_suite_report, default_report_machines

    if args.input is not None:
        return _summarize_report(args.input)

    benchmarks = _parse_benchmarks(args.benchmarks)
    machines = _resolve_machines(args.machines, default_report_machines())
    tracer = _engine_tracer(args)
    with _open_recorder(args.output) as recorder:
        report = build_suite_report(
            benchmarks=benchmarks,
            machines=machines,
            recorder=recorder,
            workers=args.workers,
            tracer=tracer,
        )
    _write_trace(args, tracer)
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        import json

        print(json.dumps(report.as_dict(), indent=2, sort_keys=True,
                         default=str))
    elif fmt == "markdown":
        print(report.render_markdown())
    elif not args.quiet:
        print(report.render())
        print()
    ok = report.conservation_holds()
    status = (f"JSONL report written to {args.output} "
              f"(conservation law: {'holds' if ok else 'VIOLATED'})")
    # JSON mode keeps stdout machine-parseable; the status goes to stderr.
    print(status, file=sys.stderr if fmt == "json" else sys.stdout)
    failed = _report_failures(report.cells)
    return 0 if ok and not failed else 1


def _load_report_events(path: str, command: str):
    """Tolerantly load a JSONL report for a read-side CLI command.

    Returns ``(events, skipped)``; on an unreadable or empty report
    prints one clear line instead of a stack trace and returns
    ``(None, 0)``.
    """
    from .obs.recorder import read_jsonl_tolerant

    try:
        events, skipped = read_jsonl_tolerant(path)
    except OSError as exc:
        print(f"{command}: cannot read {path}: {exc.strerror or exc}",
              file=sys.stderr)
        return None, 0
    if skipped:
        print(f"{command}: warning: skipped {skipped} malformed "
              f"line(s) in {path} (truncated report?)", file=sys.stderr)
    if not events:
        print(f"{command}: {path}: no valid events "
              "(empty or fully truncated report)", file=sys.stderr)
        return None, skipped
    return events, skipped


def _summarize_report(path: str) -> int:
    """``repro report --input``: summarize an existing JSONL report."""
    events, _skipped = _load_report_events(path, "report")
    if events is None:
        return 1
    counts: dict[str, int] = {}
    for event in events:
        name = event.get("event", "?")
        counts[name] = counts.get(name, 0) + 1
    run_start = next((e for e in events if e.get("event") == "run_start"),
                     None)
    run_id = run_start.get("run_id", "?") if run_start else "?"
    print(f"run report {path} (run_id: {run_id})")
    rows = [[name, counts[name]] for name in sorted(counts)]
    print(format_table(["event", "count"], rows))
    if "run_end" not in counts:
        print("note: no run_end event — the run did not finish cleanly")
    return 0


def _render_metrics_summary(events: list[dict]) -> str:
    """Cache/memo hit rates and retry counts from a report's events."""
    lines = []

    def rate(hits: float, total: float) -> str:
        return f"{hits / total:.0%}" if total else "n/a"

    metrics = [e for e in events if e.get("event") == "metrics"]
    if metrics:
        counters = metrics[-1].get("counters", {})
        gets = counters.get("cache.gets", 0)
        if gets:
            lines.append(
                f"trace cache: {gets:.0f} gets, "
                f"{counters.get('cache.hits', 0):.0f} hits / "
                f"{counters.get('cache.misses', 0):.0f} misses / "
                f"{counters.get('cache.corrupt', 0):.0f} corrupt-drops "
                f"({rate(counters.get('cache.hits', 0), gets)} hit rate)"
            )
        memo_gets = counters.get("cache.memo_gets", 0)
        if memo_gets:
            lines.append(
                f"memo store: {memo_gets:.0f} gets, "
                f"{counters.get('cache.memo_hits', 0):.0f} hits / "
                f"{counters.get('cache.memo_misses', 0):.0f} misses / "
                f"{counters.get('cache.memo_corrupt', 0):.0f} "
                f"corrupt-drops, "
                f"{counters.get('cache.memo_stores', 0):.0f} stores "
                f"({rate(counters.get('cache.memo_hits', 0), memo_gets)} "
                "hit rate)"
            )
        memo = (counters.get("replay.memo_hits", 0)
                + counters.get("replay.memo_misses", 0))
        if memo:
            lines.append(
                f"replay memo: "
                f"{counters.get('replay.memo_hits', 0):.0f} hits / "
                f"{counters.get('replay.memo_misses', 0):.0f} misses / "
                f"{counters.get('replay.fallbacks', 0):.0f} fallbacks "
                f"({rate(counters.get('replay.memo_hits', 0), memo)} "
                "hit rate)"
            )
            persisted = counters.get("replay.memo_persisted_hits", 0)
            if persisted:
                lines[-1] += f", {persisted:.0f} hits from persisted tables"
        blocks = counters.get("replay.blocks", 0)
        vec = counters.get("replay.vectorized_blocks", 0)
        fallback = counters.get("replay.scalar_fallback_blocks", 0)
        if vec or fallback:
            lines.append(
                f"vectorized replay: {vec:.0f}/{blocks:.0f} blocks "
                f"({rate(vec, blocks)}), "
                f"{fallback:.0f} scalar-fallback blocks"
            )
    engine = next((e for e in reversed(events)
                   if e.get("event") == "engine"), None)
    if engine is not None and engine.get("replay_backend"):
        lines.append(f"replay backend: {engine['replay_backend']}")
        retries = counters.get("engine.group_retries", 0)
        restarts = counters.get("engine.pool_restarts", 0)
        degraded = counters.get("engine.cells.degraded", 0)
        failed = counters.get("engine.cells.failed", 0)
        if retries or restarts or degraded or failed:
            lines.append(
                f"resilience: {retries:.0f} group retries, "
                f"{restarts:.0f} pool restarts, {degraded:.0f} degraded "
                f"/ {failed:.0f} failed cells"
            )
    return "\n".join(lines)


def _cmd_gap(args) -> int:
    """``repro gap``: heuristic-vs-optimal scheduling gap per cell."""
    from .analysis.gap import DEFAULT_SCHEDULERS, compute_gap
    from .sched import registry as sched_registry

    benchmarks = _parse_benchmarks(getattr(args, "benchmarks", None))
    machines = _resolve_machines(args.machines, paper_machines())
    schedulers = [
        name for spec in (args.schedulers or list(DEFAULT_SCHEDULERS))
        for name in spec.replace(",", " ").split()
    ]
    unknown = [s for s in schedulers if s not in sched_registry.names()]
    if unknown:
        print(f"gap: unknown scheduler backend(s) "
              f"{', '.join(unknown)} (registered: "
              f"{', '.join(sched_registry.names())})", file=sys.stderr)
        return 2
    report = compute_gap(
        benchmarks, machines,
        schedulers=schedulers, baseline=schedulers[0],
        workers=args.workers, cache=_engine_cache(args),
        policy=_engine_policy(args),
    )
    if args.json:
        import json

        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    if not report.ok:
        print("gap: FAIL: 'exact' exceeded the baseline on some cell "
              "(should be impossible; scheduling model bug?)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args) -> int:
    """``repro trace``: self-profile a run report's span timeline."""
    from .obs.trace import profile_tree, spans_from_events

    events, _skipped = _load_report_events(args.input, "trace")
    if events is None:
        return 1
    spans = spans_from_events(events)
    if not spans:
        print(f"trace: {args.input}: no span events (re-run with "
              "--report/--trace-out on a current build)", file=sys.stderr)
        return 1
    print(profile_tree(spans, title=f"self-profile: {args.input}"))
    summary = _render_metrics_summary(events)
    if summary:
        print()
        print(summary)
    if args.chrome is not None:
        from .obs.trace import write_chrome_trace

        write_chrome_trace(args.chrome, spans)
        print(f"\nChrome trace written to {args.chrome} "
              "(load at ui.perfetto.dev)")
    return 0


def _cmd_exhibit(args) -> int:
    from .analysis.experiments import ALL_EXHIBITS, run_all

    idents = args.idents
    if idents == ["list"]:
        for name, factory in ALL_EXHIBITS.items():
            print(f"{name:12s} {factory.__doc__.splitlines()[0]}")
        return 0
    if idents == ["all"]:
        idents = list(ALL_EXHIBITS)
    unknown = [i for i in idents if i not in ALL_EXHIBITS]
    if unknown:
        print(f"unknown exhibits: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(ALL_EXHIBITS)}", file=sys.stderr)
        return 2
    for exhibit in run_all(idents, workers=args.workers,
                           cache=_engine_cache(args)):
        print(exhibit)
        print()
    return 0


def _open_ledger(args, *, create: bool = True):
    """A HistoryLedger at --ledger / $REPRO_LEDGER / the default path.

    ``create=False`` raises :class:`LedgerError` instead of creating an
    empty database — read-only commands (diff, dash) want a missing
    ledger to be a one-line exit-2 error, not a silent empty result.
    """
    from .obs.history import HistoryLedger

    return HistoryLedger(getattr(args, "ledger", None), create=create)


def _cmd_ingest(args) -> int:
    """``repro ingest``: file(s) -> the run-history ledger."""
    from .obs.history import LedgerError

    try:
        ledger = _open_ledger(args)
    except LedgerError as exc:  # e.g. a ledger of an older layout
        print(f"ingest: {exc}", file=sys.stderr)
        return 2
    status = 0
    with ledger:
        for path in args.inputs:
            if not os.path.exists(path):
                print(f"ingest: {path}: no such file", file=sys.stderr)
                status = 1
                continue
            if not path.endswith(".jsonl"):
                print(f"ingest: {path}: expected a .jsonl run report",
                      file=sys.stderr)
                status = 1
                continue
            try:
                result = ledger.ingest_report(path)
            except (LedgerError, ValueError, OSError) as exc:
                print(f"ingest: {path}: {exc}", file=sys.stderr)
                status = 1
                continue
            print(f"{path}: {result.summary()}")
        print(f"ledger: {ledger.path}")
    return status


def _cmd_diff(args) -> int:
    """``repro diff A B``: per-metric regression verdicts, gated exit."""
    import dataclasses

    from .obs.diff import DiffPolicy, diff_payloads, load_diff_side
    from .obs.history import LedgerError

    policy = DiffPolicy(warn_only=args.warn_only)
    if args.seconds_tolerance is not None:
        policy = dataclasses.replace(
            policy, seconds_tolerance=args.seconds_tolerance)

    needs_ledger = not (os.path.exists(args.a) and os.path.exists(args.b))
    try:
        if needs_ledger:
            with _open_ledger(args, create=False) as ledger:
                a = load_diff_side(args.a, ledger)
                b = load_diff_side(args.b, ledger)
        else:
            a = load_diff_side(args.a)
            b = load_diff_side(args.b)
    except (LedgerError, ValueError, OSError) as exc:
        print(f"diff: {exc}", file=sys.stderr)
        return 2
    result = diff_payloads(a, b, policy)
    if args.json:
        import json

        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        print(f"diff: {args.a} (baseline) vs {args.b} (candidate)")
        print(result.render())
    return 0 if result.ok or args.warn_only else 1


def _cmd_dash(args) -> int:
    """``repro dash``: ledger -> one self-contained HTML file."""
    from .obs.dash import write_dashboard
    from .obs.history import LedgerError

    try:
        with _open_ledger(args, create=False) as ledger:
            data = ledger.export()
    except LedgerError as exc:
        print(f"dash: {exc}", file=sys.stderr)
        return 2
    if not data["runs"]:
        print(f"dash: ledger {ledger.path} has no runs "
              "(ingest a report first)", file=sys.stderr)
        return 2
    write_dashboard(args.out, data, title=args.title)
    n_runs = len(data["runs"])
    print(f"dashboard written to {args.out} "
          f"({n_runs} run{'s' if n_runs != 1 else ''}, "
          f"{len(data['flaky'])} flaky cell(s))")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "measure": _cmd_measure,
        "suite": _cmd_suite,
        "resume": _cmd_resume,
        "report": _cmd_report,
        "exhibit": _cmd_exhibit,
        "gap": _cmd_gap,
        "trace": _cmd_trace,
        "ingest": _cmd_ingest,
        "diff": _cmd_diff,
        "dash": _cmd_dash,
    }
    from .engine.resilience import install_sigterm_handler

    install_sigterm_handler()
    try:
        scheduler = getattr(args, "scheduler", None)
        if scheduler is None:
            return handlers[args.command](args)
        # --scheduler: pin the process-wide default backend so every
        # CompilerOptions built for this run (benchmark defaults included)
        # compiles through it; restored afterwards for in-process callers.
        from .errors import SchedulingError
        from .sched import registry as sched_registry

        try:
            previous = sched_registry.set_default(scheduler)
        except SchedulingError as exc:
            print(f"--scheduler: {exc}", file=sys.stderr)
            return 2
        try:
            return handlers[args.command](args)
        finally:
            sched_registry.set_default(previous)
    except KeyboardInterrupt:
        # Raised by ^C or by the SIGTERM handler installed above; the
        # engine has already unwound (checkpoints/journals are synced
        # line-by-line), so a plain exit is safe and resumable.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
