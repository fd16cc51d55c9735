"""The stable public facade of :mod:`repro`.

One module, five entry points — everything a script needs without
importing internal packages:

* :func:`compile` — Tin source text to a scheduled
  :class:`~repro.isa.program.Program`;
* :func:`run` — functionally execute a program (or source text) and get
  its result plus dynamic trace;
* :func:`simulate` — replay a trace on a machine (preset name or
  :class:`~repro.machine.config.MachineConfig`);
* :func:`measure` — compile + run + time one suite benchmark on one
  machine;
* :func:`plan` / :func:`sweep` — build and execute a whole
  benchmark x machine grid, optionally across worker processes with a
  content-addressed trace cache;
* :func:`schedulers` — the registered scheduler backends;
  :func:`compile`, :func:`measure`, :func:`plan` and :func:`sweep` all
  take a keyword-only ``scheduler=`` naming one of them (``"list"``,
  ``"swp"``, ``"exact"``; see :mod:`repro.sched.registry`);
* :func:`ledger` / :func:`ingest` / :func:`diff` / :func:`dashboard` —
  the run-history side: store run reports in the content-addressed
  ledger, regression-diff any two runs, render the history as one
  self-contained HTML dashboard.

All parameters beyond the essential positionals are keyword-only, and
every result is a dataclass, so the surface is easy to keep stable (the
test suite snapshots these signatures).  Machines are accepted as preset
names (``"superscalar:4"``, ``"multititan"``; see
:func:`repro.machine.presets.resolve`) everywhere a configuration is
taken.

    >>> import repro.api as api
    >>> api.measure("linpack", "ideal_superscalar:4").parallelism
    2.9...
    >>> result = api.sweep(api.plan(["whet"], ["base", "superscalar:8"]),
    ...                    workers=2)
    >>> [row.parallelism for row in result.rows]
    [1.0, 2.4...]
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .benchmarks import suite as _suite
from .benchmarks.suite import Benchmark
from .engine.cache import open_cache
from .engine.executor import EngineReport, execute as _execute
from .engine.faults import FaultPlan
from .engine.plan import Plan, plan_sweep
from .engine.resilience import RetryPolicy, failure_manifest as _manifest
from .isa.program import Program
from .machine.config import MachineConfig
from .machine.presets import resolve as _resolve_machine
from .obs.metrics import MetricsRegistry
from .obs.recorder import Recorder
from .obs.trace import Tracer
from .opt.options import CompilerOptions
from .sim.interp import RunResult, run as _interp_run
from .sim.timing import TimingResult, simulate as _simulate
from .sim.trace import Trace

__all__ = [
    "FaultPlan",
    "MachineLike",
    "Plan",
    "RetryPolicy",
    "SweepResult",
    "compile",
    "dashboard",
    "diff",
    "flow_runs",
    "flow_sweep",
    "ingest",
    "ledger",
    "measure",
    "plan",
    "run",
    "schedulers",
    "simulate",
    "sweep",
]

#: Anywhere a machine is taken, a preset name works too.
MachineLike = "MachineConfig | str"


def schedulers() -> dict[str, str]:
    """The registered scheduler backends, name to one-line description.

    Any of these names is valid for the ``scheduler=`` keyword taken by
    :func:`compile`, :func:`measure`, :func:`plan` and :func:`sweep`,
    for :attr:`CompilerOptions.scheduler`, and for the CLI's
    ``--scheduler`` flag.
    """
    from .sched import registry as _registry

    return _registry.descriptions()


def _with_scheduler(options: CompilerOptions | None,
                    scheduler: str | None) -> CompilerOptions | None:
    """Apply a ``scheduler=`` keyword to (possibly default) options."""
    if scheduler is None:
        return options
    if options is None:
        return CompilerOptions(scheduler=scheduler)
    if options.scheduler == scheduler:
        return options
    return dataclasses.replace(options, scheduler=scheduler)


def compile(source: str, *, options: CompilerOptions | None = None,
            profile=None, scheduler: str | None = None) -> Program:
    """Compile Tin source text into a scheduled :class:`Program`.

    ``options`` defaults to the full optimization pipeline; ``profile``
    (a :class:`~repro.obs.profile.CompileProfile`) collects pass-level
    timing and size statistics when given.  ``scheduler`` selects the
    scheduler backend by name (see :func:`schedulers`), overriding
    ``options.scheduler`` when both are given.
    """
    from .opt.driver import compile_source

    return compile_source(source, _with_scheduler(options, scheduler),
                          profile)


def run(program: Program | str, *,
        options: CompilerOptions | None = None) -> RunResult:
    """Functionally execute a program — or compile-and-run source text.

    Returns the :class:`RunResult`: the entry function's value, the
    dynamic instruction count, and the trace :func:`simulate` replays.
    """
    if isinstance(program, str):
        program = compile(program, options=options)
    return _interp_run(program)


def simulate(trace: Trace, machine: MachineConfig | str, *,
             observe: bool = False) -> TimingResult:
    """Replay a dynamic trace on a machine and return its timing.

    ``machine`` may be a preset name; ``observe=True`` attaches exact
    per-cause stall attribution (:mod:`repro.obs.stalls`).
    """
    return _simulate(trace, _resolve_machine(machine), observe=observe)


def measure(benchmark: Benchmark | str, machine: MachineConfig | str,
            *, options: CompilerOptions | None = None,
            observe: bool = False,
            scheduler: str | None = None) -> TimingResult:
    """Compile, run, and time one suite benchmark on one machine.

    Compilation and functional execution are memoized per
    (benchmark, options), so measuring many machines is cheap.
    ``scheduler`` selects the scheduler backend by name (see
    :func:`schedulers`); with no explicit ``options`` it composes with
    the benchmark's default overrides.
    """
    if scheduler is not None and options is None:
        bench = _suite.get(benchmark) if isinstance(benchmark, str) \
            else benchmark
        options = _suite.default_options(bench, scheduler=scheduler)
    else:
        options = _with_scheduler(options, scheduler)
    return _suite.measure(
        benchmark, _resolve_machine(machine), options, observe=observe
    )


def plan(benchmarks, machines, *, options: CompilerOptions | None = None,
         options_label: str = "default", schedule_for_target: bool = False,
         observe: bool = False, scheduler: str | None = None) -> Plan:
    """Build the work plan for a benchmarks-by-machines sweep.

    Accepts benchmark names/objects and machine presets/configs; see
    :func:`repro.engine.plan.plan_sweep` for the semantics of
    ``schedule_for_target`` (the paper's per-target recompilation).
    ``scheduler`` pins every cell's scheduler backend by name (see
    :func:`schedulers`), composing with per-benchmark defaults and
    ``schedule_for_target``.
    """
    return plan_sweep(
        benchmarks, machines, options=options, options_label=options_label,
        schedule_for_target=schedule_for_target, observe=observe,
        scheduler=scheduler,
    )


@dataclass(frozen=True, slots=True)
class SweepResult:
    """Outcome of one :func:`sweep`: tidy rows plus engine statistics."""

    rows: tuple[SweepRow, ...]
    engine: EngineReport

    def summary(self) -> str:
        """Machines-by-benchmarks parallelism table with harmonic means."""
        from .analysis.sweep import summarize

        return summarize(list(self.rows))

    def failures(self) -> tuple[SweepRow, ...]:
        """Rows whose cell exhausted the whole degradation ladder."""
        return tuple(r for r in self.rows if r.status == "failed")

    def failure_manifest(self) -> str | None:
        """One-line manifest of failed cells (``None`` when all ran)."""
        return _manifest(self.rows)

    @property
    def ok(self) -> bool:
        """True when no cell ended ``failed``."""
        return not self.failures()


def _sweep_result(result) -> SweepResult:
    """The :class:`SweepResult` of an engine result: one row per cell."""
    from .analysis.sweep import SweepRow

    rows = tuple(
        SweepRow(
            benchmark=c.benchmark,
            options_label=c.options_label,
            machine=c.machine,
            instructions=c.instructions,
            base_cycles=c.base_cycles,
            parallelism=c.parallelism,
            stalls=c.stalls,
            status=c.status,
            error=c.error,
        )
        for c in result.cells
    )
    assert result.report is not None
    return SweepResult(rows=rows, engine=result.report)


def sweep(plan: Plan, *, workers: int = 1, cache_dir: str | None = None,
          no_cache: bool = False, recorder: Recorder | None = None,
          policy: RetryPolicy | None = None,
          faults: FaultPlan | None = None,
          tracer: Tracer | None = None,
          metrics: MetricsRegistry | None = None,
          progress=None, scheduler: str | None = None) -> SweepResult:
    """Execute a :class:`Plan` and return every cell's measurement.

    ``workers`` fans compile groups across a supervised process pool
    (``1`` = the bit-identical serial fallback).  ``cache_dir`` enables
    the content-addressed on-disk trace cache there (``no_cache=True``
    forces it off).  ``recorder`` receives ``cell``/``engine`` events
    plus the run's ``span`` events and ``metrics`` snapshot.

    Execution is fault tolerant: ``policy`` (a :class:`RetryPolicy`)
    bounds retries, per-group timeouts, and the serial degradation
    step; ``faults`` (a :class:`FaultPlan`; default ``$REPRO_FAULTS``)
    injects deterministic failures for testing.  A sweep always
    completes — check :meth:`SweepResult.failures` / ``.ok`` for cells
    that exhausted the ladder.

    ``tracer`` (a :class:`~repro.obs.trace.Tracer`) captures the full
    cross-process span timeline — export it with
    :func:`~repro.obs.trace.write_chrome_trace` and load the file in
    Perfetto; ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) receives the merged
    counters/gauges/histograms; ``progress(group_key, outcome,
    n_cells)`` is invoked as each compile group settles (live
    dashboards).

    ``scheduler`` re-pins every cell of ``plan`` to the named scheduler
    backend (see :func:`schedulers`) before executing — convenient for
    running one plan under several backends without rebuilding it.
    """
    if scheduler is not None:
        plan = dataclasses.replace(plan, cells=tuple(
            c if c.options.scheduler == scheduler
            else dataclasses.replace(
                c, options=dataclasses.replace(c.options,
                                               scheduler=scheduler))
            for c in plan.cells
        ))
    cache = open_cache(cache_dir, no_cache)
    result = _execute(plan, workers=workers, cache=cache,
                      recorder=recorder, policy=policy, faults=faults,
                      tracer=tracer, metrics=metrics, progress=progress)
    return _sweep_result(result)


def flow_sweep(plan: Plan, *, cache_dir: str | None = None,
               run_id: str | None = None, workers: int = 1,
               recorder: Recorder | None = None,
               policy: RetryPolicy | None = None,
               faults: FaultPlan | None = None) -> SweepResult:
    """Execute a :class:`Plan` as a checkpointed, resumable flow.

    The flow equivalent of :func:`sweep`: every compile and cell
    becomes a content-fingerprinted DAG node whose completion is
    checkpointed to the cache directory and journaled under a run id
    (``run_id``, generated when omitted — read it back from the journal
    directory via :func:`flow_runs`).  Kill the process at any node
    boundary and re-invoking with the same ``run_id`` resumes, re-runs
    only the incomplete nodes, and returns rows bit-identical to an
    uninterrupted run.  Requires a usable cache directory (the default
    is fine); see :mod:`repro.flow`.
    """
    from .flow.flows import run_sweep_flow

    result, _ = run_sweep_flow(plan, cache=open_cache(cache_dir, False),
                               run_id=run_id, workers=workers,
                               policy=policy, faults=faults,
                               recorder=recorder)
    return _sweep_result(result)


def flow_runs(cache_dir: str | None = None) -> list[str]:
    """Known flow run ids under a cache directory, oldest first."""
    from .engine.cache import DEFAULT_CACHE_DIR
    from .flow.state import list_runs

    return list_runs(cache_dir or DEFAULT_CACHE_DIR)


def ledger(path: str | None = None):
    """Open (creating if needed) the run-history ledger.

    ``path`` defaults to ``$REPRO_LEDGER`` or
    ``results/history.sqlite``.  Returns a
    :class:`~repro.obs.history.HistoryLedger`; use it as a context
    manager to release the database handle.
    """
    from .obs.history import HistoryLedger

    return HistoryLedger(path)


def ingest(source: str, *, ledger_path: str | None = None):
    """Ingest one JSONL run report (``.jsonl``) into the ledger; returns
    the :class:`~repro.obs.history.IngestResult`.

    Ingestion is content-addressed: re-ingesting the same run (or an
    identical rerun of the same configuration) is a no-op.  Any other
    extension raises :class:`ValueError`; throughput lives in
    ``bench/run.py``, not in the ledger.
    """
    if not source.endswith(".jsonl"):
        raise ValueError(f"{source}: expected a .jsonl run report")
    with ledger(ledger_path) as db:
        return db.ingest_report(source)


def diff(a: str, b: str, *, ledger_path: str | None = None,
         policy=None):
    """Regression-diff two runs; returns a
    :class:`~repro.obs.diff.DiffResult` (check ``.ok`` / ``.render()``).

    ``a`` (baseline) and ``b`` (candidate) are ``.jsonl`` report paths
    or ledger references (``latest``, ``latest~N``, a numeric id, or a
    fingerprint prefix); ``policy`` is an optional
    :class:`~repro.obs.diff.DiffPolicy`.
    """
    import os as _os

    from .obs.diff import diff_payloads, load_diff_side

    if _os.path.exists(a) and _os.path.exists(b):
        return diff_payloads(load_diff_side(a), load_diff_side(b),
                             policy)
    with ledger(ledger_path) as db:
        return diff_payloads(load_diff_side(a, db),
                             load_diff_side(b, db), policy)


def dashboard(out: str, *, ledger_path: str | None = None,
              title: str = "repro run history") -> str:
    """Render the ledger as one self-contained HTML file at ``out``.

    No network, no external assets: the page embeds the full ledger
    export as JSON plus inline CSS/JS.  Returns ``out``.
    """
    from .obs.dash import write_dashboard

    with ledger(ledger_path) as db:
        data = db.export()
    write_dashboard(out, data, title=title)
    return out
