"""Structured parameter sweeps over benchmarks x machines x options.

A thin public API over what the experiment drivers do by hand: run a set
of benchmarks under a set of compile options, replay each trace on a set
of machine configurations, and return tidy rows.  Useful for building
custom studies without touching the drivers.

Execution is delegated to :mod:`repro.engine`: ``workers>1`` fans the
grid across a process pool and ``cache`` (a
:class:`~repro.engine.cache.TraceCache`) skips recompilation across runs
and processes.  The default ``workers=1`` without a cache is
bit-identical to the historical inline loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..benchmarks.suite import Benchmark
from ..engine.cache import TraceCache
from ..engine.executor import execute
from ..engine.plan import plan_sweep
from ..machine.config import MachineConfig
from ..obs.metrics import MetricsRegistry
from ..obs.recorder import Recorder, active_recorder
from ..obs.stalls import StallBreakdown
from ..obs.trace import Tracer, active_tracer
from ..opt.options import CompilerOptions
from .stats import harmonic_mean
from .tables import format_table


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One (benchmark, options, machine) measurement."""

    benchmark: str
    options_label: str
    machine: str
    instructions: int
    base_cycles: float
    parallelism: float
    #: stall attribution; populated only when sweeping with observe=True
    stalls: StallBreakdown | None = None
    #: supervision outcome: ok | retried | degraded | failed
    status: str = "ok"
    #: final typed error payload for failed cells
    error: dict | None = None


def sweep(
    benchmarks: Iterable[Benchmark | str],
    machines: Sequence[MachineConfig | str],
    options: CompilerOptions | None = None,
    options_label: str = "default",
    schedule_for_target: bool = False,
    observe: bool = False,
    recorder: Recorder | None = None,
    workers: int = 1,
    cache: TraceCache | None = None,
    policy=None,
    faults=None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    progress=None,
    sample_resources: bool = False,
    scheduler: str | None = None,
) -> list[SweepRow]:
    """Measure every benchmark on every machine.

    With ``schedule_for_target`` the code is recompiled, scheduled for
    each machine being measured (the paper's methodology); otherwise one
    trace per benchmark is reused across machines (much faster).
    Machines may be preset names (``"superscalar:4"``) or
    :class:`MachineConfig` objects.

    ``observe=True`` attaches a stall breakdown to every row;
    ``recorder`` (optional) receives one ``sweep_row`` event per
    measurement plus the engine's ``cell``/``engine`` events, so a
    :class:`~repro.obs.recorder.JsonlRecorder` turns a sweep into a
    machine-readable run report.  ``workers`` and ``cache`` select
    parallel execution and the on-disk trace cache; results are
    identical regardless.  ``policy`` (a
    :class:`~repro.engine.resilience.RetryPolicy`) and ``faults`` (a
    :class:`~repro.engine.faults.FaultPlan`) configure supervision;
    cells that exhaust the retry ladder come back with
    ``status="failed"`` instead of aborting the sweep.

    ``tracer``/``metrics``/``progress`` thread straight through to
    :func:`~repro.engine.executor.execute` — pass a
    :class:`~repro.obs.trace.Tracer` to capture the full span timeline
    (plan build included) for Perfetto export, a
    :class:`~repro.obs.metrics.MetricsRegistry` for the merged
    counters/histograms, and a ``progress(group_key, outcome,
    n_cells)`` callback for live display.  ``sample_resources=True``
    additionally records per-process RSS/CPU telemetry (see
    :func:`~repro.engine.executor.execute`).

    ``scheduler`` pins every cell's scheduler backend by registry name
    (``"list"``, ``"swp"``, ``"exact"``, ...); see
    :func:`repro.api.schedulers`.  The choice participates in each
    cell's option fingerprint, so per-backend results never share cache
    entries.
    """
    rec = active_recorder(recorder)
    tr = active_tracer(tracer)
    with tr.span("plan.build", cat="engine"):
        plan = plan_sweep(
            benchmarks,
            machines,
            options=options,
            options_label=options_label,
            schedule_for_target=schedule_for_target,
            observe=observe,
            scheduler=scheduler,
        )
    result = execute(plan, workers=workers, cache=cache, recorder=rec,
                     policy=policy, faults=faults, tracer=tracer,
                     metrics=metrics, progress=progress,
                     sample_resources=sample_resources)
    rows: list[SweepRow] = []
    for cell in result.cells:
        rows.append(SweepRow(
            benchmark=cell.benchmark,
            options_label=cell.options_label,
            machine=cell.machine,
            instructions=cell.instructions,
            base_cycles=cell.base_cycles,
            parallelism=cell.parallelism,
            stalls=cell.stalls,
            status=cell.status,
            error=cell.error,
        ))
        if rec.enabled:
            event = {
                "benchmark": cell.benchmark,
                "machine": cell.machine,
                "options": cell.options_label,
                "instructions": cell.instructions,
                "base_cycles": cell.base_cycles,
                "parallelism": cell.parallelism,
                "status": cell.status,
            }
            if cell.stalls is not None:
                event["stalls"] = cell.stalls.as_dict()
            rec.emit("sweep_row", **event)
    return rows


def summarize(rows: Sequence[SweepRow]) -> str:
    """Render sweep rows as a machines-by-benchmarks parallelism table,
    with a harmonic-mean column.

    Failed cells render as NaN and are excluded from the mean, so a
    partially failed sweep still summarizes cleanly.
    """
    machines: list[str] = []
    benches: list[str] = []
    values: dict[tuple[str, str], float] = {}
    for row in rows:
        if row.machine not in machines:
            machines.append(row.machine)
        if row.benchmark not in benches:
            benches.append(row.benchmark)
        if row.status != "failed":
            values[(row.machine, row.benchmark)] = row.parallelism
    table_rows = []
    for machine in machines:
        cells = [values[(machine, b)] for b in benches
                 if (machine, b) in values]
        table_rows.append(
            [machine]
            + [values.get((machine, b), float("nan")) for b in benches]
            + [harmonic_mean(cells) if cells else float("nan")]
        )
    return format_table(
        ["machine"] + benches + ["harmonic mean"], table_rows
    )
