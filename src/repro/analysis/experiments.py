"""Experiment drivers: one function per table / figure of the paper.

Every driver returns an :class:`Exhibit` holding the raw numbers plus a
rendered ASCII table (and chart, where the original is a figure).  The
benchmark harness under ``benchmarks/`` calls these and prints them; the
EXPERIMENTS.md comparison against the paper is generated from the same
data.

The drivers compile benchmarks *scheduled for the machine being
simulated*, like the paper's system ("the language system then optimizes
the code ... and schedules the instructions for the pipeline, all
according to this specification").

Each measured exhibit declares its grid of (benchmark, options,
machine) cells and runs it through the execution engine
(:func:`repro.engine.executor.execute`), so ``workers`` fans its compile
groups across the supervised pool and ``cache`` (a
:class:`~repro.engine.cache.TraceCache`, or ``None`` for none) serves
compiles, replay memos and plans from disk.  The exhibits that need the
trace itself (``table2-1``, ``sec5-1``) get it through
:func:`repro.engine.executor.acquire_run` and the same cache.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field

from ..benchmarks import suite
from ..engine.cache import NULL_TRACE_CACHE, TraceCache
from ..engine.executor import CellResult, acquire_run, execute
from ..engine.plan import Cell, Plan, plan_sweep
from ..errors import ReproError
from ..obs.recorder import Recorder, active_recorder
from ..isa import build
from ..isa.opcodes import Opcode
from ..isa.registers import RegisterFileSpec, virtual
from ..machine.config import MachineConfig
from ..machine.metrics import (
    PAPER_FREQUENCIES,
    average_degree_of_superpipelining,
    dynamic_frequencies,
    machine_degree,
    required_parallelism,
)
from ..machine.presets import (
    CRAY1_LATENCIES,
    MULTITITAN_LATENCIES,
    base_machine,
    ideal_superscalar,
    multititan,
    superpipelined,
    superpipelined_superscalar,
    underpipelined_half_issue,
    underpipelined_slow_cycle,
)
from ..opt.options import CompilerOptions, OptLevel
from ..sim.cache import (
    TABLE_5_1,
    CacheConfig,
    parallel_issue_speedup_with_misses,
    simulate_with_cache,
)
from ..sim.timing import simulate
from ..sim.trace import Trace
from . import pipeviz
from .stats import harmonic_mean
from .tables import format_table, line_chart


@dataclass(slots=True)
class Exhibit:
    """One reproduced table or figure."""

    ident: str
    title: str
    text: str                      # rendered table/diagram/chart
    data: dict = field(default_factory=dict)
    notes: str = ""

    def __str__(self) -> str:
        header = f"== {self.ident}: {self.title} =="
        parts = [header, self.text]
        if self.notes:
            parts.append(f"note: {self.notes}")
        return "\n".join(parts)


_DEGREES = tuple(range(1, 9))


def _measure(plan: Plan, workers: int,
             cache: TraceCache | None) -> list[CellResult]:
    """Run ``plan`` through the engine; its results in plan order.

    Raises naming the first cell whose group failed or whose benchmark
    returned the wrong checksum, so a broken measurement can never
    render as a number.
    """
    result = execute(plan, workers=workers, cache=cache)
    for cell, got in zip(plan.cells, result.cells):
        if got.status == "failed":
            error = got.error or {}
            raise ReproError(
                f"exhibit cell {cell.ident} failed: "
                f"{error.get('kind', 'error')}: {error.get('message', '')}"
            )
        if not got.checksum_ok:
            raise ReproError(f"exhibit cell {cell.ident}: wrong checksum")
    return result.cells


def _columns(cells: list[CellResult], n_machines: int) -> list[list[float]]:
    """Per-machine parallelism over the benchmarks of a
    :func:`plan_sweep` (benchmark-major), in benchmark order."""
    return [[c.parallelism for c in cells[m::n_machines]]
            for m in range(n_machines)]


def _suite_runs(cache: TraceCache | None) -> dict:
    """Each benchmark's default-options run, through the trace cache."""
    runs = {}
    for bench in suite.all_benchmarks():
        run, _, checksum_ok = acquire_run(
            bench.name, suite.default_options(bench),
            cache if cache is not None else NULL_TRACE_CACHE,
        )
        if not checksum_ok:
            raise ReproError(f"exhibit run {bench.name}: wrong checksum")
        runs[bench.name] = run
    return runs


# --------------------------------------------------------------------- fig 1-1
def fig1_1() -> Exhibit:
    """Figure 1-1: instruction-level parallelism of two code fragments."""
    a = [
        build.lw(virtual(1), virtual(10), 23),
        build.alui(Opcode.ADDI, virtual(2), virtual(11), 1),
        build.alu(Opcode.FADD, virtual(3), virtual(12), virtual(13)),
    ]
    b = [
        build.alui(Opcode.ADDI, virtual(1), virtual(1), 1),
        build.alu(Opcode.ADD, virtual(2), virtual(1), virtual(10)),
        build.sw(virtual(11), virtual(2), 0),
    ]
    rows = []
    values = {}
    for name, frag in (("(a) independent", a), ("(b) dependent", b)):
        trace = Trace.from_instructions(frag)
        result = simulate(trace, ideal_superscalar(8))
        values[name] = result.parallelism
        rows.append([name, len(frag), result.base_cycles, result.parallelism])
    text = format_table(
        ["fragment", "instructions", "cycles", "parallelism"], rows
    )
    return Exhibit(
        ident="fig1-1",
        title="instruction-level parallelism of two fragments",
        text=text,
        data=values,
        notes="paper: (a) parallelism=3, (b) parallelism=1",
    )


# ------------------------------------------------------------- figures 2-1..2-7
def fig2_diagrams() -> Exhibit:
    """Figures 2-1..2-7: execution diagrams of the machine taxonomy."""
    demo = pipeviz.demo_trace("independent", 8)
    sections = []
    configs = [
        ("Figure 2-1 base machine", base_machine()),
        ("Figure 2-2 underpipelined: cycle > operation", underpipelined_slow_cycle()),
        ("Figure 2-3 underpipelined: issues < 1 instr/cycle", underpipelined_half_issue()),
        ("Figure 2-4 superscalar (n=3)", ideal_superscalar(3)),
        ("Figure 2-5 VLIW (modelled as wide issue, n=3)", ideal_superscalar(3)),
        ("Figure 2-6 superpipelined (m=3)", superpipelined(3)),
        ("Figure 2-7 superpipelined superscalar (n=3, m=3)",
         superpipelined_superscalar(3, 3)),
    ]
    data = {}
    for title, config in configs:
        result = simulate(demo, config)
        data[title] = result.base_cycles
        sections.append(
            f"{title} — 8 independent instructions in "
            f"{result.base_cycles:.2f} base cycles\n"
            + pipeviz.render_pipeline(demo, config)
        )
    sections.append(
        "Figure 2-8 vector machine — chained vector execution\n"
        + pipeviz.render_vector_diagram()
    )
    return Exhibit(
        ident="fig2-1..8",
        title="machine taxonomy execution diagrams",
        text="\n\n".join(sections),
        data=data,
    )


# ------------------------------------------------------------------- table 2-1
def table2_1(*, cache: TraceCache | None = None) -> Exhibit:
    """Table 2-1: average degree of superpipelining."""
    rows = []
    for name, lats in (
        ("MultiTitan", MULTITITAN_LATENCIES),
        ("CRAY-1", CRAY1_LATENCIES),
    ):
        rows.append(
            [name, "paper static mix",
             average_degree_of_superpipelining(lats, PAPER_FREQUENCIES)]
        )
    # the same metric under our measured dynamic instruction mix
    runs = _suite_runs(cache)
    counts: dict = {}
    for run in runs.values():
        for klass, count in run.trace.class_counts().items():
            counts[klass] = counts.get(klass, 0) + count
    measured = dynamic_frequencies(counts)
    for name, lats in (
        ("MultiTitan", MULTITITAN_LATENCIES),
        ("CRAY-1", CRAY1_LATENCIES),
    ):
        rows.append(
            [name, "measured dynamic mix",
             average_degree_of_superpipelining(lats, measured)]
        )
    text = format_table(
        ["machine", "frequency source", "avg degree of superpipelining"],
        rows,
    )
    # companion table: the paper's static mix next to our measured mix
    freq_rows = []
    for klass in sorted(measured, key=lambda k: -measured[k]):
        freq_rows.append([
            klass.value,
            PAPER_FREQUENCIES.get(klass, 0.0) * 100.0,
            measured[klass] * 100.0,
        ])
    freq_text = format_table(
        ["instruction class", "paper static %", "measured dynamic %"],
        freq_rows,
        title="instruction-class mix",
    )
    data = {(r[0], r[1]): r[2] for r in rows}
    data["measured_frequencies"] = measured
    return Exhibit(
        ident="table2-1",
        title="average degree of superpipelining",
        text=text + "\n\n" + freq_text,
        data=data,
        notes="paper: MultiTitan 1.7, CRAY-1 4.4 (static mix)",
    )


# --------------------------------------------------------------------- fig 4-1
def fig4_1(degrees: tuple[int, ...] = _DEGREES, *, workers: int = 1,
           cache: TraceCache | None = None) -> Exhibit:
    """Figure 4-1: supersymmetry — superscalar vs superpipelined."""
    machines = ([ideal_superscalar(d) for d in degrees]
                + [superpipelined(d) for d in degrees])
    cells = _measure(plan_sweep(suite.all_benchmarks(), machines,
                                schedule_for_target=True), workers, cache)
    means = [harmonic_mean(col) for col in _columns(cells, len(machines))]
    ss_points = []
    sp_points = []
    rows = []
    for degree, ss, sp in zip(degrees, means, means[len(degrees):]):
        ss_points.append((degree, ss))
        sp_points.append((degree, sp))
        rows.append([degree, ss, sp, (ss - sp) / ss * 100.0])
    table = format_table(
        ["degree", "superscalar", "superpipelined", "gap %"], rows
    )
    chart = line_chart(
        {"superscalar": ss_points, "pipelined(super)": sp_points},
        title="harmonic-mean speedup vs degree",
        x_label="degree",
        y_label="speedup",
    )
    return Exhibit(
        ident="fig4-1",
        title="supersymmetry",
        text=table + "\n\n" + chart,
        data={"superscalar": ss_points, "superpipelined": sp_points},
        notes="paper: superpipelined slightly lower (startup transient), "
        "difference < 10%, decreasing in relative terms as both flatten",
    )


# --------------------------------------------------------------------- fig 4-2
def fig4_2() -> Exhibit:
    """Figure 4-2: start-up in superscalar vs superpipelined issue."""
    demo = pipeviz.demo_trace("independent", 6)
    ss = ideal_superscalar(3)
    sp = superpipelined(3)
    r_ss = simulate(demo, ss)
    r_sp = simulate(demo, sp)
    text = (
        pipeviz.render_pipeline(demo, ss)
        + f"\nlast result ready: {r_ss.base_cycles:.2f} base cycles\n\n"
        + pipeviz.render_pipeline(demo, sp)
        + f"\nlast result ready: {r_sp.base_cycles:.2f} base cycles"
    )
    return Exhibit(
        ident="fig4-2",
        title="start-up transient: 6 independent instructions, degree 3",
        text=text,
        data={"superscalar": r_ss.base_cycles, "superpipelined": r_sp.base_cycles},
        notes="paper: superscalar issues the last instruction at t1, the "
        "superpipelined machine at t5/3 — it gets behind at every branch "
        "target",
    )


# --------------------------------------------------------------------- fig 4-3
def fig4_3(max_n: int = 5, max_m: int = 5) -> Exhibit:
    """Figure 4-3: parallelism required for full utilization (= n*m)."""
    headers = ["m\\n"] + [str(n) for n in range(1, max_n + 1)]
    rows = []
    for m in range(max_m, 0, -1):
        rows.append(
            [str(m)] + [required_parallelism(n, m) for n in range(1, max_n + 1)]
        )
    table = format_table(headers, rows)
    marks = format_table(
        ["machine", "average degree of superpipelining"],
        [
            ["MultiTitan", machine_degree(multititan())],
            ["CRAY-1", machine_degree(cray1_config())],
        ],
    )
    return Exhibit(
        ident="fig4-3",
        title="parallelism required for full utilization",
        text=table + "\n\n" + marks,
        data={"multititan": machine_degree(multititan()),
              "cray1": machine_degree(cray1_config())},
        notes="paper: a (2,2) machine already needs parallelism 4; the "
        "CRAY-1 sits at 4.4 on the superpipelining axis",
    )


def cray1_config(width: int = 1) -> MachineConfig:
    """CRAY-1 with a configurable issue width (for Figure 4-4)."""
    return MachineConfig(
        name=f"cray1-w{width}",
        issue_width=width,
        latencies=dict(CRAY1_LATENCIES),
    )


def unit_latency_cray(width: int) -> MachineConfig:
    """The CRAY-1 as mis-modelled with unit latencies (Figure 4-4)."""
    return cray1_config(width).with_unit_latencies()


# --------------------------------------------------------------------- fig 4-4
def fig4_4(widths: tuple[int, ...] = (1, 2, 3, 4, 6, 8), *,
           workers: int = 1, cache: TraceCache | None = None) -> Exhibit:
    """Figure 4-4: CRAY-1 multiple issue with unit vs real latencies."""
    factories = (("unit", unit_latency_cray), ("real", cray1_config))
    machines = [factory(w) for _, factory in factories for w in widths]
    cells = _measure(plan_sweep(suite.all_benchmarks(), machines,
                                schedule_for_target=True), workers, cache)
    means = [harmonic_mean(col) for col in _columns(cells, len(machines))]
    series: dict[str, list[tuple[float, float]]] = {}
    for i, (label, _) in enumerate(factories):
        row = means[i * len(widths):(i + 1) * len(widths)]
        series[label] = [(w, mean / row[0]) for w, mean in zip(widths, row)]
    rows = []
    for i, width in enumerate(widths):
        rows.append(
            [width,
             (series["unit"][i][1] - 1) * 100.0,
             (series["real"][i][1] - 1) * 100.0]
        )
    table = format_table(
        ["issue multiplicity", "unit-latency improvement %",
         "real-latency improvement %"], rows,
    )
    chart = line_chart(
        series, title="relative speedup vs issue multiplicity (CRAY-1)",
        x_label="issue width", y_label="speedup / single issue",
    )
    return Exhibit(
        ident="fig4-4",
        title="parallel issue with unit and real latencies (CRAY-1)",
        text=table + "\n\n" + chart,
        data=series,
        notes="paper: unit latencies suggest speedups up to 2.7; with real "
        "latencies there is almost no benefit from multiple issue",
    )


# --------------------------------------------------------------------- fig 4-5
def fig4_5(widths: tuple[int, ...] = _DEGREES, *, workers: int = 1,
           cache: TraceCache | None = None) -> Exhibit:
    """Figure 4-5: instruction-level parallelism by benchmark."""
    benches = suite.all_benchmarks()
    cells = iter(_measure(
        plan_sweep(benches, [ideal_superscalar(w) for w in widths]),
        workers, cache,
    ))
    series: dict[str, list[tuple[float, float]]] = {}
    rows = []
    for bench in benches:
        points = [(width, next(cells).parallelism) for width in widths]
        series[bench.name] = points
        rows.append([bench.name] + [p[1] for p in points])
    table = format_table(
        ["benchmark"] + [f"n={w}" for w in widths], rows
    )
    chart = line_chart(
        series, title="speedup vs instruction issue multiplicity",
        x_label="issue multiplicity", y_label="speedup",
    )
    return Exhibit(
        ident="fig4-5",
        title="instruction-level parallelism by benchmark",
        text=table + "\n\n" + chart,
        data=series,
        notes="paper: yacc lowest (1.6); ccom, grr, stanford, met, whet "
        "about 2; livermore 2.5; unrolled linpack 3.2 — a factor of two "
        "spread under a low ceiling",
    )


# --------------------------------------------------------------------- fig 4-6
def fig4_6(
    factors: tuple[int, ...] = (1, 2, 4, 10),
    n_temp: int = 40,
    *,
    workers: int = 1,
    cache: TraceCache | None = None,
) -> Exhibit:
    """Figure 4-6: parallelism vs loop unrolling (naive vs careful)."""
    regfile = RegisterFileSpec(n_temp=n_temp, n_home=26)
    measure_cfg = ideal_superscalar(64)
    modes = [(name, careful) for name in ("linpack", "livermore")
             for careful in (False, True)]
    cells = iter(_measure(Plan(tuple(
        Cell(name,
             CompilerOptions(unroll=factor, careful=careful, regfile=regfile),
             measure_cfg,
             options_label=f"{'careful' if careful else 'naive'}-u{factor}")
        for name, careful in modes for factor in factors
    )), workers, cache))
    series: dict[str, list[tuple[float, float]]] = {}
    rows = []
    for name, careful in modes:
        label = f"{name}.{'careful' if careful else 'naive'}"
        points = [(factor, next(cells).parallelism) for factor in factors]
        series[label] = points
        rows.append([label] + [p[1] for p in points])
    table = format_table(
        ["benchmark.mode"] + [f"u={f}" for f in factors], rows
    )
    chart = line_chart(
        series, title="parallelism vs iterations unrolled",
        x_label="unroll factor", y_label="parallelism",
    )
    return Exhibit(
        ident="fig4-6",
        title="parallelism vs loop unrolling",
        text=table + "\n\n" + chart,
        data=series,
        notes="paper: naive unrolling is mostly flat after 4x (false "
        "conflicts between copies); careful unrolling (reassociation + "
        "store/load disambiguation) gives the dramatic improvement",
    )


# --------------------------------------------------------------------- fig 4-7
def fig4_7() -> Exhibit:
    """Figure 4-7: compiler optimization can raise or lower parallelism."""
    def graph(n_ops: int, depth: int) -> float:
        return n_ops / depth

    rows = [
        ["original: two comparable branches", 5, 3, graph(5, 3)],
        ["optimize the off-critical branch", 4, 3, graph(4, 3)],
        ["optimize the bottleneck", 3, 2, graph(3, 2)],
    ]
    table = format_table(
        ["expression graph", "operations", "critical path", "parallelism"],
        rows,
    )
    return Exhibit(
        ident="fig4-7",
        title="parallelism vs compiler optimizations (expression graphs)",
        text=table,
        data={r[0]: r[3] for r in rows},
        notes="paper: 1.67 -> 1.33 when optimizing a parallel branch, "
        "1.67 -> 1.50 when optimizing the bottleneck",
    )


# --------------------------------------------------------------------- fig 4-8
def fig4_8(*, workers: int = 1,
           cache: TraceCache | None = None) -> Exhibit:
    """Figure 4-8: effect of optimization level on parallelism."""
    regfile = RegisterFileSpec(n_temp=16, n_home=26)
    measure_cfg = ideal_superscalar(64)
    levels = list(OptLevel)
    benches = suite.all_benchmarks()
    cells = iter(_measure(Plan(tuple(
        Cell(bench.name, CompilerOptions(opt_level=level, regfile=regfile),
             measure_cfg, options_label=level.name.lower())
        for bench in benches for level in levels
    )), workers, cache))
    series: dict[str, list[tuple[float, float]]] = {}
    rows = []
    for bench in benches:
        points = [(int(level), next(cells).parallelism) for level in levels]
        series[bench.name] = points
        rows.append([bench.name] + [p[1] for p in points])
    table = format_table(
        ["benchmark"] + [lvl.name.lower() for lvl in levels], rows
    )
    chart = line_chart(
        series, title="parallelism vs optimization level",
        x_label="optimization level (0=none .. 4=+regalloc)",
        y_label="parallelism",
    )
    return Exhibit(
        ident="fig4-8",
        title="effect of optimization on parallelism",
        text=table + "\n\n" + chart,
        data=series,
        notes="paper: scheduling adds 10-60%; classical optimization has "
        "little or negative effect; global register allocation helps the "
        "numeric benchmarks and slightly hurts the rest",
    )


# ------------------------------------------------------------------- table 5-1
def table5_1() -> Exhibit:
    """Table 5-1: the cost of cache misses."""
    rows = [
        [row.machine, row.cycles_per_instr, row.cycle_ns, row.memory_ns,
         row.miss_cost_cycles, row.miss_cost_instructions]
        for row in TABLE_5_1
    ]
    table = format_table(
        ["machine", "cycles/instr", "cycle (ns)", "memory (ns)",
         "miss cost (cycles)", "miss cost (instr)"],
        rows,
    )
    return Exhibit(
        ident="table5-1",
        title="the cost of cache misses",
        text=table,
        data={row.machine: row.miss_cost_instructions for row in TABLE_5_1},
        notes="paper: 0.6 / 8.6 / 140 instruction times",
    )


# ------------------------------------------------------------------ section 5.1
def sec5_1(*, cache: TraceCache | None = None) -> Exhibit:
    """Section 5.1 example + measured miss dilution on the suite."""
    with_misses, without = parallel_issue_speedup_with_misses()
    rows = [["worked example (2.0cpi, triple issue)", without, with_misses]]

    # Measured: ideal superscalar-3 speedup with and without a small cache.
    dcache = CacheConfig(size_words=256, line_words=4, miss_penalty=10)
    vals_nc, vals_c = [], []
    for run in _suite_runs(cache).values():
        base_nc = simulate(run.trace, base_machine()).base_cycles
        wide_nc = simulate(run.trace, ideal_superscalar(3)).base_cycles
        base_c = simulate_with_cache(
            run.trace, base_machine(), dcache
        ).timing.base_cycles
        wide_c = simulate_with_cache(
            run.trace, ideal_superscalar(3), dcache
        ).timing.base_cycles
        vals_nc.append(base_nc / wide_nc)
        vals_c.append(base_c / wide_c)
    measured_nc = harmonic_mean(vals_nc)
    measured_c = harmonic_mean(vals_c)
    rows.append(["measured on suite (superscalar-3)", measured_nc, measured_c])
    table = format_table(
        ["case", "speedup ignoring misses", "speedup with misses"], rows
    )
    return Exhibit(
        ident="sec5-1",
        title="cache misses dilute parallel-issue speedup",
        text=table,
        data={"example": (without, with_misses),
              "measured": (measured_nc, measured_c)},
        notes="paper: 100% improvement shrinks to 33% once a 1.0-cpi miss "
        "burden is added",
    )


def multititan_config() -> MachineConfig:
    """MultiTitan preset re-exported for the harness."""
    return multititan()


ALL_EXHIBITS = {
    "fig1-1": fig1_1,
    "fig2-1..8": fig2_diagrams,
    "table2-1": table2_1,
    "fig4-1": fig4_1,
    "fig4-2": fig4_2,
    "fig4-3": fig4_3,
    "fig4-4": fig4_4,
    "fig4-5": fig4_5,
    "fig4-6": fig4_6,
    "fig4-7": fig4_7,
    "fig4-8": fig4_8,
    "table5-1": table5_1,
    "sec5-1": sec5_1,
}


def run_all(
    idents: list[str] | None = None,
    *,
    workers: int = 1,
    cache: TraceCache | None = None,
    recorder: Recorder | None = None,
) -> list[Exhibit]:
    """Run the exhibits named by ``idents`` (default: all, in paper order).

    Every measured exhibit runs its cells through the engine with
    ``workers`` and ``cache`` (``None``: no disk cache).  ``recorder``
    (optional) receives one ``exhibit`` event per exhibit with its
    ident, title and wall time, so regenerating the paper's tables and
    figures can produce a machine-readable run report.
    """
    rec = active_recorder(recorder)
    engine = {"workers": workers, "cache": cache}
    exhibits: list[Exhibit] = []
    for ident in idents if idents is not None else ALL_EXHIBITS:
        factory = ALL_EXHIBITS[ident]
        params = inspect.signature(factory).parameters
        start = time.perf_counter()
        exhibit = factory(**{k: v for k, v in engine.items() if k in params})
        rec.emit(
            "exhibit",
            ident=exhibit.ident,
            title=exhibit.title,
            seconds=time.perf_counter() - start,
        )
        rec.incr("exhibits")
        exhibits.append(exhibit)
    return exhibits
