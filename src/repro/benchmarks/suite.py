"""The eight-benchmark suite and its compile/run/measure plumbing.

Mirrors the paper's Section 4 suite (ccom, grr, linpack, livermore, met,
stanford, whet, yacc) with synthetic equivalents written in Tin — see
DESIGN.md for the substitution argument per benchmark.

Every benchmark is self-checking: its ``main`` returns an integer
checksum, and the module provides a pure-Python :func:`reference`
implementation computing the same value.  The integration tests compare
the two at every optimization level, which exercises the whole compiler.

Nothing here is memoized: :func:`run_benchmark` compiles and executes
on every call.  Callers that measure many machines or repeat a compile
unit go through :func:`repro.api.sweep` (the execution engine), which
compiles each unit once per run and consults the on-disk trace cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..machine.config import MachineConfig
from ..obs.trace import NULL_TRACER, Tracer
from ..opt.options import CompilerOptions
from ..sim.interp import RunResult, run
from ..sim.timing import TimingResult, simulate


@dataclass(frozen=True)
class Benchmark:
    """One benchmark program."""

    name: str
    description: str
    source: Callable[[], str]
    reference: Callable[[], int]
    #: checksum tolerance under reassociating (careful-unroll) compiles
    fp_tolerance: int = 0
    #: options the paper's "official" version implies (e.g. linpack's
    #: inner loops come unrolled four times)
    default_overrides: dict = field(default_factory=dict, hash=False)


_REGISTRY: dict[str, Benchmark] = {}


def register(benchmark: Benchmark) -> Benchmark:
    """Add a benchmark to the global registry."""
    if benchmark.name in _REGISTRY:
        raise ValueError(f"duplicate benchmark {benchmark.name!r}")
    _REGISTRY[benchmark.name] = benchmark
    return benchmark


def all_benchmarks() -> list[Benchmark]:
    """The suite in the paper's listing order."""
    _ensure_loaded()
    order = ["ccom", "grr", "linpack", "livermore", "met", "stanford",
             "whet", "yacc"]
    return [_REGISTRY[name] for name in order if name in _REGISTRY]


def get(name: str) -> Benchmark:
    """Look a benchmark up by name."""
    _ensure_loaded()
    return _REGISTRY[name]


def _ensure_loaded() -> None:
    """Import the program modules (they self-register)."""
    import importlib

    for name in ("ccom", "grr", "linpack", "livermore", "met", "stanford",
                 "whet", "yacc"):
        try:
            importlib.import_module(f"repro.benchmarks.programs.{name}")
        except ModuleNotFoundError as exc:
            if name not in str(exc):
                raise


def run_benchmark(
    benchmark: Benchmark | str,
    options: CompilerOptions | None = None,
    max_instructions: int | None = None,
    tracer: Tracer = NULL_TRACER,
) -> RunResult:
    """Compile and functionally execute a benchmark (not memoized).

    ``max_instructions`` tightens the interpreter's runaway guard for
    this call (the engine's per-cell instruction budget).  ``tracer``
    receives the compile driver's ``pass.*`` spans.  Every call
    compiles afresh; measure many machines on one compile unit with
    :func:`repro.api.sweep`.
    """
    if isinstance(benchmark, str):
        benchmark = get(benchmark)
    opts = options or default_options(benchmark)
    from ..opt.driver import compile_source

    program = compile_source(benchmark.source(), opts, tracer)
    if max_instructions is None:
        return run(program)
    return run(program, max_instructions=max_instructions)


def parse_benchmark_list(
    tokens: "list[str] | str | None",
) -> list[str] | None:
    """Parse a user-supplied benchmark list into validated names.

    Accepts a single string or a list of tokens, each comma- and/or
    whitespace-separated (``"linpack,whet"``, ``["linpack", "whet"]``,
    ``["linpack,whet", "yacc"]``).  ``None`` (and an empty selection)
    mean "the whole suite" and return ``None``.  Unknown names raise
    ``ValueError`` listing the suite; this is the one benchmark-list
    parser shared by the measure/suite/report commands and the API.
    """
    if tokens is None:
        return None
    if isinstance(tokens, str):
        tokens = [tokens]
    names = [name for tok in tokens
             for name in tok.replace(",", " ").split()]
    if not names:
        return None
    known = {b.name for b in all_benchmarks()}
    unknown = [n for n in names if n not in known]
    if unknown:
        raise ValueError(
            f"unknown benchmark(s): {', '.join(unknown)} "
            f"(choose from {', '.join(sorted(known))})"
        )
    return names


def default_options(benchmark: Benchmark, **kwargs) -> CompilerOptions:
    """The benchmark's default compile options, with overrides applied."""
    merged = dict(benchmark.default_overrides)
    merged.update(kwargs)
    return CompilerOptions(**merged)


def measure(
    benchmark: Benchmark | str,
    config: MachineConfig,
    options: CompilerOptions | None = None,
    observe: bool = False,
) -> TimingResult:
    """Run a benchmark and replay its trace on ``config``.

    ``observe=True`` attaches per-cause stall attribution to the result
    (see :mod:`repro.obs.stalls`); the default path is unchanged.  Each
    call compiles afresh; measure many machines with
    :func:`repro.api.sweep`.
    """
    result = run_benchmark(benchmark, options)
    return simulate(result.trace, config, observe=observe)

