"""repro: a reproduction of Jouppi & Wall (ASPLOS 1989),
"Available Instruction-Level Parallelism for Superscalar and
Superpipelined Machines".

The package rebuilds the paper's measurement apparatus end to end:

* :mod:`repro.lang` — the Tin mini-language and its compiler front end;
* :mod:`repro.opt` — classical local/global optimization, loop unrolling,
  and register allocation (temporaries + home registers);
* :mod:`repro.sched` — the pipeline instruction scheduler;
* :mod:`repro.machine` — parameterizable machine descriptions
  (superscalar degree n, superpipelining degree m, functional units);
* :mod:`repro.sim` — functional interpreter and in-order timing model;
* :mod:`repro.benchmarks` — the eight-benchmark suite;
* :mod:`repro.analysis` — drivers that regenerate every table and figure.

Scripts should use the stable facade :mod:`repro.api` (re-exported
here, loaded on first use), which covers
compile/run/simulate/measure/sweep without touching internal modules.

Quickstart::

    import repro.api as api

    result = api.run("proc main(): int { return 6 * 7; }")
    assert result.value == 42
    timing = api.measure("linpack", "superscalar:4")
"""

from __future__ import annotations

__version__ = "1.0.0"

# Nothing is imported eagerly: the subpackages and the facade load on
# first attribute access (see repro._lazy).
from . import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, globals(), {
    ".sim.interp": ("RunResult",),
    ".api": ("measure", "simulate", "sweep"),
})


def compile_source(source: str, options=None):
    """Compile Tin source text into a :class:`repro.isa.Program`.

    ``options`` is a :class:`repro.opt.CompilerOptions`; ``None`` compiles
    at the default optimization level.  Defined here as the package's
    front door; the heavy lifting lives in :mod:`repro.opt.driver`.
    """
    from .opt.driver import compile_source as _compile

    return _compile(source, options)


def compile_and_run(source: str, options=None, **run_kwargs) -> RunResult:
    """Compile and functionally execute Tin source; returns the run result."""
    from .sim.interp import run

    return run(compile_source(source, options), **run_kwargs)


__all__ = [
    "RunResult",
    "__version__",
    "api",
    "compile_and_run",
    "compile_source",
    "errors",
    "isa",
    "lang",
    "machine",
    "measure",
    "sim",
    "simulate",
    "sweep",
]
