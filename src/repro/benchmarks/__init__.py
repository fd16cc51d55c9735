"""The eight-benchmark suite (ccom, grr, linpack, livermore, met,
stanford, whet, yacc)."""

from .. import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, globals(), {
    ".suite": ("Benchmark", "all_benchmarks", "default_options", "get",
               "measure", "run_benchmark"),
})

__all__ = [
    "Benchmark",
    "all_benchmarks",
    "default_options",
    "get",
    "measure",
    "run_benchmark",
    "suite",
]
