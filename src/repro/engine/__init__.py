"""Parallel execution engine for benchmark x machine x options grids.

The paper's results are a grid of (benchmark, CompilerOptions,
MachineConfig) measurements.  This package turns such a grid into an
explicit :class:`~repro.engine.plan.Plan` of cells and executes it:

* serially (``workers=1``) — bit-identical to looping inline, or
* across a :class:`concurrent.futures.ProcessPoolExecutor`, with cells
  grouped by compile unit so each trace is built once, and

with an optional content-addressed on-disk cache
(:class:`~repro.engine.cache.TraceCache`) keyed by source hash + option
fingerprint + package version, so recompilation is skipped across runs
and across processes.

Everything the engine returns (cell results, stall breakdowns, engine
statistics) is picklable, and results are reassembled in plan order, so
parallel sweeps are bit-identical to serial ones.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, globals(), {
    "..store": ("CacheStats",),
    ".cache": ("DEFAULT_CACHE_DIR", "NULL_TRACE_CACHE", "TraceCache",
               "open_cache", "trace_key"),
    ".executor": ("CellResult", "EngineReport", "EngineResult", "execute"),
    ".faults": ("NO_FAULTS", "FaultPlan", "FaultSpec", "InjectedFaultError"),
    ".plan": ("Cell", "Plan", "plan_sweep"),
    ".resilience": ("CELL_STATUSES", "CellError", "ResourceLimits",
                    "RetryPolicy", "failure_manifest",
                    "install_sigterm_handler"),
})

__all__ = [
    "CELL_STATUSES",
    "Cell",
    "CellError",
    "CellResult",
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "EngineReport",
    "EngineResult",
    "FaultPlan",
    "FaultSpec",
    "InjectedFaultError",
    "NO_FAULTS",
    "NULL_TRACE_CACHE",
    "Plan",
    "ResourceLimits",
    "RetryPolicy",
    "TraceCache",
    "execute",
    "failure_manifest",
    "install_sigterm_handler",
    "open_cache",
    "plan_sweep",
    "trace_key",
]
