"""Functional and timing simulation."""

from .. import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, globals(), {
    ".cache": ("CacheConfig", "CacheResult", "ICacheResult",
               "simulate_with_cache", "simulate_with_icache"),
    ".interp": ("RunResult", "flatten", "run"),
    ".limits": ("branch_inhibition", "dataflow_limit",
                "simulate_out_of_order"),
    ".timing": ("TimingResult", "issue_schedule", "parallelism", "simulate"),
    ".trace": ("Trace",),
})

__all__ = [
    "CacheConfig",
    "CacheResult",
    "ICacheResult",
    "RunResult",
    "TimingResult",
    "Trace",
    "branch_inhibition",
    "dataflow_limit",
    "flatten",
    "issue_schedule",
    "parallelism",
    "run",
    "simulate",
    "simulate_out_of_order",
    "simulate_with_cache",
    "simulate_with_icache",
]
