"""Pipeline instruction scheduling: dependence DAG + pluggable backends.

The subsystem is organized around a backend registry
(:mod:`repro.sched.registry`): ``"list"`` (the paper's greedy
critical-path heuristic, the default), ``"swp"`` (modulo scheduling for
straight-line loop bodies), and ``"exact"`` (budgeted branch-and-bound
optimal block schedules).  Select a backend via
``CompilerOptions(scheduler=...)``, ``api.compile(..., scheduler=...)``
or the CLI's ``--scheduler``; every backend's output is checked by
:mod:`repro.sched.validate`.  ``schedule_block`` remains the historical
list-scheduler entry point.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, globals(), {
    ".dag": ("DepDAG", "build_dag"),
    ".listsched": ("schedule_block",),
    ".registry": ("SchedulerBackend",),
})

__all__ = [
    "DepDAG",
    "SchedulerBackend",
    "build_dag",
    "registry",
    "schedule_block",
    "validate",
]
