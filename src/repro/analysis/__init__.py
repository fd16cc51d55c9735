"""Experiment drivers, statistics, and rendering for the paper's exhibits."""

from .. import _lazy

# The one eager import: ``sweep`` names both a submodule and the function
# re-exported from it.  Importing the submodule later would rebind the
# package attribute to the module, so it is bound here, once, to the
# function.
from .sweep import SweepRow, summarize, sweep

__getattr__, __dir__ = _lazy.exports(__name__, globals(), {
    ".blockstats": ("BlockStats", "block_stats"),
    ".experiments": ("ALL_EXHIBITS", "Exhibit", "run_all"),
    ".stats": ("geometric_mean", "harmonic_mean", "percent_change"),
    ".tables": ("format_table", "line_chart"),
})

__all__ = [
    "ALL_EXHIBITS",
    "BlockStats",
    "Exhibit",
    "SweepRow",
    "block_stats",
    "summarize",
    "sweep",
    "experiments",
    "format_table",
    "geometric_mean",
    "harmonic_mean",
    "line_chart",
    "percent_change",
    "pipeviz",
    "run_all",
]
