"""Machine taxonomy and parameterizable machine descriptions (Section 2)."""

from .. import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, globals(), {
    ".config": ("FunctionalUnit", "MachineConfig", "UNIT_LATENCIES",
                "unit"),
    ".metrics": ("PAPER_FREQUENCIES", "average_degree_of_superpipelining",
                 "dynamic_frequencies", "machine_degree",
                 "required_parallelism"),
    ".presets": ("CRAY1_LATENCIES", "MULTITITAN_LATENCIES", "base_machine",
                 "cray1", "ideal_superscalar", "multititan",
                 "paper_machines", "preset_names", "resolve",
                 "superpipelined", "superpipelined_superscalar",
                 "superscalar_with_class_conflicts",
                 "underpipelined_half_issue", "underpipelined_slow_cycle"),
})

__all__ = [
    "CRAY1_LATENCIES",
    "FunctionalUnit",
    "MULTITITAN_LATENCIES",
    "MachineConfig",
    "PAPER_FREQUENCIES",
    "UNIT_LATENCIES",
    "average_degree_of_superpipelining",
    "base_machine",
    "cray1",
    "dynamic_frequencies",
    "ideal_superscalar",
    "machine_degree",
    "multititan",
    "paper_machines",
    "preset_names",
    "required_parallelism",
    "resolve",
    "superpipelined",
    "superpipelined_superscalar",
    "superscalar_with_class_conflicts",
    "underpipelined_half_issue",
    "underpipelined_slow_cycle",
    "unit",
]
