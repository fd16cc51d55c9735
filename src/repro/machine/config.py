"""Parameterizable machine descriptions.

This mirrors the paper's Section 3 interface: "This interface allows us to
specify details about the pipeline, functional units, cache, and register
set."  A :class:`MachineConfig` specifies

* the superscalar issue width *n* (instructions per cycle),
* the superpipelining degree *m* (minor cycles per base cycle),
* an operation latency per instruction class, **in minor cycles**,
* optional functional units, each with an issue latency and a multiplicity
  (class conflicts arise when units are scarcer than the issue width), and
* an upper limit on instructions issued per cycle (= the issue width).

Time inside the timing simulator is counted in minor cycles; dividing by
``superpipeline_degree`` converts to base-machine cycles, which is the unit
all results are reported in.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Iterable, Mapping

from ..errors import MachineConfigError
from ..isa.opcodes import InstrClass

#: Latency table with every class at one cycle (the base machine).
UNIT_LATENCIES: Mapping[InstrClass, int] = MappingProxyType(
    {klass: 1 for klass in InstrClass}
)


@dataclass(frozen=True, slots=True)
class FunctionalUnit:
    """A functional-unit type.

    ``classes``: instruction classes served by this unit type.
    ``issue_latency``: minor cycles between successive issues to one copy
    ("that unit is unable to issue another instruction until three cycles
    later", Section 3).
    ``multiplicity``: number of identical copies.
    """

    name: str
    classes: frozenset[InstrClass]
    issue_latency: int = 1
    multiplicity: int = 1

    def __post_init__(self) -> None:
        if self.issue_latency < 1:
            raise MachineConfigError(
                f"unit {self.name}: issue latency must be >= 1"
            )
        if self.multiplicity < 1:
            raise MachineConfigError(
                f"unit {self.name}: multiplicity must be >= 1"
            )


def unit(
    name: str,
    classes: Iterable[InstrClass],
    issue_latency: int = 1,
    multiplicity: int = 1,
) -> FunctionalUnit:
    """Convenience constructor for :class:`FunctionalUnit`."""
    return FunctionalUnit(
        name=name,
        classes=frozenset(classes),
        issue_latency=issue_latency,
        multiplicity=multiplicity,
    )


@dataclass(frozen=True)
class MachineConfig:
    """A complete machine description.

    With an empty ``units`` tuple the machine is *ideal*: any mix of
    instruction classes can issue each cycle, limited only by the issue
    width and operand readiness (no class conflicts).
    """

    name: str
    issue_width: int = 1
    superpipeline_degree: int = 1
    latencies: Mapping[InstrClass, int] = field(
        default_factory=lambda: UNIT_LATENCIES
    )
    units: tuple[FunctionalUnit, ...] = ()
    #: Base cycles per machine cycle; > 1 models an *underpipelined*
    #: machine whose cycle time exceeds a simple-operation time (Fig 2-2).
    cycle_scale: int = 1
    #: "perfect" — the paper's assumption: perfect branch prediction /
    #: branch-slot filling, so control flow never stalls issue.
    #: "stall" — no prediction: nothing issues until a conditional
    #: branch resolves (its operation latency after issue); this is the
    #: control-flow inhibition of Riseman & Foster that the paper's
    #: model deliberately excludes.
    branch_policy: str = "perfect"

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise MachineConfigError("issue width must be >= 1")
        if self.superpipeline_degree < 1:
            raise MachineConfigError("superpipeline degree must be >= 1")
        if self.cycle_scale < 1:
            raise MachineConfigError("cycle scale must be >= 1")
        if self.branch_policy not in ("perfect", "stall"):
            raise MachineConfigError(
                f"unknown branch policy {self.branch_policy!r}"
            )
        missing = [k for k in InstrClass if k not in self.latencies]
        if missing:
            raise MachineConfigError(
                f"{self.name}: no latency for classes "
                f"{[k.value for k in missing]}"
            )
        for klass, lat in self.latencies.items():
            if lat < 1:
                raise MachineConfigError(
                    f"{self.name}: latency of {klass.value} must be >= 1"
                )
        if self.units:
            covered: set[InstrClass] = set()
            for u in self.units:
                covered |= u.classes
            uncovered = set(InstrClass) - covered
            if uncovered:
                raise MachineConfigError(
                    f"{self.name}: no functional unit covers "
                    f"{sorted(k.value for k in uncovered)}"
                )
        # Freeze the latency table so configs are safely shareable.
        object.__setattr__(
            self, "latencies", MappingProxyType(dict(self.latencies))
        )

    # The frozen latency table is a mappingproxy, which pickle refuses;
    # round-trip it through a plain dict so configs can cross process
    # boundaries (the execution engine ships them to pool workers).
    def __getstate__(self) -> dict:
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        state["latencies"] = dict(self.latencies)
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        object.__setattr__(
            self, "latencies", MappingProxyType(dict(state["latencies"]))
        )

    def fingerprint(self) -> tuple:
        """Canonical value covering *every* field that can change timing
        or scheduling behaviour.

        This is the machine component of the compile-cache key: the
        engine's compile groups and its content-addressed on-disk cache
        both derive their keys from it, so the two can never disagree
        about what makes two configurations equivalent.
        """
        return (
            self.name,
            self.issue_width,
            self.superpipeline_degree,
            self.cycle_scale,
            self.branch_policy,
            tuple(sorted(
                (klass.value, lat) for klass, lat in self.latencies.items()
            )),
            tuple(
                (u.name, tuple(sorted(k.value for k in u.classes)),
                 u.issue_latency, u.multiplicity)
                for u in self.units
            ),
        )

    @property
    def is_ideal(self) -> bool:
        """True when the machine has no functional-unit (class) limits."""
        return not self.units

    def latency_of(self, klass: InstrClass) -> int:
        """Operation latency of a class in minor cycles."""
        return self.latencies[klass]

    def minor_to_base(self, minor_cycles: float) -> float:
        """Convert a minor-cycle count to base-machine cycles."""
        return minor_cycles * self.cycle_scale / self.superpipeline_degree

    def with_issue_width(self, width: int) -> "MachineConfig":
        """A copy of this config with a different issue width."""
        return MachineConfig(
            name=f"{self.name}/w{width}",
            issue_width=width,
            superpipeline_degree=self.superpipeline_degree,
            latencies=dict(self.latencies),
            units=self.units,
            cycle_scale=self.cycle_scale,
            branch_policy=self.branch_policy,
        )

    def with_branch_policy(self, policy: str) -> "MachineConfig":
        """A copy with a different branch policy ("perfect" / "stall")."""
        return MachineConfig(
            name=f"{self.name}/br-{policy}",
            issue_width=self.issue_width,
            superpipeline_degree=self.superpipeline_degree,
            latencies=dict(self.latencies),
            units=self.units,
            cycle_scale=self.cycle_scale,
            branch_policy=policy,
        )

    def with_unit_latencies(self) -> "MachineConfig":
        """A copy with every operation latency forced to one cycle.

        This reproduces the methodological mistake the paper criticises in
        Section 4.2 ("instruction issue methods have been compared for the
        CRAY-1 assuming all functional units have 1 cycle latency").
        """
        return MachineConfig(
            name=f"{self.name}/unit-lat",
            issue_width=self.issue_width,
            superpipeline_degree=self.superpipeline_degree,
            latencies={k: 1 for k in InstrClass},
            units=self.units,
            cycle_scale=self.cycle_scale,
            branch_policy=self.branch_policy,
        )
