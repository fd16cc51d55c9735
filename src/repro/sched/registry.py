"""The scheduler-backend registry: one home for every scheduling policy.

A *backend* turns each basic block of a function into a new instruction
order for a target :class:`~repro.machine.config.MachineConfig`.  The
compile driver never names a concrete scheduler; it looks the configured
backend up here by name (``CompilerOptions.scheduler``), so schedulers
are pluggable:

* ``"list"``  — the paper's greedy critical-path list scheduler
  (:mod:`repro.sched.listsched`), the default;
* ``"swp"``   — modulo scheduling for straight-line loop bodies,
  list scheduling elsewhere (:mod:`repro.sched.swp`);
* ``"exact"`` — bounded branch-and-bound search for the provably best
  in-order issue sequence per block (:mod:`repro.sched.exact`).

Writing a backend means subclassing :class:`SchedulerBackend`,
implementing :meth:`~SchedulerBackend.schedule_block`, and calling
:func:`register` with an instance — see ``docs/schedulers.md``.  Every
backend's output is checked by :mod:`repro.sched.validate` (dependences
respected, resources never oversubscribed, every op placed exactly
once), and backend choice participates in
:meth:`CompilerOptions.fingerprint`, so the benchmark memo, the on-disk
trace cache, the run ledger, and ``repro diff`` all distinguish
schedules produced by different backends.
"""

from __future__ import annotations

import abc
import importlib

from ..errors import SchedulingError
from ..isa.program import BasicBlock, Function
from ..isa.registers import Reg
from ..machine.config import MachineConfig
from ..opt.options import AliasLevel

#: Heuristic spellings every backend accepts (the list scheduler's
#: tie-breaking priority; other backends apply it to their fallbacks).
KNOWN_HEURISTICS = ("critical-path", "source-order")


class SchedulerBackend(abc.ABC):
    """One scheduling policy, registered under a unique ``name``.

    Subclasses implement :meth:`schedule_block`; the default
    :meth:`schedule_function` drives it over every block of a function
    (skipping blocks of two instructions or fewer), which is the entry
    point the compile driver calls.  Backends needing
    function-level context (e.g. loop structure) override
    :meth:`schedule_function` or :meth:`prepare_function`.
    """

    #: unique registry key (``CompilerOptions.scheduler`` value)
    name: str = ""
    #: one-line human description (``api.schedulers()``, CLI errors)
    description: str = ""

    def prepare_function(self, fn: Function) -> None:
        """Hook: called once per function before its blocks are
        scheduled (loop analysis, shared tables...).  Default: no-op."""

    @abc.abstractmethod
    def schedule_block(
        self,
        block: BasicBlock,
        config: MachineConfig,
        alias_level: AliasLevel = AliasLevel.CONSERVATIVE,
        home_bindings: dict[str, Reg] | None = None,
        heuristic: str = "critical-path",
    ) -> None:
        """Reorder ``block.instrs`` in place for ``config``.

        The emitted order must be a permutation of the original
        instructions that respects the block's dependence DAG — run
        :func:`repro.sched.validate.check_schedule` before committing a
        new order (the bundled backends all do).
        """

    def schedule_function(
        self,
        fn: Function,
        config: MachineConfig,
        alias_level: AliasLevel = AliasLevel.CONSERVATIVE,
        heuristic: str = "critical-path",
    ) -> None:
        """Schedule every basic block of ``fn`` in place."""
        if heuristic not in KNOWN_HEURISTICS:
            raise SchedulingError(
                f"unknown scheduling heuristic {heuristic!r}"
            )
        self.prepare_function(fn)
        for block in fn.blocks:
            if len(block.instrs) > 2:
                self.schedule_block(
                    block, config, alias_level, fn.home_bindings, heuristic,
                )


_REGISTRY: dict[str, SchedulerBackend] = {}

#: The bundled backends and the modules that register them.  A module is
#: imported only when its backend is first looked up, so listing or
#: validating names loads no scheduler.
_BUNDLED = {"exact": "exact", "list": "listsched", "swp": "swp"}

#: Name used when ``CompilerOptions`` doesn't pin a backend explicitly.
_DEFAULT_NAME = "list"


def _load(name: str) -> None:
    """Import the bundled module that registers ``name``, if any."""
    module = _BUNDLED.get(name)
    if module is not None and name not in _REGISTRY:
        importlib.import_module(f".{module}", __package__)


def register(backend: SchedulerBackend) -> SchedulerBackend:
    """Add a backend to the registry; its ``name`` must be unique."""
    if not backend.name:
        raise ValueError("scheduler backend needs a non-empty name")
    _load(backend.name)
    if backend.name in _REGISTRY:
        raise ValueError(
            f"duplicate scheduler backend {backend.name!r}"
        )
    _REGISTRY[backend.name] = backend
    return backend


def names() -> list[str]:
    """Registered backend names (bundled ones included), sorted."""
    return sorted(_REGISTRY.keys() | _BUNDLED.keys())


def get(name: str) -> SchedulerBackend:
    """Look a backend up by name.

    Raises :class:`~repro.errors.SchedulingError` listing the registered
    backends when ``name`` is unknown — the CLI surfaces this message
    verbatim.
    """
    _load(name)
    backend = _REGISTRY.get(name)
    if backend is None:
        raise SchedulingError(
            f"unknown scheduler backend {name!r} "
            f"(registered: {', '.join(names())})"
        )
    return backend


def descriptions() -> dict[str, str]:
    """``{name: one-line description}`` for every registered backend."""
    return {name: get(name).description for name in names()}


def get_default() -> str:
    """The backend name new :class:`CompilerOptions` default to."""
    return _DEFAULT_NAME


def set_default(name: str) -> str:
    """Set the process-wide default backend; returns the previous name.

    Used by the CLI's ``--scheduler`` flag so every option set built
    downstream (per-benchmark defaults, exhibits, reports) picks the
    selected backend up.  The name is validated against the registry.
    """
    global _DEFAULT_NAME
    get(name)  # validates; raises SchedulingError with the known names
    previous = _DEFAULT_NAME
    _DEFAULT_NAME = name
    return previous
