"""Deterministic fault injection for the execution engine.

The resilience layer (:mod:`repro.engine.resilience`) is only credible
if worker crashes, hangs, corrupt payloads and cache corruption can be
produced on demand, deterministically, in CI.  A :class:`FaultPlan`
describes *which* cells fail and *how often*; the engine threads the
plan into every worker, so the decision to fire is a pure function of
``(kind, benchmark, machine, attempt, seed)`` — no shared mutable
state, no wall clock, identical across processes and re-runs.

Syntax (the ``REPRO_FAULTS`` environment variable, or
:meth:`FaultPlan.parse`)::

    plan  = entry { (',' | ';') entry }
    entry = spec | 'seed=' INT | 'hang=' SECONDS
    spec  = kind '@' benchmark [ '/' machine ] [ '#' count ] [ '~' prob ]

with ``benchmark``/``machine`` either a name or ``*`` (any), ``count``
the number of attempts that fire (default ``1`` — the first attempt
fails and the retry succeeds; ``inf`` never stops), and ``prob`` a
seeded pseudo-random gate in ``[0, 1]`` for randomized-but-reproducible
chaos runs.  Machine names are matched loosely (``superscalar:4`` ==
``SuperScalar-4``).

Kinds:

* ``crash``          — the worker process dies via ``os._exit`` (in the
  parent process the same spec raises :class:`InjectedFaultError`);
* ``hang``           — the worker blocks until the supervisor's
  per-group timeout kills the pool (bounded by ``hang=`` seconds as a
  backstop);
* ``corrupt-result`` — the worker returns a structurally invalid
  :class:`~repro.engine.executor.CellResult` payload;
* ``corrupt-cache``  — the trace-cache entry the group just wrote is
  truncated in place (a simulated partial write, see
  :func:`truncate_entry`);
* ``error``          — a deterministic in-cell exception, classified as
  non-transient by the retry policy (fails fast, no retries);
* ``kill``           — the *parent* process dies via ``SIGKILL`` at a
  workflow-node boundary (:mod:`repro.flow` fires it after journaling
  the matching node; the benchmark slot names a node or its 1-based
  completion ordinal);
* ``torn-write``     — a workflow checkpoint is truncated the same way
  (same site grammar as ``kill``); the flow state store's structural
  validation must drop the entry and recompute on resume.

Examples::

    REPRO_FAULTS='crash@whet'                  # first whet attempt dies
    REPRO_FAULTS='hang@linpack/base,hang=0.5'  # linpack-on-base blocks
    REPRO_FAULTS='corrupt-result@stanford#2'   # two corrupt attempts
    REPRO_FAULTS='crash@*~0.25,seed=7'         # 25% of groups, seeded
    REPRO_FAULTS='kill@3'                      # SIGKILL after node 3
    REPRO_FAULTS='torn-write@5'                # tear node 5's checkpoint
"""

from __future__ import annotations

import os
import re
import signal
import time
import zlib
from dataclasses import dataclass, replace

from ..errors import ReproError

#: Recognized fault kinds, in documentation order.
FAULT_KINDS = ("crash", "hang", "corrupt-result", "corrupt-cache", "error",
               "kill", "torn-write")

#: Environment variable holding the default fault plan.
ENV_VAR = "REPRO_FAULTS"

#: Exit status an injected worker crash dies with (distinctive in logs).
FAULT_EXIT_CODE = 87

#: A crash/hang fault keeps firing forever with this count.
INFINITE = 1 << 30

_SPEC_RE = re.compile(
    r"^(?P<kind>[a-z-]+)@(?P<bench>[^/#~]+)"
    r"(?:/(?P<machine>[^#~]+))?"
    r"(?:#(?P<count>\d+|inf))?"
    r"(?:~(?P<prob>[0-9.]+))?$"
)


class InjectedFaultError(ReproError):
    """An injected fault firing in a context where it must raise.

    ``kind`` is the fault kind that fired; ``site`` names the cell.
    """

    def __init__(self, kind: str, site: str) -> None:
        super().__init__(f"injected {kind} fault at {site}")
        self.kind = kind
        self.site = site

    def __reduce__(self):  # keep picklable across process boundaries
        return (InjectedFaultError, (self.kind, self.site))


def _normalize_machine(name: str) -> str:
    """Loose machine-name form: lowercase, ``:`` and ``_`` become ``-``."""
    return name.strip().lower().replace(":", "-").replace("_", "-")


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One parsed fault directive."""

    kind: str
    benchmark: str = "*"
    machine: str = "*"
    count: int = 1
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} "
                f"(choose from {', '.join(FAULT_KINDS)})"
            )
        if self.count < 0:
            raise ValueError("fault count must be >= 0")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("fault probability must be within [0, 1]")

    def matches(self, kind: str, benchmark: str, machine: str) -> bool:
        if kind != self.kind:
            return False
        if self.benchmark != "*" and self.benchmark != benchmark:
            return False
        if self.machine != "*" and \
                _normalize_machine(self.machine) != _normalize_machine(machine):
            return False
        return True


def _parse_spec(token: str) -> FaultSpec:
    match = _SPEC_RE.match(token)
    if match is None:
        raise ValueError(
            f"malformed fault spec {token!r} "
            "(expected kind@benchmark[/machine][#count][~prob])"
        )
    count = match.group("count")
    return FaultSpec(
        kind=match.group("kind"),
        benchmark=match.group("bench").strip(),
        machine=(match.group("machine") or "*").strip(),
        count=INFINITE if count == "inf" else int(count or 1),
        probability=float(match.group("prob") or 1.0),
    )


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """An immutable, picklable set of fault directives.

    The empty plan (:data:`NO_FAULTS`) is falsy and free to thread
    everywhere; every query against it answers "don't fire".
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0
    #: Backstop for ``hang`` faults: the worker unblocks (and raises)
    #: after this long even if no supervisor ever kills it.
    hang_seconds: float = 600.0

    def __bool__(self) -> bool:
        return bool(self.specs)

    @classmethod
    def parse(cls, text: str | None) -> "FaultPlan":
        """Parse a ``REPRO_FAULTS``-syntax plan (``None``/empty → no-op)."""
        if not text or not text.strip():
            return cls()
        specs: list[FaultSpec] = []
        seed = 0
        hang_seconds = 600.0
        for token in re.split(r"[;,]", text):
            token = token.strip()
            if not token:
                continue
            if token.startswith("seed="):
                seed = int(token[len("seed="):])
            elif token.startswith("hang="):
                hang_seconds = float(token[len("hang="):])
            else:
                specs.append(_parse_spec(token))
        return cls(specs=tuple(specs), seed=seed,
                   hang_seconds=hang_seconds)

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan":
        """The plan named by ``$REPRO_FAULTS`` (empty plan when unset)."""
        env = os.environ if environ is None else environ
        return cls.parse(env.get(ENV_VAR))

    # ------------------------------------------------------------------
    # firing decisions

    def _gate(self, spec: FaultSpec, kind: str, benchmark: str,
              machine: str, attempt: int) -> bool:
        if spec.probability >= 1.0:
            return True
        token = f"{self.seed}|{kind}|{benchmark}|{machine}|{attempt}"
        draw = (zlib.crc32(token.encode("utf-8")) & 0xFFFFFFFF) / 2**32
        return draw < spec.probability

    def should_fire(self, kind: str, benchmark: str, machine: str,
                    attempt: int) -> bool:
        """True when a spec covers this (cell, attempt) decision point.

        Pure and deterministic: the same arguments (plus the plan's
        seed) always answer the same way, in any process.
        """
        for spec in self.specs:
            if not spec.matches(kind, benchmark, machine):
                continue
            if attempt > spec.count:
                continue
            if self._gate(spec, kind, benchmark, machine, attempt):
                return True
        return False

    # ------------------------------------------------------------------
    # firing actions (called from the engine's group runner)

    def fire_group_faults(self, benchmark: str, machine_names: list[str],
                          attempt: int, in_worker: bool) -> None:
        """Trigger crash/hang/error faults at group entry, if any match.

        In a worker process a crash really kills the process and a hang
        really blocks; in the parent (serial path, degradation rerun)
        both raise :class:`InjectedFaultError` instead, because killing
        or blocking the supervisor would defeat supervision.
        """
        for kind in ("crash", "hang", "error"):
            for machine in machine_names:
                if not self.should_fire(kind, benchmark, machine, attempt):
                    continue
                site = f"{benchmark}/{machine}"
                if kind == "crash" and in_worker:
                    os._exit(FAULT_EXIT_CODE)
                if kind == "hang" and in_worker:
                    deadline = time.monotonic() + self.hang_seconds
                    while time.monotonic() < deadline:
                        time.sleep(0.05)
                raise InjectedFaultError(kind, site)

    def maybe_corrupt_cell(self, cell, attempt: int):
        """Return ``cell`` or a structurally corrupted copy of it.

        The corruption (a negative instruction count) survives pickling
        but fails the parent's payload validation, exactly like a
        half-transferred or bit-flipped result would.
        """
        if self.should_fire("corrupt-result", cell.benchmark, cell.machine,
                            attempt):
            return replace(cell, instructions=-1)
        return cell

    # ------------------------------------------------------------------
    # workflow-node faults (fired by repro.flow at node boundaries)

    def _node_matches(self, kind: str, node: str, ordinal: int) -> bool:
        """True when a ``kind`` spec covers this node boundary.

        The spec's benchmark slot names either the node (exact match),
        its 1-based completion ordinal, or ``*`` (every boundary); the
        probability gate uses the ordinal as the attempt token, so
        randomized chaos runs stay reproducible.
        """
        for spec in self.specs:
            if spec.kind != kind:
                continue
            if spec.benchmark not in ("*", node, str(ordinal)):
                continue
            if ordinal > spec.count and spec.benchmark == "*":
                continue
            if self._gate(spec, kind, node, "*", ordinal):
                return True
        return False

    def fire_kill(self, node: str, ordinal: int, *,
                  kill_action=None) -> None:
        """SIGKILL the calling process at a node boundary, if matched.

        ``kill_action`` replaces the real SIGKILL for in-process tests;
        the default is a genuine, uncatchable ``os.kill``.
        """
        if not self._node_matches("kill", node, ordinal):
            return
        if kill_action is not None:
            kill_action(node, ordinal)
            return
        os.kill(os.getpid(), signal.SIGKILL)

    def maybe_tear_checkpoint(self, store, key: str, node: str,
                              ordinal: int) -> bool:
        """Tear the checkpoint for ``key`` when a ``torn-write`` spec
        matches this node boundary; returns True when it was torn."""
        return (self._node_matches("torn-write", node, ordinal)
                and truncate_entry(store, key))

    def maybe_corrupt_cache(self, cache, key: str, benchmark: str,
                            attempt: int) -> None:
        """Tear the cache entry for ``key`` when a ``corrupt-cache`` spec
        fires for this group attempt."""
        if self.should_fire("corrupt-cache", benchmark, "*", attempt):
            truncate_entry(cache, key)


def truncate_entry(store, key: str) -> bool:
    """Cut a store's entry for ``key`` to half its size, as a partial
    write would; returns True when an entry was cut.  The store's read
    validation must then drop it as corrupt."""
    if not store.enabled:
        return False
    try:
        path = store.path_for(key)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(max(1, size // 2))
    except OSError:
        return False
    return True


#: Shared empty plan; safe to pass anywhere a plan is expected.
NO_FAULTS = FaultPlan()
