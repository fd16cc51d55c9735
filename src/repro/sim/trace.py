"""Dynamic instruction traces (block-structured, format v2).

The functional interpreter produces a :class:`Trace`: the sequence of
executed instructions plus the effective word address of every memory
operation.  The timing simulator replays a trace under a machine
configuration.

Traces deliberately contain *resolved* control flow — the paper assumes
perfect branch prediction / branch-slot filling, so the timing model never
needs to re-discover branch outcomes.

Storage format (v2)
-------------------
Executed instructions are stored run-length encoded: a *run* is a maximal
stretch of consecutive static indices ``start, start+1, ..., start+len-1``
executed back to back (straight-line code between taken control
transfers).  Effective addresses live in a flat side array ``mem_addrs``
with exactly one entry per dynamic *memory* operation, in execution
order — non-memory instructions carry no ``-1`` padding entry.  Loop
iterations therefore collapse to one ``(start, length)`` pair plus their
address chunk, which is what makes the memoized replay in
:mod:`repro.sim.replay` possible and shrinks pickled traces by an order
of magnitude.

The three integer streams (``run_starts``, ``run_lengths``,
``mem_addrs``) are stdlib ``array('i')`` buffers, 4 bytes per element,
not lists of boxed ints: a trace is replayed on many machines while
its compile group lives, so its footprint is every workload's floor.  The constructor (and so :meth:`Trace.from_runs`) and
unpickling coerce lists to arrays, so list-built traces and cache
entries written as lists load unchanged; a value outside int32 raises
:class:`~repro.errors.TraceError`.  Pickles carry the raw buffers, and
:meth:`Trace.fingerprint` hashes the streams as lists, so keys derived
from it do not depend on the storage.

The pre-v2 per-event views are kept as materializing properties
(:attr:`Trace.ops`, :attr:`Trace.addrs`) for code that genuinely wants
one entry per dynamic instruction.
"""

from __future__ import annotations

import hashlib
import pickle
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..errors import TraceError
from ..isa.instruction import Instruction
from ..isa.opcodes import InstrClass
from ..isa.registers import flat_index


def _too_wide(name: str, value) -> TraceError:
    return TraceError(f"{name} {value} does not fit a 32-bit trace stream")


def _int32(values, name: str) -> array:
    """``values`` as an ``array('i')``: returned as is when it already
    is one, else copied; a value outside int32 raises
    :class:`TraceError`."""
    if isinstance(values, array) and values.typecode == "i":
        return values
    try:
        return array("i", values)
    except OverflowError:
        bad = next((v for v in values if not -2**31 <= v < 2**31), "?")
        raise _too_wide(name, bad) from None


#: Every byte value whose top bit is clear.
_SIGN_CLEAR = bytes(range(0x80))


def _any_negative(values: array) -> bool:
    """Whether an int array holds a negative value, at C speed.

    The sign bit of a two's-complement item is the top bit of its most
    significant byte: copy those bytes out with one strided slice and
    delete every byte whose top bit is clear.  (``min()`` would box
    every item into a Python int, as slow as a Python loop.)
    """
    size = values.itemsize
    high = size - 1 if sys.byteorder == "little" else 0
    msb = bytes(memoryview(values).cast("B")[high::size])
    return bool(msb.translate(None, _SIGN_CLEAR))


@dataclass(slots=True)
class Trace:
    """A dynamic execution trace.

    ``static``: the static instruction table (flattened program).
    ``run_starts`` / ``run_lengths``: run-length encoded execution — run
    *k* executes static indices ``run_starts[k] .. run_starts[k] +
    run_lengths[k] - 1`` in order.
    ``mem_addrs``: effective word addresses, one per dynamic memory
    operation, in execution order.
    ``n``: total dynamic instruction count (sum of ``run_lengths``).
    """

    static: list[Instruction]
    run_starts: array = field(default_factory=lambda: array("i"))
    run_lengths: array = field(default_factory=lambda: array("i"))
    mem_addrs: array = field(default_factory=lambda: array("i"))
    n: int = 0
    #: Lazily built replay plan (see :func:`repro.sim.replay.plan_for`);
    #: derived data — never compared, never pickled.
    _plan: object = field(default=None, repr=False, compare=False)
    #: Lazily decoded static-table skeleton (see
    #: :func:`repro.sim.replay._static_skeleton`); same rules as ``_plan``.
    _skel: object = field(default=None, repr=False, compare=False)
    #: Cached timing-semantics fingerprint (see :meth:`fingerprint`);
    #: derived data — never compared, never pickled.
    _fp: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.run_starts = _int32(self.run_starts, "run start")
        self.run_lengths = _int32(self.run_lengths, "run length")
        self.mem_addrs = _int32(self.mem_addrs, "memory address")

    def __len__(self) -> int:
        return self.n

    @property
    def n_instructions(self) -> int:
        """Dynamic instruction count."""
        return self.n

    @property
    def n_runs(self) -> int:
        """Number of straight-line runs in the encoding."""
        return len(self.run_starts)

    def runs(self) -> Iterator[tuple[int, int]]:
        """Iterate over ``(start, length)`` runs in execution order."""
        return zip(self.run_starts, self.run_lengths)

    def append(self, static_index: int, addr: int = -1) -> None:
        """Record one executed instruction.

        Enforces the trace invariant the timing model depends on: a
        memory instruction must carry its effective word address (>= 0),
        and a non-memory instruction must not carry one (addr == -1) —
        violating either would silently corrupt store→load ordering.

        Consecutive static indices merge into one run.
        """
        if not 0 <= static_index < len(self.static):
            raise TraceError(
                f"static index {static_index} out of range "
                f"(table has {len(self.static)} instructions)"
            )
        self._fp = None
        if self.static[static_index].op.info.is_mem:
            if addr < 0:
                raise TraceError(
                    f"memory instruction {static_index} "
                    f"({self.static[static_index].op.name}) recorded "
                    "without an effective address"
                )
            try:
                self.mem_addrs.append(addr)
            except OverflowError:
                raise _too_wide("memory address", addr) from None
        elif addr >= 0:
            raise TraceError(
                f"non-memory instruction {static_index} "
                f"({self.static[static_index].op.name}) recorded with "
                f"address {addr}; expected addr=-1"
            )
        starts, lengths = self.run_starts, self.run_lengths
        if starts and starts[-1] + lengths[-1] == static_index:
            lengths[-1] += 1
        else:
            starts.append(static_index)
            lengths.append(1)
        self.n += 1
        self._plan = None

    @property
    def ops(self) -> list[int]:
        """Per-event static indices (materialized from the runs)."""
        out: list[int] = []
        extend = out.extend
        for start, length in zip(self.run_starts, self.run_lengths):
            extend(range(start, start + length))
        return out

    @property
    def addrs(self) -> list[int]:
        """Per-event effective addresses, ``-1`` for non-memory events
        (materialized from the side array)."""
        is_mem = [ins.op.info.is_mem for ins in self.static]
        mem_addrs = self.mem_addrs
        out: list[int] = []
        append = out.append
        m = 0
        for start, length in zip(self.run_starts, self.run_lengths):
            for si in range(start, start + length):
                if is_mem[si]:
                    append(mem_addrs[m])
                    m += 1
                else:
                    append(-1)
        return out

    def class_counts(self) -> Counter[InstrClass]:
        """Dynamic instruction-class histogram."""
        klass_of = [ins.op.klass for ins in self.static]
        counts: Counter[InstrClass] = Counter()
        for (start, length), times in Counter(
            zip(self.run_starts, self.run_lengths)
        ).items():
            for si in range(start, start + length):
                counts[klass_of[si]] += times
        return counts

    def instructions(self) -> Iterable[Instruction]:
        """Iterate over the executed instructions in order."""
        static = self.static
        for start, length in zip(self.run_starts, self.run_lengths):
            for si in range(start, start + length):
                yield static[si]

    def fingerprint(self) -> str:
        """Content hash of everything the timing model can observe.

        Covers the static skeleton (opcode name and class, flattened
        source/dest registers, load/store/conditional-branch flags), the
        run-length encoded execution, and the effective-address stream —
        and nothing else (immediates, labels, and comments are invisible
        to replay).  Two traces with equal fingerprints are
        timing-identical on every machine, so the hash keys the
        persistent replay-memo store (:mod:`repro.sim.memo`).  Computed
        once and cached; any :meth:`append` invalidates it.
        """
        fp = self._fp
        if fp is None:
            h = hashlib.sha256()
            for ins in self.static:
                info = ins.op.info
                h.update(repr((
                    ins.op.name,
                    ins.op.klass.name,
                    tuple(flat_index(r) for r in ins.srcs),
                    flat_index(ins.dest) if ins.dest is not None else -1,
                    info.is_load, info.is_store, info.is_cond_branch,
                )).encode("utf-8"))
            # The integer streams hash as one pickle of lists: C-speed
            # serialization, where repr() of a long list is not, and the
            # same bytes whatever the streams are stored as.
            h.update(b"|runs|mem|")
            h.update(pickle.dumps(
                (self.run_starts.tolist(), self.run_lengths.tolist(),
                 self.mem_addrs.tolist()),
                protocol=5))
            fp = h.hexdigest()
            self._fp = fp
        return fp

    def validate(self) -> None:
        """Check the v2 structural invariants; raise :class:`TraceError`.

        O(runs + static): run bounds, length/total consistency, and the
        memory-address side array matching the dynamic memory-op count.
        Used by the on-disk trace cache to reject stale or corrupt
        entries instead of deserializing them into garbage.
        """
        starts, lengths = self.run_starts, self.run_lengths
        if len(starts) != len(lengths):
            raise TraceError(
                f"run encoding mismatch: {len(starts)} starts vs "
                f"{len(lengths)} lengths"
            )
        n_static = len(self.static)
        mem_prefix = [0] * (n_static + 1)
        acc = 0
        for i, ins in enumerate(self.static):
            if ins.op.info.is_mem:
                acc += 1
            mem_prefix[i + 1] = acc
        total = 0
        n_mem = 0
        for start, length in zip(starts, lengths):
            if length <= 0:
                raise TraceError(f"non-positive run length {length}")
            if start < 0 or start + length > n_static:
                raise TraceError(
                    f"run [{start}, {start + length}) out of range "
                    f"(table has {n_static} instructions)"
                )
            total += length
            n_mem += mem_prefix[start + length] - mem_prefix[start]
        if total != self.n:
            raise TraceError(
                f"declared {self.n} dynamic instructions, runs encode "
                f"{total}"
            )
        if n_mem != len(self.mem_addrs):
            raise TraceError(
                f"{n_mem} dynamic memory operations but "
                f"{len(self.mem_addrs)} recorded addresses"
            )
        addrs = self.mem_addrs
        if _any_negative(addrs):
            first = next(addr for addr in addrs if addr < 0)
            raise TraceError(f"negative effective address {first}")

    @classmethod
    def from_runs(
        cls,
        static: list[Instruction],
        run_starts: Sequence[int],
        run_lengths: Sequence[int],
        mem_addrs: Sequence[int],
    ) -> "Trace":
        """Build (and validate) a trace directly from its v2 encoding."""
        trace = cls(
            static=static,
            run_starts=run_starts,
            run_lengths=run_lengths,
            mem_addrs=mem_addrs,
            n=sum(run_lengths),
        )
        trace.validate()
        return trace

    @staticmethod
    def from_instructions(
        instrs: Sequence[Instruction],
        addrs: Sequence[int] | None = None,
    ) -> "Trace":
        """Build a trace that executes ``instrs`` once, in order.

        Intended for tests and for the pipeline-diagram figures: each
        instruction is its own static entry.  ``addrs`` supplies effective
        addresses for memory operations; by default a memory instruction
        uses its immediate offset as the address (i.e. base register 0).
        """
        trace = Trace(static=list(instrs))
        for i, ins in enumerate(instrs):
            if ins.op.info.is_mem:
                if addrs is not None:
                    addr = addrs[i]
                else:
                    addr = int(ins.imm or 0)
            else:
                addr = -1
            trace.append(i, addr)
        return trace

    # The replay plan is derived data: keep it out of pickles (the
    # on-disk trace cache) so cached entries stay small and the plan
    # implementation can evolve without invalidating them.
    def __getstate__(self):
        return (self.static, self.run_starts, self.run_lengths,
                self.mem_addrs, self.n)

    def __setstate__(self, state):
        (self.static, self.run_starts, self.run_lengths,
         self.mem_addrs, self.n) = state
        self._plan = None
        self._skel = None
        self._fp = None
        # Entries pickled while the streams were lists load as arrays;
        # one that cannot be coerced is an unreadable pickle.
        try:
            self.__post_init__()
        except TraceError as exc:
            raise pickle.UnpicklingError(str(exc)) from exc
