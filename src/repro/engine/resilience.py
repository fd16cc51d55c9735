"""Fault-tolerant supervision for the execution engine.

The plain pool path in :mod:`repro.engine.executor` dies with the first
hung cell, OOM-killed worker, or ``BrokenProcessPool``.  This module
wraps the same group-level work units in a supervising loop that treats
those events as expected:

* **per-group wall-clock timeouts** — a group that outlives
  ``RetryPolicy.group_timeout`` is declared hung; the pool is killed and
  respawned, and only unfinished groups are requeued (innocent in-flight
  groups are *not* charged an attempt);
* **bounded retries with exponential backoff + jitter** — transient
  failures (crash, hang, corrupt payload) requeue the group until
  ``RetryPolicy.max_attempts`` worker attempts are spent; the jitter is
  a seeded hash, so schedules are reproducible;
* **``BrokenProcessPool`` recovery** — a dead worker kills the pool;
  every in-flight group is charged one ``crash`` attempt (the culprit is
  unknowable), the pool is respawned, and work continues;
* **graceful degradation to serial** — a group that exhausts its worker
  retry budget is re-run once in-process; only if that also fails is it
  marked ``failed``;
* **fail-fast classification** — deterministic errors
  (:class:`~repro.errors.InterpBudgetError` budget overruns,
  :class:`~repro.errors.ResourceLimitError` RSS ceilings, compiler
  errors) would fail identically on every retry, so they skip the
  ladder and fail immediately with a typed :class:`CellError`.

The degradation ladder, per group::

    worker attempt 1..max_attempts  →  one serial in-process rerun  →  failed
    (transient errors only; deterministic errors jump straight to failed)

Every outcome is a :class:`GroupOutcome` carrying a structured status —
``ok`` / ``retried`` / ``degraded`` / ``failed`` — plus the full attempt
history, which the executor stamps onto each
:class:`~repro.engine.executor.CellResult`.
"""

from __future__ import annotations

import heapq
import signal
import sys
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field

from ..errors import InterpBudgetError, ReproError, ResourceLimitError
from ..obs.resource import max_rss_mb
from ..obs.trace import NULL_TRACER, Tracer
from .faults import NO_FAULTS, FaultPlan, InjectedFaultError

#: The four cell statuses, in "best first" order.
CELL_STATUSES = ("ok", "retried", "degraded", "failed")


def install_sigterm_handler() -> bool:
    """Make SIGTERM take the KeyboardInterrupt shutdown path.

    Container runtimes and CI cancelers send SIGTERM, whose default
    disposition kills the process without unwinding — orphaning pool
    workers and leaving temp files behind.  Re-raising it as
    :class:`KeyboardInterrupt` reuses the interrupt path that already
    works: ``run_supervised``'s ``finally`` kills the pool, atomic
    writers unlink their temp files, journals flush on close, and the
    CLI exits nonzero.

    Only the main thread may set signal handlers; returns ``False``
    (and changes nothing) elsewhere, so library users embedding the
    engine in worker threads are unaffected.
    """
    if threading.current_thread() is not threading.main_thread():
        return False

    def _handler(signum, frame):
        raise KeyboardInterrupt("SIGTERM")

    try:
        signal.signal(signal.SIGTERM, _handler)
    except ValueError:  # pragma: no cover - non-main interpreter thread
        return False
    return True

#: Error kinds the retry ladder treats as transient (worth retrying).
TRANSIENT_KINDS = frozenset({"crash", "hang", "corrupt", "unknown"})


@dataclass(frozen=True, slots=True)
class ResourceLimits:
    """Per-cell guardrails enforced inside the group runner.

    ``max_instructions`` bounds the functional execution (surfaced as
    :class:`~repro.errors.InterpBudgetError`); ``max_rss_mb`` bounds the
    process's peak resident set after the compile/run step (surfaced as
    :class:`~repro.errors.ResourceLimitError`).  Both default to off.
    """

    max_instructions: int | None = None
    max_rss_mb: float | None = None

    def check_rss(self) -> None:
        """Raise :class:`ResourceLimitError` if peak RSS exceeds the
        ceiling (no-op when unset or the platform can't report RSS)."""
        if self.max_rss_mb is None:
            return
        used_mb = max_rss_mb()
        if used_mb > self.max_rss_mb:
            raise ResourceLimitError("rss_mb", used_mb, self.max_rss_mb)


#: Shared "no ceilings" instance.
NO_LIMITS = ResourceLimits()


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How the supervisor retries, times out, and degrades."""

    #: Worker attempts per group before degrading to serial.
    max_attempts: int = 3
    #: First backoff delay; doubles per attempt up to ``max_delay``.
    base_delay: float = 0.05
    max_delay: float = 2.0
    #: Fractional jitter added to each delay (0 = none, 0.5 = up to +50%).
    jitter: float = 0.5
    #: Wall-clock budget for one group attempt (None = never time out).
    group_timeout: float | None = 300.0
    #: Re-run a group once in-process after worker retries are spent.
    serial_fallback: bool = True
    #: Hard cap on pool respawns before the run gives up wholesale.
    max_pool_restarts: int = 8
    #: Seed for the deterministic backoff jitter.
    seed: int = 0
    limits: ResourceLimits = field(default_factory=lambda: NO_LIMITS)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.group_timeout is not None and self.group_timeout <= 0:
            raise ValueError("group_timeout must be positive or None")

    def backoff_delay(self, attempt: int, key: str = "") -> float:
        """Delay before retry number ``attempt`` (1-based), with
        deterministic jitter derived from ``(seed, key, attempt)``."""
        delay = min(self.max_delay,
                    self.base_delay * (2.0 ** max(0, attempt - 1)))
        if self.jitter > 0:
            token = f"{self.seed}|{key}|{attempt}"
            frac = (zlib.crc32(token.encode("utf-8")) & 0xFFFFFFFF) / 2**32
            delay *= 1.0 + self.jitter * frac
        return delay


@dataclass(frozen=True, slots=True)
class CellError:
    """A typed, picklable description of one failed attempt."""

    kind: str       # crash | hang | corrupt | budget | rss | error | unknown
    message: str
    attempt: int
    where: str      # "worker" | "serial"

    @property
    def transient(self) -> bool:
        """Transient errors are retried; deterministic ones fail fast."""
        return self.kind in TRANSIENT_KINDS

    def as_dict(self) -> dict:
        return {"kind": self.kind, "message": self.message,
                "attempt": self.attempt, "where": self.where}


def classify_exception(exc: BaseException) -> str:
    """Map an exception from a group attempt to a :class:`CellError` kind."""
    if isinstance(exc, InjectedFaultError):
        return {"crash": "crash", "hang": "hang",
                "corrupt-result": "corrupt", "corrupt-cache": "corrupt",
                "error": "error"}.get(exc.kind, "error")
    if isinstance(exc, InterpBudgetError):
        return "budget"
    if isinstance(exc, ResourceLimitError):
        return "rss"
    if _is_broken_pool(exc):
        return "crash"
    if isinstance(exc, ReproError):
        return "error"
    return "unknown"


def _is_broken_pool(exc: BaseException) -> bool:
    """Whether ``exc`` is a ``BrokenProcessPool``.

    The pool module (and with it :mod:`multiprocessing`) is imported
    only by the ``workers > 1`` paths; until one has run, no exception
    can be a broken pool.
    """
    process = sys.modules.get("concurrent.futures.process")
    return process is not None and isinstance(exc, process.BrokenProcessPool)


@dataclass(frozen=True, slots=True)
class AttemptRecord:
    """One failed attempt in a group's history."""

    attempt: int
    where: str
    kind: str
    message: str
    seconds: float

    def as_dict(self) -> dict:
        return {"attempt": self.attempt, "where": self.where,
                "kind": self.kind, "message": self.message,
                "seconds": round(self.seconds, 6)}


@dataclass(slots=True)
class GroupOutcome:
    """What supervision concluded about one compile group."""

    status: str                       # one of CELL_STATUSES
    results: list | None              # [(plan index, CellResult)] when not failed
    cached: bool
    attempts: int                     # total attempts consumed
    history: list[AttemptRecord]
    error: CellError | None = None    # final error, for failed groups
    #: observability payload shipped back by the successful worker
    #: attempt: {"spans": [...], "metrics": {...}} or None (serial runs
    #: record straight into the parent's tracer/registry instead)
    obs: dict | None = None


def split_group_payload(payload: tuple) -> tuple[list, bool, dict | None]:
    """Normalize a group payload to ``(results, cached, obs)``.

    Serial runners return the historical 2-tuple (their spans/metrics
    land directly in the parent's collectors); workers append the
    buffered observability payload as a third element.  Only call on a
    payload :func:`validate_group_payload` accepted.
    """
    if len(payload) == 2:
        results, cached = payload
        return results, cached, None
    results, cached, obs = payload
    return results, cached, obs


def validate_group_payload(payload, expected_indices: set[int]) -> str | None:
    """Structural check of a worker's group payload.

    Returns an error message when the payload is corrupt (wrong shape,
    wrong indices, or cell fields that cannot be real measurements), or
    ``None`` when it is safe to install.  This is the parent-side
    defense against half-transferred or bit-flipped results.

    Payloads are ``(results, cached)`` from serial runners or
    ``(results, cached, obs)`` from workers, where ``obs`` is ``None``
    or a dict of buffered spans/metrics (its content is advisory, so
    only its type is checked — a corrupt span never corrupts results).
    """
    if not isinstance(payload, tuple) or len(payload) not in (2, 3):
        return f"group payload has wrong shape: {type(payload).__name__}"
    if len(payload) == 3 and not (payload[2] is None
                                  or isinstance(payload[2], dict)):
        return "group payload obs must be a dict or None"
    results, cached = payload[0], payload[1]
    if not isinstance(cached, bool) or not isinstance(results, list):
        return "group payload has wrong field types"
    seen: set[int] = set()
    for item in results:
        if not isinstance(item, tuple) or len(item) != 2:
            return "group payload entry is not an (index, cell) pair"
        index, cell = item
        if not isinstance(index, int) or isinstance(index, bool):
            return "group payload index is not an int"
        seen.add(index)
        message = _validate_cell(cell)
        if message is not None:
            return f"cell {index}: {message}"
    if seen != expected_indices:
        return (f"group payload covers indices {sorted(seen)}, "
                f"expected {sorted(expected_indices)}")
    return None


def _validate_cell(cell) -> str | None:
    if type(cell).__name__ != "CellResult":
        return f"not a CellResult: {type(cell).__name__}"
    if not isinstance(cell.benchmark, str) or not isinstance(cell.machine, str):
        return "benchmark/machine must be strings"
    for name in ("instructions", "minor_cycles"):
        value = getattr(cell, name)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            return f"{name} must be a non-negative int, got {value!r}"
    for name in ("base_cycles", "parallelism", "seconds", "compile_seconds"):
        value = getattr(cell, name)
        if not isinstance(value, (int, float)) or value < 0 or value != value:
            return f"{name} must be a non-negative number, got {value!r}"
    if cell.status != "ok":
        return f"worker cells must arrive with status 'ok', got {cell.status!r}"
    return None


def failure_manifest(items) -> str | None:
    """One-line manifest of failed cells (``None`` when everything ran).

    ``items`` may be any objects with ``benchmark``, ``machine``,
    ``status`` and optionally ``error`` attributes (engine
    :class:`CellResult`\\ s or analysis ``SweepRow``\\ s).
    """
    lines = []
    for item in items:
        if getattr(item, "status", "ok") != "failed":
            continue
        error = getattr(item, "error", None)
        if isinstance(error, dict):
            detail = f"{error.get('kind', '?')}: {error.get('message', '')}"
        elif error:
            detail = str(error)
        else:
            detail = "unknown error"
        lines.append(f"{item.benchmark}@{item.machine} ({detail})")
    if not lines:
        return None
    return f"FAILED {len(lines)} cell(s): " + "; ".join(lines)


# ----------------------------------------------------------------------
# serial supervision (workers == 1)

def run_group_serial(
    key: str,
    serial_runner,
    policy: RetryPolicy,
    expected_indices: set[int] | None = None,
    tracer: Tracer = NULL_TRACER,
    validate=None,
) -> GroupOutcome:
    """Attempt one group in-process under the retry ladder.

    ``serial_runner(attempt)`` performs the work and returns
    ``(results, cached)`` (a trailing observability element is
    tolerated); exceptions are classified and transient ones retried
    with (blocking) backoff.  ``expected_indices`` additionally
    subjects each payload to the ``validate`` hook — by default
    :func:`validate_group_payload`; workloads whose results are not
    CellResult-shaped (the workflow engine's nodes) pass their own
    ``validate(payload, expected_indices) -> str | None`` — and a
    corrupt payload counts as a failed transient attempt.  There is no
    separate degradation step — the run is already serial — so
    exhausting the budget means ``failed``.  ``tracer`` receives one
    ``retry.backoff`` span per backoff wait and one ``attempt.failed``
    span per failed attempt.
    """
    if validate is None:
        validate = validate_group_payload
    history: list[AttemptRecord] = []
    attempt = 0
    while attempt < policy.max_attempts:
        attempt += 1
        start = time.perf_counter()
        try:
            payload = serial_runner(attempt)
        except Exception as exc:
            error = CellError(classify_exception(exc), str(exc),
                              attempt, "serial")
        else:
            message = None
            if expected_indices is not None:
                message = validate(payload, expected_indices)
            elif not (isinstance(payload, tuple)
                      and len(payload) in (2, 3)):
                message = "group payload has wrong shape"
            if message is None:
                results, cached, obs = split_group_payload(payload)
                status = "ok" if attempt == 1 else "retried"
                return GroupOutcome(status, results, cached, attempt,
                                    history, obs=obs)
            error = CellError("corrupt", message, attempt, "serial")
        seconds = time.perf_counter() - start
        history.append(AttemptRecord(
            attempt, "serial", error.kind, error.message, seconds,
        ))
        if tracer.enabled:
            now = time.monotonic_ns()
            tracer.record("attempt.failed", "resilience",
                          now - int(seconds * 1e9), int(seconds * 1e9),
                          group=key, attempt=attempt, kind=error.kind)
        if not error.transient or attempt >= policy.max_attempts:
            return GroupOutcome("failed", None, False, attempt,
                                history, error)
        delay = policy.backoff_delay(attempt, key)
        with tracer.span("retry.backoff", cat="resilience", group=key,
                         attempt=attempt):
            time.sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover


# ----------------------------------------------------------------------
# pool supervision (workers > 1)

@dataclass(slots=True)
class _Group:
    """Mutable supervision state for one compile group."""

    idx: int                 # position in the group_args list
    key: str                 # human-readable identity (for jitter/manifest)
    payload_base: tuple      # (benchmark, options, machine_cells, observe)
    indices: set[int]        # plan indices this group must produce
    attempts: int = 0        # worker attempts charged
    history: list = field(default_factory=list)
    outcome: GroupOutcome | None = None


@dataclass(slots=True)
class SupervisionStats:
    """Pool-level accounting for the engine report."""

    pool_restarts: int = 0
    worker_retries: int = 0


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down hard: cancel queued work, terminate workers.

    Termination reaches into ``_processes`` (stable across CPython 3.9+)
    because a hung worker never honours a cooperative shutdown; the
    try/except keeps us safe if the internals ever move.
    """
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass
    procs_attr = getattr(pool, "_processes", None)
    procs = list(procs_attr.values()) if isinstance(procs_attr, dict) else []
    for proc in procs:
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
    for proc in procs:
        try:
            proc.join(timeout=5)
        except Exception:  # pragma: no cover - defensive
            pass


def run_supervised(
    groups: "list[tuple[str, tuple, set[int]]]",
    *,
    workers: int,
    task,
    make_payload,
    serial_runner,
    policy: RetryPolicy,
    faults: FaultPlan = NO_FAULTS,
    stats: SupervisionStats | None = None,
    tracer: Tracer = NULL_TRACER,
    progress=None,
    validate=None,
) -> list[GroupOutcome]:
    """Run compile groups across a supervised process pool.

    Parameters
    ----------
    groups:
        ``(key, payload_base, plan_indices)`` per group, where ``key``
        is a stable human-readable identity and ``payload_base`` the
        work description handed to ``make_payload``.
    task:
        The picklable pool entry point.
    make_payload:
        ``make_payload(payload_base, attempt) -> payload`` builds the
        argument ``task`` receives (the attempt number rides along so
        fault firing stays deterministic without shared state).
    serial_runner:
        ``serial_runner(payload_base, attempt) -> (results, cached)``;
        the in-process degradation step.
    policy / faults:
        Retry ladder configuration and the fault plan (threaded through
        payloads so workers inject deterministically).
    tracer:
        Receives resilience spans — ``retry.backoff``, ``pool.respawn``,
        ``degraded.rerun``, ``group.timeout`` and ``attempt.failed`` —
        so the supervision ladder is visible in the Perfetto timeline.
    progress:
        Optional callable ``progress(group_key, outcome, n_cells)``
        invoked as each group settles (drives the ``--live`` progress
        line).
    validate:
        ``validate(payload, expected_indices) -> str | None`` replaces
        the default :func:`validate_group_payload` structural check for
        workloads whose results are not CellResult-shaped (the workflow
        engine's nodes).

    Returns one :class:`GroupOutcome` per input group, in input order.
    """
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    del faults  # faults travel inside make_payload; kept for signature clarity
    if validate is None:
        validate = validate_group_payload
    stats = stats if stats is not None else SupervisionStats()
    states = [_Group(i, key, base, set(indices))
              for i, (key, base, indices) in enumerate(groups)]
    pending: deque[_Group] = deque(states)
    waiting: list = []      # backoff heap: (ready, seq, group, entered_ns)
    inflight: dict = {}                             # future -> (group, t0)
    seq = 0
    pool = ProcessPoolExecutor(max_workers=workers)

    def finish(group: _Group, outcome: GroupOutcome) -> None:
        group.outcome = outcome
        if progress is not None:
            progress(group.key, outcome, len(group.indices))

    def respawn_pool() -> ProcessPoolExecutor:
        with tracer.span("pool.respawn", cat="resilience",
                         restart=stats.pool_restarts):
            _kill_pool(pool)
            return ProcessPoolExecutor(max_workers=workers)

    def degrade_or_fail(group: _Group, error: CellError) -> None:
        """The bottom of the worker ladder: serial rerun, then failed."""
        if not (error.transient and policy.serial_fallback):
            finish(group, GroupOutcome(
                "failed", None, False, group.attempts,
                group.history, error,
            ))
            return
        attempt = group.attempts + 1
        start = time.perf_counter()
        with tracer.span("degraded.rerun", cat="resilience",
                         group=group.key, attempt=attempt):
            try:
                payload = serial_runner(group.payload_base, attempt)
            except Exception as exc:
                final = CellError(classify_exception(exc), str(exc),
                                  attempt, "serial")
            else:
                message = validate(payload, group.indices)
                if message is None:
                    results, cached, obs = split_group_payload(payload)
                    finish(group, GroupOutcome(
                        "degraded", results, cached, attempt,
                        group.history, obs=obs,
                    ))
                    return
                final = CellError("corrupt", message, attempt, "serial")
        group.history.append(AttemptRecord(
            attempt, "serial", final.kind, final.message,
            time.perf_counter() - start,
        ))
        finish(group, GroupOutcome(
            "failed", None, False, attempt, group.history, final,
        ))

    def dispose_failure(group: _Group, error: CellError,
                        seconds: float) -> None:
        nonlocal seq
        group.history.append(AttemptRecord(
            error.attempt, error.where, error.kind, error.message, seconds,
        ))
        stats.worker_retries += 1
        if tracer.enabled:
            now_ns = time.monotonic_ns()
            tracer.record("attempt.failed", "resilience",
                          now_ns - int(seconds * 1e9), int(seconds * 1e9),
                          group=group.key, attempt=error.attempt,
                          kind=error.kind, where=error.where)
        if error.transient and group.attempts < policy.max_attempts:
            ready = time.monotonic() + policy.backoff_delay(
                group.attempts, group.key,
            )
            seq += 1
            heapq.heappush(waiting, (ready, seq, group,
                                     time.monotonic_ns()))
        else:
            degrade_or_fail(group, error)

    def give_up_all(message: str) -> None:
        """Pool-restart budget exhausted: fail every unfinished group."""
        leftovers = ([g for _, _, g, _ in waiting] + list(pending)
                     + [g for g, _ in inflight.values()])
        for group in leftovers:
            if group.outcome is None:
                finish(group, GroupOutcome(
                    "failed", None, False, group.attempts, group.history,
                    CellError("crash", message, group.attempts, "worker"),
                ))
        waiting.clear()
        pending.clear()
        inflight.clear()

    try:
        while pending or waiting or inflight:
            now = time.monotonic()
            while waiting and waiting[0][0] <= now:
                _, _, group, entered_ns = heapq.heappop(waiting)
                if tracer.enabled:
                    waited = time.monotonic_ns() - entered_ns
                    tracer.record("retry.backoff", "resilience",
                                  entered_ns, waited, group=group.key,
                                  attempt=group.attempts)
                pending.append(group)

            # Submit up to the pool's width; more would blur the
            # submit-to-start gap the hang timeout is measured over.
            broken = False
            while pending and len(inflight) < workers:
                group = pending.popleft()
                group.attempts += 1
                payload = make_payload(group.payload_base, group.attempts)
                try:
                    future = pool.submit(task, payload)
                except (BrokenProcessPool, RuntimeError):
                    group.attempts -= 1
                    pending.appendleft(group)
                    broken = True
                    break
                inflight[future] = (group, time.monotonic())

            if not inflight:
                if broken:
                    stats.pool_restarts += 1
                    if stats.pool_restarts > policy.max_pool_restarts:
                        give_up_all("pool restart budget exhausted")
                        break
                    pool = respawn_pool()
                    continue
                if waiting:
                    time.sleep(max(0.0, waiting[0][0] - time.monotonic()))
                continue

            timeout = None
            if policy.group_timeout is not None:
                earliest = min(t0 for _, t0 in inflight.values())
                timeout = max(0.0, earliest + policy.group_timeout
                              - time.monotonic())
            if waiting:
                until_backoff = max(0.0, waiting[0][0] - time.monotonic())
                timeout = until_backoff if timeout is None \
                    else min(timeout, until_backoff)

            done, _ = wait(set(inflight), timeout=timeout,
                           return_when=FIRST_COMPLETED)

            for future in done:
                group, t0 = inflight.pop(future)
                seconds = time.monotonic() - t0
                try:
                    payload = future.result()
                except BrokenProcessPool as exc:
                    broken = True
                    dispose_failure(group, CellError(
                        "crash", str(exc) or "worker process died",
                        group.attempts, "worker",
                    ), seconds)
                    continue
                except Exception as exc:
                    dispose_failure(group, CellError(
                        classify_exception(exc), str(exc),
                        group.attempts, "worker",
                    ), seconds)
                    continue
                message = validate(payload, group.indices)
                if message is not None:
                    dispose_failure(group, CellError(
                        "corrupt", message, group.attempts, "worker",
                    ), seconds)
                    continue
                results, cached, obs = split_group_payload(payload)
                status = "ok" if group.attempts == 1 else "retried"
                finish(group, GroupOutcome(
                    status, results, cached, group.attempts, group.history,
                    obs=obs,
                ))

            # Hang detection: any group past its wall-clock budget takes
            # the pool down with it (a running task cannot be cancelled).
            hung: list = []
            if policy.group_timeout is not None:
                now = time.monotonic()
                for future, (group, t0) in list(inflight.items()):
                    if now - t0 > policy.group_timeout:
                        hung.append((future, group, now - t0))
            if hung:
                broken = True
                for future, group, seconds in hung:
                    del inflight[future]
                    if tracer.enabled:
                        now_ns = time.monotonic_ns()
                        tracer.record(
                            "group.timeout", "resilience",
                            now_ns - int(seconds * 1e9),
                            int(seconds * 1e9), group=group.key,
                            attempt=group.attempts,
                        )
                    dispose_failure(group, CellError(
                        "hang",
                        f"group exceeded {policy.group_timeout:.1f}s "
                        "wall-clock budget",
                        group.attempts, "worker",
                    ), seconds)

            if broken:
                # Innocent in-flight groups lose their results but not
                # an attempt; requeue them ahead of new submissions.
                for future, (group, _) in list(inflight.items()):
                    group.attempts -= 1
                    pending.appendleft(group)
                inflight.clear()
                stats.pool_restarts += 1
                if stats.pool_restarts > policy.max_pool_restarts:
                    give_up_all("pool restart budget exhausted")
                    break
                pool = respawn_pool()
    finally:
        # Interrupt/shutdown path: never leak worker processes.
        _kill_pool(pool)

    missing = [g for g in states if g.outcome is None]
    assert not missing, f"supervision lost groups: {[g.key for g in missing]}"
    return [g.outcome for g in states]
