"""Persistent replay-memo store: warm-start replays across processes.

A :class:`repro.sim.replay.ReplayCore` learns its per-block memo tables
from scratch in every process — without a store, every engine worker
and every fresh run re-pays the resolve cost for traces it has replayed
many times before.  This module persists the learned state
(:meth:`~repro.sim.replay.ReplayCore.export_memo` payloads) into the
content-addressed cache directory alongside the trace-v2 entries, so
cold processes start warm.  Under the NumPy backend a payload is the
resolving run's records, already flattened into int64 arrays for the
vectorized kernel, plus one record id per event; under the scalar
backend it is the memo tables.

Keying
------
A payload is valid only for one exact replay context, so the key is a
SHA-256 over the memo format tag, the package version, the replay
backend (``repro.sim.replay.BACKEND`` — the two backends intern the
aliasing key differently), the trace's timing-semantics fingerprint
(:meth:`repro.sim.trace.Trace.fingerprint`), the machine's
:meth:`~repro.machine.config.MachineConfig.fingerprint`, and the replay
mode (``observe``/``want_times`` — memo entries store mode-dependent
payloads).

Under the NumPy backend the namespace also holds one entry per trace
(:func:`plan_key`): the replay plan itself (schedule, block segments
and merge knobs) and its structure-of-arrays view
(:func:`repro.sim.replay_vec.plan_vec_payload`).  A fresh process
adopts both instead of running the merge passes and the array build
for every trace, once the plan's schedule, expanded through its block
segments, matches the trace's runs exactly
(:func:`repro.sim.replay_vec.adopt_plan`).  The entry is written only
when the lookup missed or the entry did not fit.

Lifetime
--------
No payload is held in memory between replays: every lookup reads the
sealed entry from disk.  The key includes the machine, so no two
replays of one engine group share a payload, and an in-memory copy
would never be hit.  The engine likewise releases a trace's
``PlanVec`` when its compile group ends
(:func:`repro.engine.executor._run_group`); a later replay of that
trace reloads it from its :func:`plan_key` entry or rebuilds it.

Hygiene
-------
Entries live under ``<cache-root>/memo/`` in a
:class:`repro.store.ContentStore` — atomic writes, corrupt-entry
recovery, the debris janitor and the ``gets == hits + misses +
corrupt`` counters (``cache.memo_*`` metrics) are the shared store's.
Each entry is the pickled payload plus its SHA-256 digest, checked on
every read: a torn or bit-flipped file can never hand a wrong memo
value to the replay.  A stale or corrupt entry — unreadable pickle,
wrong tag, digest mismatch, or a structure the core's
:meth:`~repro.sim.replay.ReplayCore.adopt_memo` (or the plan loader's)
validation rejects — is *dropped* and the replay starts cold.  Recorded
keys are checked again by the vectorized kernel's per-run verification,
whose failure costs a scalar re-resolve.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle

from .. import __version__
from ..machine.config import MachineConfig
from ..store import _UNREADABLE, ContentStore
from .replay import (
    BACKEND,
    MEMO_PAYLOAD_FORMAT,
    ReplayCore,
    ReplayOutcome,
    _replay_vec,
    plan_for,
    plan_vec_for,
)
from .trace import Trace


def _key(*parts) -> str:
    payload = json.dumps([MEMO_PAYLOAD_FORMAT, __version__, *parts],
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def memo_key(trace: Trace, config: MachineConfig, *,
             observe: bool = False, want_times: bool = False) -> str:
    """Content hash identifying one (trace, machine, mode) replay."""
    return _key(BACKEND, trace.fingerprint(), repr(config.fingerprint()),
                bool(observe), bool(want_times))


def plan_key(trace: Trace) -> str:
    """Content hash identifying one trace's persisted plan entry."""
    return _key("plan", trace.fingerprint())


def seal(payload: dict) -> dict:
    """The stored form of ``payload``: its pickle and that pickle's
    SHA-256 digest."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return {"format": MEMO_PAYLOAD_FORMAT,
            "sha256": hashlib.sha256(body).digest(), "body": body}


def _is_sealed(entry: object) -> bool:
    return (isinstance(entry, dict)
            and entry.get("format") == MEMO_PAYLOAD_FORMAT
            and isinstance(entry.get("body"), bytes)
            and hashlib.sha256(entry["body"]).digest()
            == entry.get("sha256"))


class MemoStore(ContentStore):
    """The replay-memo namespace: one sealed payload per key."""

    def load(self, key: str) -> dict | None:
        """The persisted payload for ``key``, or ``None``."""
        entry = self._get(key, _is_sealed)
        if entry is None:
            return None
        try:
            return pickle.loads(entry["body"])
        except _UNREADABLE:
            self.reject(key)
            return None

    def store(self, key: str, payload: dict) -> None:
        """Write one entry atomically (safe under concurrent writers)."""
        self._put(key, seal(payload))


#: Shared disabled store; safe to pass anywhere a store is expected.
NULL_MEMO_STORE = MemoStore(None)


def open_memo_store(cache) -> MemoStore:
    """The memo store living inside a trace cache's directory.

    Disabled caches (``--no-cache`` runs) yield the shared disabled
    store, keeping cacheless runs byte-for-byte deterministic.
    """
    if cache is None or not getattr(cache, "enabled", False):
        return NULL_MEMO_STORE
    return MemoStore(os.path.join(cache.root, "memo"))


def _attach_plan(store: MemoStore, trace: Trace) -> None:
    """Give ``trace`` its replay plan and the plan's SoA view from the
    store's plan entry, or build them and store the entry when the
    lookup missed or the entry did not fit (NumPy backend only).

    A plan already in memory (built by an earlier replay in this
    process) is kept; only its arrays are read from the entry.
    """
    plan = trace._plan
    if BACKEND != "numpy" or (plan is not None and plan.vec is not None):
        return
    key = plan_key(trace)
    persisted = store.load(key)
    fits = True
    if plan is None:
        plan = plan_for(trace, persisted)
        fits = plan.loaded
    # An entry whose plan was rejected gives no arrays either.
    pv = plan_vec_for(plan, trace, persisted if fits else None)
    if not pv.loaded:
        if persisted is not None:
            store.reject(key)
        store.store(key, _replay_vec.plan_vec_payload(plan))


def replay_with_memo(
    store: MemoStore, trace: Trace, config: MachineConfig, *,
    observe: bool = False, want_times: bool = False,
) -> ReplayOutcome:
    """Replay ``trace`` on ``config``, warm-started from ``store``.

    Reads the payload from disk (sealed and digest-checked on every
    read), adopts it into a fresh core (dropping it if stale/corrupt)
    and runs.  The learned state goes back to disk only when this run
    actually learned something new (fresh payload or new memo misses),
    so steady-state replays never rewrite the file.  Nothing is kept
    in memory between calls.
    """
    if not store.enabled:
        # Cacheless runs stay byte-for-byte deterministic across
        # serial/parallel topologies: no adoption.
        return ReplayCore(trace, config, observe=observe,
                          want_times=want_times).run()
    key = memo_key(trace, config, observe=observe,
                   want_times=want_times)
    payload = store.load(key)
    _attach_plan(store, trace)
    core = ReplayCore(trace, config, observe=observe,
                      want_times=want_times)
    if payload is not None and not core.adopt_memo(payload):
        store.reject(key)
        payload = None
    outcome = core.run()
    if (payload is None
            or outcome.stats.memo_misses > 0
            or core._rec_ids is not payload.get("record_ids")):
        store.store(key, core.export_memo())
    return outcome
