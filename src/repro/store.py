"""One content-addressed store: atomic pickle entries in a fan-out tree.

The trace cache (:mod:`repro.engine.cache`), the replay-memo store
(:mod:`repro.sim.memo`) and the flow checkpoint store
(:mod:`repro.flow.state`) are namespaces of :class:`ContentStore`.  Each
supplies only its directory, its key function and its read validator;
this module owns the rest:

* **Layout.** One pickle per entry at ``<root>/<key[:2]>/<key>.pkl``.
* **Writes.** A temp file in the entry's directory, fsynced, then
  ``os.replace``: concurrent writers of one key each publish a whole
  entry, and a crash mid-write leaves at most a ``*.tmp`` file, never a
  torn entry behind the final name.
* **Reads.** A clean not-found is a *miss*.  An unreadable pickle or a
  payload the namespace's validator refuses is removed and counted as
  *corrupt*, so the caller recomputes.  :meth:`ContentStore.reject`
  moves a hit whose deeper, caller-side validation failed to the
  corrupt column.  Every lookup ends as exactly one of the three, so
  ``gets == hits + misses + corrupt`` (:class:`CacheStats`).
* **Janitor.** Opening a store removes ``*.tmp`` files older than
  :data:`DEBRIS_MAX_AGE` from its own two-hex-character fan-out
  directories — the only place its writes create them — once per
  process per root.  Namespaces nested inside another's root (the memo
  and flow stores live under the trace cache's) are never swept twice.
* **Disabled.** ``root=None`` is a disabled store: lookups return
  ``None`` without counting and writes do nothing.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

#: A ``*.tmp`` file this much older than "now" is crash debris: no
#: healthy writer holds a temp file for an hour.
DEBRIS_MAX_AGE = 3600.0

#: What loading a truncated, stale or foreign pickle can raise.
_UNREADABLE = (OSError, pickle.UnpicklingError, EOFError, AttributeError,
               ImportError, IndexError, TypeError, ValueError, KeyError)

_HEX = frozenset("0123456789abcdef")

#: Roots already swept this process — stores are cheap handles opened
#: per group/worker task, so each directory is swept only once.
_SWEPT_ROOTS: set[str] = set()


def reset_debris_sweeps() -> None:
    """Forget which roots were swept (tests re-plant debris)."""
    _SWEPT_ROOTS.clear()


def sweep_debris(root: str, max_age: float = DEBRIS_MAX_AGE, *,
                 now: float | None = None) -> int:
    """Remove orphaned ``*.tmp`` files from ``root``'s fan-out
    directories; return the count.

    Young temp files are left alone — they may belong to a live
    concurrent writer.  Each root is swept at most once per process.
    """
    key = os.path.abspath(root)
    if key in _SWEPT_ROOTS:
        return 0
    _SWEPT_ROOTS.add(key)
    try:
        fanout = [name for name in os.listdir(key)
                  if len(name) == 2 and set(name) <= _HEX]
    except OSError:
        return 0
    cutoff = (time.time() if now is None else now) - max_age
    removed = 0
    for sub in fanout:
        try:
            names = os.listdir(os.path.join(key, sub))
        except OSError:
            continue
        for name in names:
            if not name.endswith(".tmp"):
                continue
            path = os.path.join(key, sub, name)
            try:
                if os.path.getmtime(path) <= cutoff:
                    os.remove(path)
                    removed += 1
            except OSError:
                continue
    return removed


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/corrupt-drop/store counts for one store handle.

    ``misses`` counts clean not-found lookups only; an entry dropped for
    being unreadable or invalid counts under ``corrupt`` instead, so
    ``gets == hits + misses + corrupt`` holds exactly (and the
    report-schema validator enforces it).
    """

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    stores: int = 0
    #: Orphaned temp files removed by the startup janitor — outside
    #: the ``gets == hits + misses + corrupt`` conservation law.
    debris: int = 0

    @property
    def gets(self) -> int:
        """Total lookups: every ``load()`` ends as exactly one of
        hit / miss / corrupt-drop."""
        return self.hits + self.misses + self.corrupt

    def as_dict(self) -> dict:
        return {"gets": self.gets, "hits": self.hits,
                "misses": self.misses, "corrupt": self.corrupt,
                "stores": self.stores, "debris": self.debris}

    def record_to(self, metrics, prefix: str) -> None:
        """Add every nonzero count to ``metrics`` as ``<prefix><name>``
        and zero it, so a handle drained after each group never counts
        one lookup twice."""
        if not metrics.enabled:
            return
        for name, value in self.as_dict().items():
            if value:
                metrics.incr(prefix + name, value)
        self.hits = self.misses = self.corrupt = 0
        self.stores = self.debris = 0


def _remove(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


class ContentStore:
    """Pickle entries addressed by a hex key under one root directory.

    Namespaces subclass this and define their own ``load``/``store`` on
    top of :meth:`_get` (with their read validator) and :meth:`_put`.
    """

    def __init__(self, root: str | None) -> None:
        self.root = root
        self.stats = CacheStats()
        if root is not None:
            self.stats.debris = sweep_debris(root)

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".pkl")

    def _get(self, key: str, valid: Callable[[object], bool]):
        """The entry for ``key`` when ``valid(entry)``; otherwise
        ``None``, with an unreadable or invalid entry removed."""
        if self.root is None:
            return None
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except _UNREADABLE:
            ok = False
        else:
            ok = valid(entry)
        if not ok:
            _remove(path)
            self.stats.corrupt += 1
            return None
        self.stats.hits += 1
        return entry

    def _put(self, key: str, entry: object) -> None:
        """Write one entry atomically (safe under concurrent writers)."""
        if self.root is None:
            return
        path = self.path_for(key)
        parent = os.path.dirname(path)
        os.makedirs(parent, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(entry, handle, protocol=pickle.HIGHEST_PROTOCOL)
                # Flush to stable storage before the rename becomes
                # visible: a crash mid-write must never leave a torn
                # entry behind the final name.
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            _remove(tmp_path)
            raise
        self.stats.stores += 1

    def reject(self, key: str) -> None:
        """A loaded entry failed the caller's deeper validation: remove
        it and move the hit to the corrupt column."""
        if self.root is None:
            return
        _remove(self.path_for(key))
        self.stats.hits -= 1
        self.stats.corrupt += 1
