"""Content-addressed on-disk cache for compiled/simulated traces.

A cache entry is one :class:`~repro.sim.interp.RunResult` — the compiled
program's functional execution, including the dynamic trace the timing
model replays.  The key is a SHA-256 over

* the benchmark's **source text**,
* the full :meth:`~repro.opt.options.CompilerOptions.fingerprint` (which
  itself embeds the target machine's
  :meth:`~repro.machine.config.MachineConfig.fingerprint` and the
  scheduler backend name, so e.g. ``"list"`` and ``"exact"``
  compilations never share an entry), and
* the package version plus a cache format tag,

so a hit is only possible when the compilation would be bit-identical.
Storage, atomic writes, corrupt-entry recovery and the debris janitor
are :class:`repro.store.ContentStore`'s; this namespace adds only the
key and the read validator.

The default location is ``.repro-cache`` under the current directory,
overridable with the ``REPRO_CACHE_DIR`` environment variable or the
``--cache-dir`` CLI flag.
"""

from __future__ import annotations

import hashlib
import json
import os

from .. import __version__
from ..errors import TraceError
from ..opt.options import CompilerOptions
from ..sim.interp import RunResult
from ..sim.trace import Trace
from ..store import ContentStore

#: Bump when the pickled payload layout changes incompatibly.
#: v2: run-length encoded traces with a flat memory-address side array
#: (see :mod:`repro.sim.trace`).
_FORMAT = "trace-v2"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = os.environ.get("REPRO_CACHE_DIR", ".repro-cache")


def trace_key(source: str, options: CompilerOptions) -> str:
    """Content hash identifying one (source, options) compilation."""
    payload = json.dumps(
        [
            _FORMAT,
            __version__,
            hashlib.sha256(source.encode("utf-8")).hexdigest(),
            repr(options.fingerprint()),
        ],
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _is_valid_run(result: object) -> bool:
    """A payload that unpickles but is not structurally a valid run (the
    wrong type, or a trace whose v2 invariants do not hold — e.g. an
    entry written by a different layout) is never handed to the timing
    model."""
    if not (isinstance(result, RunResult)
            and isinstance(result.trace, Trace)):
        return False
    try:
        result.trace.validate()
    except TraceError:
        return False
    return True


class TraceCache(ContentStore):
    """The compiled-trace namespace: one run per compilation key."""

    def load(self, key: str) -> RunResult | None:
        """The cached run for ``key``, or ``None``."""
        return self._get(key, _is_valid_run)

    def store(self, key: str, result: RunResult) -> None:
        """Write one entry atomically (safe under concurrent writers)."""
        self._put(key, result)


#: Shared disabled cache; safe to pass anywhere a cache is expected.
NULL_TRACE_CACHE = TraceCache(None)


def open_cache(
    cache_dir: str | None, no_cache: bool = False
) -> TraceCache:
    """Normalize CLI-style cache settings to a usable cache handle.

    ``no_cache=True`` (or ``cache_dir=None``) yields a fresh disabled
    cache; otherwise the directory is created lazily on first store.
    """
    return TraceCache(None if no_cache else cache_dir)
