"""Cross-run regression diffing: per-cell, per-metric deltas + verdicts.

``diff_payloads`` compares two uniform run payloads (see
:func:`repro.obs.history.payload_from_events`) metric by metric and
classifies every change:

* **deterministic simulation metrics** (instructions, minor cycles,
  base cycles, parallelism, per-cause stalls, replay-memo counters) are
  expected to be bit-identical between runs of the same configuration —
  any worsening is a gated regression, any improvement or neutral
  change is reported but not gated;
* **supervision status** worsening (``ok`` → ``retried`` → ``degraded``
  → ``failed``) is a gated regression;
* **wall-clock metrics** (cell/sim seconds) are noisy, so they only
  warn, and only past a generous relative threshold.

The CLI (``repro diff A B``) prints one verdict line per finding and
exits nonzero iff a *gated* regression survived.  It diffs run reports
and ledger entries; throughput is measured by ``bench/run.py``, whose
``--compare`` gates it against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .schema import STALL_CAUSES

#: Supervision statuses, best first (index = badness).
_STATUS_ORDER = ("ok", "retried", "degraded", "failed")

#: Deterministic per-cell metrics: name -> direction
#: (+1: higher is better, -1: lower is better, 0: any change is a
#: finding but never gated on direction alone).
_CELL_METRICS: dict[str, int] = {
    "instructions": 0,
    "minor_cycles": -1,
    "base_cycles": -1,
    "parallelism": +1,
    "cpi": -1,
}

#: Per-cause stall metrics (lower is better).
_STALL_METRICS = STALL_CAUSES

#: Replay-memo counters worth surfacing (never gated: they track an
#: optimization, not a measurement).
_REPLAY_METRICS: dict[str, int] = {
    "memo_hits": +1,
    "memo_misses": -1,
    "fallbacks": -1,
    "memo_instructions": +1,
}


@dataclass(frozen=True, slots=True)
class DiffPolicy:
    """Thresholds and gating for one diff.

    ``tolerance`` is the allowed relative change for deterministic
    metrics (default 0: bit-identical or it's a finding);
    ``seconds_tolerance`` the relative band inside which
    wall-clock changes are ignored entirely.  ``warn_only`` downgrades
    every gated finding to a warning (CI uses this for cold-cache
    configurations whose measurements legitimately drift across
    environments).
    """

    tolerance: float = 0.0
    seconds_tolerance: float = 0.25
    warn_only: bool = False
    gate_status: bool = True


@dataclass(frozen=True, slots=True)
class DiffEntry:
    """One finding: a single metric that changed between A and B."""

    scope: str          # 'run' | 'cell'
    key: str            # e.g. 'whet@superscalar-4' or 'engine'
    metric: str
    a: object
    b: object
    regression: bool    # True when gated (counts toward the exit code)
    message: str


@dataclass(slots=True)
class DiffResult:
    """Everything one diff produced."""

    entries: list[DiffEntry] = field(default_factory=list)

    @property
    def regressions(self) -> list[DiffEntry]:
        return [e for e in self.entries if e.regression]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        """Human-readable verdict block, one line per finding."""
        if not self.entries:
            return "no differences"
        lines = []
        for entry in self.entries:
            tag = "REGRESSED" if entry.regression else "changed"
            lines.append(f"{tag:9s} {entry.message}")
        lines.append(
            f"{len(self.entries)} difference(s), "
            f"{len(self.regressions)} regression(s)"
        )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "differences": len(self.entries),
            "regressions": len(self.regressions),
            "entries": [
                {"scope": e.scope, "key": e.key, "metric": e.metric,
                 "a": e.a, "b": e.b, "regression": e.regression,
                 "message": e.message}
                for e in self.entries
            ],
        }


def _rel_change(a: float, b: float) -> float | None:
    """(b - a) / |a|, or None when a is zero."""
    if a == 0:
        return None
    return (b - a) / abs(a)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _fmt_delta(a: object, b: object) -> str:
    text = f"{_fmt(a)} -> {_fmt(b)}"
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        rel = _rel_change(float(a), float(b))
        if rel is not None:
            text += f" ({rel:+.1%})"
    return text


def _numeric(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class _Differ:
    def __init__(self, policy: DiffPolicy) -> None:
        self.policy = policy
        self.result = DiffResult()

    def add(self, scope: str, key: str, metric: str, a, b,
            gated: bool, note: str = "") -> None:
        if self.policy.warn_only:
            gated = False
        message = f"{key}: {metric} {_fmt_delta(a, b)}"
        if note:
            message += f" ({note})"
        self.result.entries.append(
            DiffEntry(scope, key, metric, a, b, gated, message))

    def compare_metric(self, scope: str, key: str, metric: str,
                       a, b, direction: int, gated: bool) -> None:
        """Compare one numeric metric under the deterministic policy."""
        if a is None and b is None:
            return
        if a is None or b is None:
            self.add(scope, key, metric, a, b, gated=False,
                     note="present in only one run")
            return
        if not _numeric(a) or not _numeric(b):
            if a != b:
                self.add(scope, key, metric, a, b, gated=False)
            return
        if a == b:
            return
        rel = _rel_change(float(a), float(b))
        within = (rel is not None
                  and abs(rel) <= self.policy.tolerance)
        if within:
            return
        worse = (direction == -1 and b > a) or (direction == +1 and b < a)
        if direction == 0:
            # Any drift in a direction-free deterministic metric is a
            # determinism break — gate it.
            self.add(scope, key, metric, a, b, gated=gated,
                     note="deterministic metric drifted")
        elif worse:
            note = ""
            if self.policy.tolerance:
                note = f"allowed {self.policy.tolerance:.1%}"
            self.add(scope, key, metric, a, b, gated=gated, note=note)
        else:
            self.add(scope, key, metric, a, b, gated=False,
                     note="improved")


def _cell_key(cell: dict) -> tuple:
    return (cell.get("benchmark"), cell.get("machine"),
            cell.get("options"))


def _cell_label(key: tuple) -> str:
    benchmark, machine, options = key
    label = f"{benchmark}@{machine}"
    if options and options != "default":
        label += f"[{options}]"
    return label


def diff_payloads(a: dict, b: dict,
                  policy: DiffPolicy | None = None) -> DiffResult:
    """Diff two uniform run payloads (A = baseline, B = candidate)."""
    policy = policy or DiffPolicy()
    differ = _Differ(policy)

    a_cells = {_cell_key(c): c for c in a.get("cells", [])}
    b_cells = {_cell_key(c): c for c in b.get("cells", [])}
    for key in a_cells:
        if key not in b_cells:
            differ.add("cell", _cell_label(key), "presence",
                       "present", "missing", gated=True,
                       note="cell disappeared from candidate")
    for key in b_cells:
        if key not in a_cells:
            differ.add("cell", _cell_label(key), "presence",
                       "missing", "present", gated=False,
                       note="new cell in candidate")

    for key in a_cells:
        if key not in b_cells:
            continue
        ca, cb = a_cells[key], b_cells[key]
        label = _cell_label(key)
        _diff_cell(differ, label, ca, cb, policy)

    _diff_run(differ, a, b, policy)
    return differ.result


def _diff_cell(differ: _Differ, label: str, ca: dict, cb: dict,
               policy: DiffPolicy) -> None:
    # The scheduler backend is deliberately NOT part of the cell key:
    # comparing the same grid under two backends (the `repro gap` CI
    # check) must line cells up.  A change is surfaced informationally
    # so per-backend diffs are self-describing, never gated — the cycle
    # metrics below carry the actual verdict.
    scheduler_a, scheduler_b = ca.get("scheduler"), cb.get("scheduler")
    if (scheduler_a != scheduler_b
            and scheduler_a is not None and scheduler_b is not None):
        differ.add("cell", label, "scheduler", scheduler_a, scheduler_b,
                   gated=False, note="scheduler backend changed")
    sa, sb = ca.get("status", "ok"), cb.get("status", "ok")
    if sa != sb:
        worse = (_STATUS_ORDER.index(sb) > _STATUS_ORDER.index(sa)
                 if sa in _STATUS_ORDER and sb in _STATUS_ORDER else True)
        differ.add("cell", label, "status", sa, sb,
                   gated=worse and policy.gate_status,
                   note="status worsened" if worse else "status improved")
    if (sa == "failed") or (sb == "failed"):
        # A failed cell carries placeholder zeros; numeric comparison
        # would drown the status finding in noise.
        return
    for metric, direction in _CELL_METRICS.items():
        differ.compare_metric("cell", label, metric,
                              ca.get(metric), cb.get(metric),
                              direction, gated=True)
    stalls_a = ca.get("stalls") or {}
    stalls_b = cb.get("stalls") or {}
    if stalls_a or stalls_b:
        for cause in _STALL_METRICS:
            differ.compare_metric("cell", label, f"stalls.{cause}",
                                  stalls_a.get(cause),
                                  stalls_b.get(cause),
                                  direction=-1, gated=True)
        differ.compare_metric("cell", label, "stalls.issued_cycles",
                              stalls_a.get("issued_cycles"),
                              stalls_b.get("issued_cycles"),
                              direction=0, gated=True)
    replay_a = ca.get("replay") or {}
    replay_b = cb.get("replay") or {}
    if replay_a or replay_b:
        for metric, direction in _REPLAY_METRICS.items():
            differ.compare_metric("cell", label, f"replay.{metric}",
                                  replay_a.get(metric),
                                  replay_b.get(metric),
                                  direction, gated=False)
    seconds_a, seconds_b = ca.get("seconds"), cb.get("seconds")
    if _numeric(seconds_a) and _numeric(seconds_b) and seconds_a:
        rel = _rel_change(float(seconds_a), float(seconds_b))
        if rel is not None and rel > policy.seconds_tolerance:
            differ.add("cell", label, "seconds", seconds_a, seconds_b,
                       gated=False,
                       note=f"slower than the {policy.seconds_tolerance:.0%}"
                            " noise band")


def _diff_run(differ: _Differ, a: dict, b: dict,
              policy: DiffPolicy) -> None:
    ea = a.get("engine") or {}
    eb = b.get("engine") or {}
    if ea or eb:
        for metric in ("failed_cells", "degraded_cells"):
            va, vb = ea.get(metric, 0) or 0, eb.get(metric, 0) or 0
            if _numeric(va) and _numeric(vb) and vb > va:
                differ.add("run", "engine", metric, va, vb,
                           gated=policy.gate_status,
                           note="more cells lost to faults")
        for metric in ("cells", "groups"):
            va, vb = ea.get(metric), eb.get(metric)
            if _numeric(va) and _numeric(vb) and va != vb:
                differ.add("run", "engine", metric, va, vb, gated=False,
                           note="grid shape changed")
    ma, mb = a.get("machines") or [], b.get("machines") or []
    if ma and mb and list(ma) != list(mb):
        differ.add("run", "run", "machines", ",".join(ma), ",".join(mb),
                   gated=False, note="machine set changed")


def load_diff_side(path_or_ref: str, ledger=None) -> dict:
    """Resolve one CLI diff operand to a uniform payload.

    An existing path must end in ``.jsonl`` and loads as a run report;
    anything else resolves through the ledger (``latest``, ``latest~N``,
    a numeric id, or a fingerprint prefix).
    """
    import os

    from .history import payload_from_events
    from .recorder import read_jsonl_tolerant

    if os.path.exists(path_or_ref):
        if path_or_ref.endswith(".jsonl"):
            events, _skipped = read_jsonl_tolerant(path_or_ref)
            return payload_from_events(events, source=path_or_ref)
        raise ValueError(f"{path_or_ref}: expected a .jsonl run report")
    if ledger is None:
        raise ValueError(
            f"{path_or_ref}: not a file, and no ledger given to resolve "
            "it as a run reference")
    return ledger.payload(ledger.resolve(path_or_ref))
