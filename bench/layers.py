"""Per-layer spans for the traced benchmark child, and the metrics
derived from them.

The program's own spans stop at the engine boundary: ``engine.run``,
``group.run``, ``compile.run``, ``simulate``, ``cache.get`` and
``cache.put``.  :func:`install` wraps the public function of each
layer below that boundary so that every call opens a span on the same
:class:`~repro.obs.trace.Tracer` the engine writes to, giving one span
tree.  A function imported by name into another module is patched at
every binding site a call goes through, not only where it is defined
(``repro.opt.driver.parse`` as well as ``repro.lang.parser.parse``).

Only the benchmark child imports this module, and only when traced.
The patches last for the life of that process.
"""

from __future__ import annotations

import importlib
import os
from collections import Counter

# Each layer: (span name, binding sites as (module, attribute path)).
# The opt.local layer includes the control-flow cleanup the driver runs
# after every value-numbering/DCE pass.
LAYERS = (
    ("lang.parse", (("repro.lang.parser", "parse"),
                    ("repro.opt.driver", "parse"))),
    ("lang.semantics", (("repro.lang.semantics", "check"),
                        ("repro.lang.codegen", "check"),
                        ("repro.opt.driver", "check"))),
    ("lang.codegen", (("repro.lang.codegen", "generate"),
                      ("repro.opt.driver", "generate"))),
    ("opt.unroll", (("repro.opt.unroll", "unroll_module"),
                    ("repro.opt.unroll", "resolve_partial_decls"),
                    ("repro.opt.driver", "unroll_module"),
                    ("repro.opt.driver", "resolve_partial_decls"))),
    ("opt.local", (("repro.opt.local", "value_number_function"),
                   ("repro.opt.local", "dead_code_elimination"),
                   ("repro.opt.cleanup", "cleanup_control_flow"),
                   ("repro.opt.driver", "value_number_function"),
                   ("repro.opt.driver", "dead_code_elimination"),
                   ("repro.opt.driver", "cleanup_control_flow"))),
    ("opt.global", (("repro.opt.globalopt", "loop_invariant_code_motion"),
                    ("repro.opt.driver", "loop_invariant_code_motion"))),
    ("opt.regalloc", (("repro.opt.regalloc", "promote_variables"),
                      ("repro.opt.regalloc", "assign_temporaries"),
                      ("repro.opt.driver", "promote_variables"),
                      ("repro.opt.driver", "assign_temporaries"))),
    ("opt.alias", (("repro.opt.alias", "bind_array_parameters"),
                   ("repro.opt.driver", "bind_array_parameters"))),
    ("isa.validate", (("repro.isa.program", "Program.validate"),)),
    ("sched.schedule", (("repro.sched.registry",
                         "SchedulerBackend.schedule_function"),)),
    ("sched.dag", (("repro.sched.dag", "build_dag"),
                   ("repro.sched.listsched", "build_dag"),
                   ("repro.sched.exact", "build_dag"),
                   ("repro.sched.swp", "build_dag"))),
    ("sched.check", (("repro.sched.validate", "check_schedule"),
                     ("repro.sched.listsched", "check_schedule"),
                     ("repro.sched.exact", "check_schedule"),
                     ("repro.sched.swp", "check_schedule"))),
    ("sim.interp", (("repro.sim.interp", "run"),
                    ("repro.benchmarks.suite", "run"))),
    ("sim.plan", (("repro.sim.replay", "build_plan"),)),
    # Renamed to sim.resolve or sim.vector once the run's stats are known.
    ("sim.replay", (("repro.sim.replay", "ReplayCore.run"),)),
    ("sim.vecbuild", (("repro.sim.replay_vec", "build_plan_vec"),
                      ("repro.sim.replay_vec", "build_core_vec"))),
    # A memo-store lookup first hashes the trace into its key.
    ("memo.load", (("repro.sim.memo", "MemoStore.load"),
                   ("repro.sim.memo", "memo_key"))),
    ("memo.adopt", (("repro.sim.replay", "ReplayCore.adopt_memo"),)),
    ("memo.export", (("repro.sim.replay", "ReplayCore.export_memo"),)),
    ("memo.store", (("repro.sim.memo", "MemoStore.store"),)),
    ("cache.load", (("repro.engine.cache", "TraceCache.load"),)),
    ("cache.store", (("repro.engine.cache", "TraceCache.store"),)),
)

#: Span names whose self time is attributed to a layer (sim.replay spans
#: are always renamed before they close).
LAYER_SPANS = tuple(name for name, _ in LAYERS if name != "sim.replay") \
    + ("sim.resolve", "sim.vector")

#: Scheduler backends whose schedule_block calls are counted.
_BACKENDS = (("repro.sched.listsched", "ListScheduler"),
             ("repro.sched.exact", "ExactScheduler"),
             ("repro.sched.swp", "SwpScheduler"))


def _after_hooks(tally: Counter) -> dict:
    """Callbacks ``(span, args, result)`` run inside the span, keyed by
    the attribute path of the function they follow."""

    def codegen(span, args, program):
        tally["lang.codegen.instrs"] += program.instruction_count()

    def interp(span, args, run):
        # The interpreter runs the final (optimized, scheduled) program.
        tally["opt.instrs_out"] += args[0].instruction_count()
        tally["sim.interp.instructions"] += run.instructions

    def replay(span, args, outcome):
        span.name = ("sim.vector" if outcome.stats.vectorized_blocks
                     else "sim.resolve")

    def loaded(prefix):
        def hook(span, args, result):
            if result is not None:
                store, key = args[0], args[1]
                tally[prefix + ".bytes_read"] += os.path.getsize(
                    store.path_for(key))
        return hook

    def stored(prefix):
        def hook(span, args, result):
            store, key = args[0], args[1]
            tally[prefix + ".bytes_written"] += os.path.getsize(
                store.path_for(key))
        return hook

    return {
        "generate": codegen, "run": interp, "ReplayCore.run": replay,
        "MemoStore.load": loaded("memo"), "TraceCache.load": loaded("cache"),
        "MemoStore.store": stored("memo"), "TraceCache.store": stored("cache"),
    }


def _wrap(tracer, name, fn, after):
    def wrapper(*args, **kwargs):
        with tracer.span(name, cat="layer") as span:
            result = fn(*args, **kwargs)
            if after is not None:
                after(span, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _resolve(module: str, attr: str):
    """``(owner, leaf)`` for a dotted attribute path inside a module."""
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def install(tracer) -> Counter:
    """Patch every layer's binding sites to open spans on ``tracer``.

    Returns the tally the hooks count into (instructions, bytes,
    scheduled blocks).  Layers whose module is absent (the NumPy kernel
    under the stdlib backend) are skipped.
    """
    tally: Counter = Counter()
    hooks = _after_hooks(tally)
    wrappers: dict[int, object] = {}
    for name, sites in LAYERS:
        for module, attr in sites:
            try:
                owner, leaf = _resolve(module, attr)
            except ImportError:
                continue
            original = getattr(owner, leaf)
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                wrapper = _wrap(tracer, name, original, hooks.get(attr))
                wrappers[id(original)] = wrapper
            setattr(owner, leaf, wrapper)

    for module, cls_name in _BACKENDS:
        cls = getattr(importlib.import_module(module), cls_name)
        cls.schedule_block = _counted(cls.schedule_block, tally)
    return tally


def _counted(fn, tally: Counter):
    def schedule_block(*args, **kwargs):
        tally["sched.blocks"] += 1
        return fn(*args, **kwargs)

    return schedule_block


def self_times(spans) -> tuple[dict, Counter]:
    """Per span name: total self time in seconds, and the call count.

    A span's self time is its duration minus the time its child spans
    cover (children never overlap: the child runs on one thread).
    """
    child_ns: Counter = Counter()
    for span in spans:
        if span.parent_id is not None:
            child_ns[span.parent_id] += span.dur_ns
    totals: Counter = Counter()
    calls: Counter = Counter()
    for span in spans:
        totals[span.name] += (span.dur_ns - child_ns[span.span_id]) / 1e9
        calls[span.name] += 1
    return dict(totals), calls


def layer_metrics(spans, run_s: float, tally: Counter, report,
                  metrics) -> tuple[dict, dict]:
    """The per-layer metrics of one traced run, plus span call counts.

    ``report`` is the run's :class:`~repro.engine.executor.EngineReport`
    and ``metrics`` the :class:`~repro.obs.metrics.MetricsRegistry` the
    engine counted into; ``tally`` holds what the hooks counted.
    """
    totals, calls = self_times(spans)
    values = {f"{name}.self_s": totals.get(name, 0.0)
              for name in LAYER_SPANS}
    unattributed = sum(seconds for name, seconds in totals.items()
                       if name not in LAYER_SPANS)
    counters = metrics.counters
    instructions = report.memo_instructions + report.direct_instructions
    interp_s = values["sim.interp.self_s"]
    blocks = tally["sched.blocks"]
    values.update({
        "lang.codegen.instrs": tally["lang.codegen.instrs"],
        "opt.instrs_out": tally["opt.instrs_out"],
        "sched.blocks": blocks,
        "sched.exact.fallbacks": tally["sched.exact.fallbacks"],
        "sched.exact.fallback_ratio":
            tally["sched.exact.fallbacks"] / blocks if blocks else 0.0,
        "sim.interp.instructions": tally["sim.interp.instructions"],
        "sim.interp.instr_per_s":
            tally["sim.interp.instructions"] / interp_s if interp_s else 0.0,
        "sim.resolve.calls": calls["sim.resolve"],
        "sim.vector.calls": calls["sim.vector"],
        "sim.instructions": instructions,
        "sim.memo.hit_ratio":
            report.memo_instructions / instructions if instructions else 0.0,
        "sim.memo.misses": report.memo_misses,
        "sim.memo.fallbacks": report.memo_fallbacks,
        "sim.scalar_fallback_blocks": report.scalar_fallback_blocks,
        "sim.vectorized_blocks": report.vectorized_blocks,
        "memo.hits": counters.get("cache.memo_hits", 0),
        "memo.misses": counters.get("cache.memo_misses", 0),
        "memo.bytes_read": tally["memo.bytes_read"],
        "memo.bytes_written": tally["memo.bytes_written"],
        "cache.hits": counters.get("cache.hits", 0),
        "cache.misses": counters.get("cache.misses", 0),
        "cache.bytes_read": tally["cache.bytes_read"],
        "cache.bytes_written": tally["cache.bytes_written"],
        "engine.unattributed_s": unattributed,
        "engine.unattributed_ratio": unattributed / run_s,
        "trace.run_s": run_s,
    })
    return values, {name: calls[name] for name in LAYER_SPANS}
