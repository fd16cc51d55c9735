"""One benchmark sample: a fresh process running one full sweep.

Started by ``bench/run.py`` as ``python bench/child.py SPEC_JSON
SPAWN_NS``; never imported.  ``SPAWN_NS`` is the parent's
``time.monotonic_ns()`` just before the spawn.  ``CLOCK_MONOTONIC`` is
system-wide, so set-up time is measured from that instant.  The child
imports ``repro``, builds the plan, opens the cache (set-up ends here),
executes the plan serially and prints one JSON object as its last
stdout line: timestamps, the rows, the engine report and counters and,
when traced, the per-layer metrics.
"""

import json
import resource
import sys
import time


def main() -> None:
    spec = json.loads(sys.argv[1])
    spawn_ns = int(sys.argv[2])

    import repro.api as api
    from repro.engine.cache import open_cache
    from repro.engine.executor import execute
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.replay import BACKEND
    t_import = time.monotonic_ns()

    plan = api.plan(
        spec["benchmarks"], spec["machines"],
        schedule_for_target=spec["schedule_for_target"],
        scheduler=spec["scheduler"], options_label=spec["mode"],
    )
    t_plan = time.monotonic_ns()
    cache = open_cache(spec["cache_dir"], spec["cache_dir"] is None)
    t_ready = time.monotonic_ns()

    metrics = MetricsRegistry()
    tracer = None
    if spec["trace_out"]:
        import layers
        from repro.obs.trace import Tracer
        from repro.sched import registry

        tracer = Tracer()
        tally = layers.install(tracer)
        exact = registry.get("exact")
        fallbacks_before = exact.fallbacks

    t_run = time.monotonic_ns()
    result = execute(plan, workers=1, cache=cache, tracer=tracer,
                     metrics=metrics)
    t_done = time.monotonic_ns()

    out = {
        "import_ns": t_import,
        "plan_ns": t_plan,
        "ready_ns": t_ready,
        "run_ns": t_run,
        "done_ns": t_done,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "backend": BACKEND,
        "cache_enabled": cache.enabled,
        "report": result.report.as_dict(),
        "counters": dict(metrics.counters),
        "rows": [
            {
                "key": f"{c.options_label}/{c.benchmark}@{c.machine}",
                "instructions": c.instructions,
                "minor_cycles": c.minor_cycles,
                "base_cycles": c.base_cycles,
                "parallelism": c.parallelism,
                "status": c.status,
                "checksum_ok": c.checksum_ok,
            }
            for c in result.cells
        ],
    }
    if tracer is not None:
        from repro.obs.trace import profile_tree, write_chrome_trace

        tally["sched.exact.fallbacks"] = exact.fallbacks - fallbacks_before
        run_s = (t_done - t_run) / 1e9
        out["layers"], out["calls"] = layers.layer_metrics(
            tracer.spans, run_s, tally, result.report, metrics)
        for name, ns in (("proc.import_s", t_import - spawn_ns),
                         ("proc.plan_s", t_plan - t_import),
                         ("proc.cache_open_s", t_ready - t_plan)):
            out["layers"][name] = ns / 1e9
        write_chrome_trace(spec["trace_out"], tracer.spans,
                           process_name=f"bench {spec['workload']}")
        out["profile"] = profile_tree(tracer.spans,
                                      title=f"{spec['workload']} (traced)")
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
