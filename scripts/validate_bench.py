"""Dev helper: validate one benchmark across compile configurations.

Usage::

    python scripts/validate_bench.py <name> [quick]

Compiles and runs one suite benchmark under every optimization level
(plus unroll variants unless ``quick``) and checks the result checksum
each time.
"""

import argparse
import time


def _cmd_validate(args) -> int:
    from repro.benchmarks import suite
    from repro.machine import ideal_superscalar
    from repro.opt import CompilerOptions, OptLevel
    from repro.sim import simulate

    bench = suite.get(args.name)
    expected = bench.reference()
    print(f"{args.name}: reference checksum = {expected}")
    configs = [("O%d" % lvl, CompilerOptions(opt_level=OptLevel(lvl)))
               for lvl in range(5)]
    if not args.quick:
        configs += [
            ("u4-naive", CompilerOptions(unroll=4)),
            ("u4-careful", CompilerOptions(unroll=4, careful=True)),
            ("u10-careful", CompilerOptions(unroll=10, careful=True)),
        ]
    failures = 0
    for label, opts in configs:
        t0 = time.time()
        try:
            res = suite.run_benchmark(bench, opts)
        except Exception as exc:  # noqa: BLE001 - dev tool
            print(f"  {label:12s} ERROR: {type(exc).__name__}: {exc}")
            failures += 1
            continue
        ilp = simulate(res.trace, ideal_superscalar(64)).parallelism
        ok = abs(res.value - expected) <= bench.fp_tolerance
        failures += 0 if ok else 1
        print(
            f"  {label:12s} value={res.value} ok={ok} "
            f"dyn={res.instructions} ILP={ilp:.3f} ({time.time()-t0:.1f}s)"
        )
    print("PASS" if failures == 0 else f"FAIL ({failures})")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0]
    )
    parser.add_argument("name",
                        help="benchmark to validate across compile configs")
    parser.add_argument("quick", nargs="?", choices=["quick"],
                        help="skip the slower unroll configurations")
    args = parser.parse_args(argv)
    return _cmd_validate(args)


if __name__ == "__main__":
    raise SystemExit(main())
