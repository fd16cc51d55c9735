"""Benchmark harness configuration.

Each benchmark target regenerates one table or figure of the paper via
``repro.analysis.experiments`` and stores the rendered exhibit under
``results/``.  Exhibits are measured with a single round: the interesting
output is the reproduced data, not the harness's own wall-clock noise.
The measured exhibits and the extension benches share one temporary
trace cache per session, so a compile unit several of them use is
compiled once.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.benchmarks import suite
from repro.engine.cache import TraceCache
from repro.engine.executor import acquire_run

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def trace_cache(tmp_path_factory) -> TraceCache:
    """One temporary trace cache shared by the whole session."""
    return TraceCache(str(tmp_path_factory.mktemp("trace-cache")))


def run_exhibit(benchmark, results_dir, factory, **kwargs):
    """Run one exhibit under pytest-benchmark and persist its rendering."""
    exhibit = benchmark.pedantic(
        lambda: factory(**kwargs), rounds=1, iterations=1
    )
    path = results_dir / f"{exhibit.ident.replace('.', '_')}.txt"
    path.write_text(str(exhibit) + "\n", encoding="utf-8")
    return exhibit


def run_of(cache, bench, options=None):
    """``bench``'s checked run under ``options`` (default: its own),
    through the session's trace cache."""
    if isinstance(bench, str):
        bench = suite.get(bench)
    run, _, checksum_ok = acquire_run(
        bench.name, options or suite.default_options(bench), cache)
    assert checksum_ok, f"{bench.name}: wrong checksum"
    return run
