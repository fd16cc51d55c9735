"""Package exports are lazy: a run imports only what it uses.

Every package ``__init__`` resolves its names on first access
(:mod:`repro._lazy`).  These tests pin the public surface (``__all__``,
``dir()``, ``from pkg import *``, the ``AttributeError`` of an unknown
name) and, in fresh interpreters, the modules a replay-only process
must not load.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

from repro.errors import SchedulingError
from repro.sched import registry
from repro.sched.listsched import ListScheduler

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

PACKAGES = ("repro", "repro.analysis", "repro.benchmarks", "repro.engine",
            "repro.flow", "repro.isa", "repro.lang", "repro.machine",
            "repro.obs", "repro.opt", "repro.sched", "repro.sim")

#: What ``bench/child.py`` imports before it builds its plan: the
#: facade, the trace cache, the executor, metrics and the replay.
CHILD_IMPORTS = """
import repro.api
import repro.engine.cache
import repro.engine.executor
import repro.obs.metrics
import repro.sim.replay
"""

#: Modules that a run replaying a primed cache never calls into.
NOT_LOADED = ("sqlite3", "multiprocessing", "concurrent.futures.process",
              "repro.lang", "repro.opt.driver", "repro.sched.listsched",
              "repro.analysis.experiments", "repro.obs.history",
              "repro.obs.dash", "repro.obs.diff", "repro.obs.schema")


def _fresh(code: str, *, no_numpy: bool = False):
    """Run ``code`` in a fresh interpreter; return its last stdout line
    parsed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_NO_NUMPY", None)
    if no_numpy:
        env["REPRO_NO_NUMPY"] = "1"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestImportBudget:
    @pytest.mark.parametrize("no_numpy", [False, True],
                             ids=["numpy", "scalar"])
    def test_child_imports_load_no_compiler_or_reporting(self, no_numpy):
        loaded = _fresh(
            CHILD_IMPORTS + "import json, sys\n"
            "from repro.sim.replay import BACKEND\n"
            "print(json.dumps([BACKEND, sorted(sys.modules)]))",
            no_numpy=no_numpy)
        backend, modules = loaded
        if no_numpy:
            assert backend == "scalar"
        assert [m for m in NOT_LOADED if m in modules] == []

    def test_bare_package_import_loads_no_subpackage(self):
        loaded = _fresh("import json, sys, repro\n"
                        "print(json.dumps(sorted(m for m in sys.modules "
                        "if m.startswith('repro'))))")
        assert loaded == ["repro", "repro._lazy"]

    def test_scheduler_names_load_no_backend(self):
        loaded = _fresh(
            "import json, sys\n"
            "from repro.opt.options import CompilerOptions\n"
            "from repro.sched import registry\n"
            "CompilerOptions(scheduler='exact')\n"
            "print(json.dumps([registry.names(), sorted(sys.modules)]))")
        names, modules = loaded
        assert names == ["exact", "list", "swp"]
        assert [m for m in ("repro.sched.exact", "repro.sched.swp",
                            "repro.sched.listsched") if m in modules] == []

    def test_get_loads_only_the_named_backend(self):
        modules = _fresh(
            "import json, sys\n"
            "from repro.sched import registry\n"
            "registry.get('swp')\n"
            "print(json.dumps(sorted(sys.modules)))")
        assert "repro.sched.swp" in modules
        assert "repro.sched.exact" not in modules


class TestLazySurface:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_every_export_resolves_and_is_listed(self, name):
        package = importlib.import_module(name)
        listed = dir(package)
        for export in package.__all__:
            assert getattr(package, export) is not None, export
            assert export in listed, export

    @pytest.mark.parametrize("name", PACKAGES)
    def test_star_import(self, name):
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        namespace.pop("__builtins__")
        package = importlib.import_module(name)
        assert sorted(namespace) == sorted(package.__all__)
        for export, value in namespace.items():
            assert value is getattr(package, export)

    @pytest.mark.parametrize("name", PACKAGES)
    def test_unknown_attribute(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError) as err:
            getattr(package, "no_such_name")
        assert str(err.value) \
            == f"module {name!r} has no attribute 'no_such_name'"
        assert not hasattr(package, "__no_such_dunder__")

    def test_submodules_resolve_as_attributes(self):
        import repro

        assert repro.sim.cache is importlib.import_module("repro.sim.cache")
        assert repro.engine.resilience.CELL_STATUSES[0] == "ok"

    def test_reexports_are_the_defining_objects(self):
        import repro
        import repro.api
        from repro.machine import presets
        from repro.sim import interp

        assert repro.RunResult is interp.RunResult
        assert repro.measure is repro.api.measure
        assert importlib.import_module("repro.machine").resolve \
            is presets.resolve

    def test_analysis_sweep_stays_the_function(self):
        import repro.analysis
        import repro.analysis.sweep  # noqa: F401  (binds the submodule)

        assert callable(repro.analysis.sweep)
        assert repro.analysis.sweep.__module__ == "repro.analysis.sweep"
        assert repro.analysis.summarize.__name__ == "summarize"


class TestLazyRegistry:
    def test_runtime_backend_is_listed(self, monkeypatch):
        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))

        class Late(ListScheduler):
            name = "late"
            description = "registered at run time"

        late = registry.register(Late())
        assert registry.names() == ["exact", "late", "list", "swp"]
        assert registry.get("late") is late
        assert registry.descriptions()["late"] == "registered at run time"

    def test_unknown_name_message(self):
        with pytest.raises(SchedulingError) as err:
            registry.get("bogus")
        assert str(err.value) == ("unknown scheduler backend 'bogus' "
                                  "(registered: exact, list, swp)")

    def test_duplicate_of_an_unloaded_bundled_name(self):
        code = ("import json\n"
                "from repro.sched import registry\n"
                "from repro.sched.registry import SchedulerBackend\n"
                "class Dup(SchedulerBackend):\n"
                "    name = 'exact'\n"
                "    def schedule_block(self, *args, **kw): pass\n"
                "try:\n"
                "    registry.register(Dup())\n"
                "    out = 'registered'\n"
                "except ValueError as exc:\n"
                "    out = str(exc)\n"
                "print(json.dumps(out))")
        assert _fresh(code) == "duplicate scheduler backend 'exact'"
