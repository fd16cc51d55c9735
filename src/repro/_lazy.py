"""Lazy package exports (PEP 562).

A package ``__init__`` in :mod:`repro` imports nothing eagerly (the one
exception is explained in :mod:`repro.analysis`).  It names what it
exports and which submodule defines each name; a name is imported on
first attribute access and then cached in the package namespace, so
later lookups cost a dict hit.  A run therefore loads only the modules
it uses: a primed sweep never compiles the front end, the optimizer or
the reporting stack.

Usage, in a package ``__init__``::

    from .. import _lazy

    __getattr__, __dir__ = _lazy.exports(__name__, globals(), {
        ".trace": ("Trace",),
        ".timing": ("TimingResult", "simulate"),
    })

Any submodule of the package also resolves as an attribute
(``repro.sim.cache``), as it did when the ``__init__`` imported it.
"""

from __future__ import annotations

import importlib
from typing import Callable


def exports(package: str, namespace: dict,
            table: dict[str, tuple[str, ...]]
            ) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair of package ``package``.

    ``namespace`` is the package's ``globals()``; ``table`` maps a
    submodule (relative to the package, ``".sim.interp"``) to the names
    the package re-exports from it.  ``__dir__`` lists the namespace,
    every exported name, ``__all__`` and the submodules in ``table``.
    """
    owner = {name: module for module, names in table.items()
             for name in names}
    sources = {module.split(".")[1] for module in table
               if not module.startswith("..")}

    def __getattr__(name: str):
        module = owner.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
        elif name.startswith("__"):
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(owner) | sources
                      | set(namespace.get("__all__", ())))

    return __getattr__, __dir__
