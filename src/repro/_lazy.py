"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
import every one of them, and everything they import, as soon as any
module of the package is imported.  ``lazy_exports`` instead imports a
name's module the first time the name is read from the package, and
stores the value in the package's globals so later reads are plain
attribute lookups::

    __getattr__, __dir__ = lazy_exports(globals(), {
        "repro.core.compiler": ["compile_circuit", "lower_circuit"],
        "repro.core.config": ["CompilerConfig"],
    })

A lazy name must not equal a submodule's name: importing the submodule
binds the module under that name in the package, shadowing the export.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(namespace: Dict[str, Any],
                 exports: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of a package whose globals are
    ``namespace``; ``exports`` maps each module to the names it
    provides."""
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
