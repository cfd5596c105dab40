"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports names from many submodules would
import all of them the moment anything inside the package is imported.
:func:`lazy_exports` instead returns the module-level ``__getattr__``
and ``__dir__`` pair that imports a submodule only when one of its
names is first read (``from pkg import name``, ``pkg.name`` or
``from pkg import *``), then caches the value on the package.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, whose ``table`` maps
    each submodule (relative name) to the names it exports."""
    where = {name: f"{package}.{sub}" for sub, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(where[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__
