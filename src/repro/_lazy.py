"""Lazy package namespaces (PEP 562).

A package ``__init__`` writes each public name once, under the
submodule that defines it::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "config": ("CRAY1_LIKE", "MachineConfig"),
        "engine": ("Engine",),
    })

Importing the package imports none of its submodules; the first read
of a name imports its submodule, relative to the package, and caches
the value on the package.  A submodule exports itself by listing its
own name.  ``__all__`` is the table's names in table order, so
``import *`` resolves every submodule.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of ``package``."""
    where = {name: module for module, names in table.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        submodule = where.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module = import_module("." + submodule, package)
        value = module if submodule == name else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, [name for names in table.values()
                                  for name in names]
