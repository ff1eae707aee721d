"""Every ``__all__`` in the ``repro`` packages names something real.

An export left behind when its definition is deleted fails here rather
than at a user's ``from repro.x import *``.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve_once(name):
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", [])
    missing = [item for item in exported if not hasattr(package, item)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    repeated = sorted({item for item in exported
                       if exported.count(item) > 1})
    assert not repeated, f"{name}.__all__ repeats {repeated}"
