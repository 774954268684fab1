"""Every name in the package's and each library module's ``__all__`` exists."""

import importlib

import pytest

MODULES = ["dfsphere"] + [
    f"dfsphere.{name}" for name in ("analysis", "geometry", "grids", "sh_reference", "spectral", "testfns")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
