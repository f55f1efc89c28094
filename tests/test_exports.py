"""Every exported name resolves, so a deleted name cannot stay exported."""

from __future__ import annotations

import importlib
import pkgutil

import gridfloer


def test_star_import_binds_every_package_export():
    namespace: dict = {}
    exec("from gridfloer import *", namespace)
    assert set(gridfloer.__all__) <= set(namespace)


def test_every_submodule_export_resolves():
    # __main__ is skipped: importing it would run the CLI.
    names = [m.name for m in pkgutil.iter_modules(gridfloer.__path__) if m.name != "__main__"]
    assert "homology" in names
    for name in names:
        module = importlib.import_module(f"gridfloer.{name}")
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"gridfloer.{name}.__all__ lists missing {attr!r}"
