"""The package imports nothing but the standard library and itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import gridfloer

PACKAGE_DIR = Path(gridfloer.__file__).resolve().parent


def _foreign_imports(source: str) -> list[str]:
    """Absolute imports in source that are neither stdlib nor gridfloer."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [
        name
        for name in names
        if name.split(".")[0] not in sys.stdlib_module_names | {"gridfloer"}
    ]


def test_foreign_import_finder_flags_third_party_modules():
    source = "import os\nimport numpy as np\nfrom gridfloer.grid import x\nfrom .chain import y\n"
    assert _foreign_imports(source) == ["numpy"]
    assert _foreign_imports("from scipy.linalg import det\n") == ["scipy.linalg"]


def test_every_module_imports_only_the_standard_library():
    paths = sorted(PACKAGE_DIR.rglob("*.py"))
    assert {"chain.py", "homology.py", "cli.py"} <= {p.name for p in paths}
    for path in paths:
        assert _foreign_imports(path.read_text(encoding="utf-8")) == [], path.name
