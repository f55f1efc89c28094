"""Every module of the package parses as the oldest Python pyproject.toml allows."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import gridfloer

PACKAGE_DIR = Path(gridfloer.__file__).resolve().parent
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _floor() -> tuple[int, int]:
    """The (major, minor) of ``requires-python = ">=X.Y"`` in pyproject.toml."""
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', PYPROJECT.read_text(), re.M)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


def test_floor_parser_rejects_newer_syntax():
    # A match statement is 3.10 syntax and an except* clause 3.11 syntax.
    assert _floor() == (3, 10)
    ast.parse("match rows:\n    case []:\n        pass\n", feature_version=_floor())
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=_floor())


def test_every_module_parses_at_the_declared_floor():
    paths = sorted(PACKAGE_DIR.rglob("*.py"))
    assert {"chain.py", "domains.py", "cli.py"} <= {p.name for p in paths}
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=_floor())
