"""Byte-exact CLI output on the regression corpus, pinned by golden files.

Each file under ``tests/golden/`` holds ``exit <code>`` on its first line and
then the exact stdout of one ``gridfloer`` invocation.  Regenerate them only
when an output change is intended:

    PYTHONPATH=src python -m tests.test_golden
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from gridfloer import cli

ROOT = Path(__file__).resolve().parent.parent
GRIDS_DIR = ROOT / "grids"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

CORPUS_VERBS = ("homology", "hfk", "alexander", "unknot", "genus", "fibered")
VERIFY_GRIDS = ("unknot2.grid", "hopf4.grid", "trefoil5.grid")
FORMATS = ("text", "records")

CASES = [
    (verb, "corpus.grids", fmt) for verb in CORPUS_VERBS for fmt in FORMATS
] + [("verify", name, fmt) for name in VERIFY_GRIDS for fmt in FORMATS]


def golden_path(verb: str, grid: str, fmt: str) -> Path:
    return GOLDEN_DIR / f"{verb}-{grid.split('.')[0]}-{fmt}.out"


def cli_output(verb: str, grid: str, fmt: str) -> str:
    """``exit <code>`` and the stdout of one in-process ``gridfloer`` run."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run([verb, "--format", fmt, str(GRIDS_DIR / grid)])
    return f"exit {code}\n{buf.getvalue()}"


@pytest.mark.parametrize("verb,grid,fmt", CASES)
def test_cli_output_matches_golden(verb, grid, fmt):
    want = golden_path(verb, grid, fmt).read_text(encoding="utf-8")
    assert cli_output(verb, grid, fmt) == want


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in CASES:
        golden_path(*case).write_text(cli_output(*case), encoding="utf-8")
