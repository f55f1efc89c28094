"""Where the benchmark finds the program: the ``src/`` tree of its own checkout."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_gridfloer():
    """Import gridfloer and its CLI from this checkout's ``src/``, and only from there."""
    if not (SRC / "gridfloer" / "__init__.py").is_file():
        raise ImportError(f"no gridfloer package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gridfloer
    import gridfloer.cli  # noqa: F401  (the CLI entry point is part of set-up)

    if Path(gridfloer.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"gridfloer imported from {gridfloer.__file__}, not {SRC}")
    return gridfloer
