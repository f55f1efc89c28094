"""The benchmark harness self-test passes on this tree, and the committed
benchmark results say what they measured.

A rename of a function the tracer wraps shows up here as a wrap point
reported missing, instead of only at the next benchmark run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 failed" in proc.stdout


def test_committed_bench_results_name_what_they_measured():
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        result = json.loads(path.read_text())
        missing = {"label", "what", "command", "parent_commit", "machine"} - result.keys()
        assert not missing, (path.name, sorted(missing))
