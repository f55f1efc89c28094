"""One benchmark process: set up, run one pass of ops, report as JSON.

Reads a job from stdin: {"grids": {knot: grid text}, "ops": [[verb, knot]],
"trace": bool}.  With no ops it only sets up, so the parent can sample
set-up time.  Set-up is importing gridfloer and its CLI and parsing the
workload's grids; its end is stamped on the system-wide monotonic clock so
the parent can measure from process start.  Each op then goes through a
public entry point: ``gridfloer.cli.run`` for the verbs, with the grid on
stdin and ``--format records --jobs 1``, or
``gridfloer.alexander_via_determinant``.  Answers are returned, not checked,
so checking costs nothing inside the timed region.

The host's speed drifts by tens of percent over seconds, so a fixed piece of
pure-Python work, the reference, is timed before the first op and after
each op.  Each op records the mean of the reference times on either side of
it, and ``run.py`` divides by it to give the op's cost in reference units.
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import resource
import sys
import time


def reference() -> int:
    """The fixed reference work: a dict over the 5040 permutations of 7."""
    table = {}
    for p in itertools.permutations(range(7)):
        table[p] = sum(i * v for i, v in enumerate(p)) & 7
    return len(table)


def time_reference() -> float:
    """Seconds for the reference work, twice, with the collector off.

    The reference makes no cycles; with the collector off, garbage an op
    leaves behind cannot slow it.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        reference()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_op(gf, verb: str, grid_text: str, grid) -> tuple[int, object]:
    """(exit code, answer) of one op; raises whatever the program raises."""
    if verb == "determinant":
        return 0, gf.alexander_via_determinant(grid)
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(grid_text)
    try:
        with contextlib.redirect_stdout(out):
            code = gf.cli.run([verb, "--format", "records", "--jobs", "1", "-"])
    finally:
        sys.stdin = stdin
    lines = out.getvalue().splitlines()
    return code, json.loads(lines[-1]) if lines else None


def main() -> int:
    job = json.loads(sys.stdin.read())
    from checkout import import_gridfloer

    gf = import_gridfloer()
    names = list(job["grids"])
    parsed = dict(zip(names, gf.parse_grids("\n".join(job["grids"][k] for k in names))))
    ready = time.monotonic()
    result: dict = {"ready": ready, "ops": []}

    tracer = None
    if job["ops"] and job["trace"]:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    ref_before = time_reference() if job["ops"] else 0.0
    for i, (verb, knot) in enumerate(job["ops"]):
        if tracer:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            code, answer = run_op(gf, verb, job["grids"][knot], parsed[knot])
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a dead pass
            code, answer, error = None, None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.end_op()
        ref_after = time_reference()
        result["ops"].append(
            {"verb": verb, "knot": knot, "n": parsed[knot].n, "seconds": seconds,
             "ref_s": (ref_before + ref_after) / 2,
             "code": code, "answer": answer, "error": error}
        )
        ref_before = ref_after
    result["wall_s"] = sum(op["seconds"] for op in result["ops"])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        result["trace"] = tracer.report()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
