"""gridfloer benchmark: seeded knot workloads, timed end to end and traced per layer.

    python3 perfbench/run.py --workload full-n7 --seed 1 --seconds 36 --trace 0

The load is a closed loop with one client: each op (one CLI verb on one
grid, or one determinant) starts when the previous one ends and a fixed
reference computation has been timed, in one process, with ``--jobs 1``.  Every pass over the workload's ops runs in a
fresh worker process, so each pass yields its own set-up time and peak
memory.  Passes repeat while the next one is expected to end within
``--seconds``; there is always at least one (two with tracing).

``--trace 0`` prints the end-to-end metrics: times in seconds, and the same
times in reference units, each op's seconds over the reference's seconds
next to it, which cancels most of the host's drift in speed.  The JSON
result line carries the metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced passes over the same ops and prints the
per-layer metrics of ``layertrace`` plus the tracing overhead, traced minus
untraced pass time.  Every answer is checked against ``workloads``; an op fails on
a wrong answer, a nonzero exit code or an exception.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
``--out FILE`` also writes every sample, the trace spans and the machine
description as JSON, for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checkout import ROOT, import_gridfloer
from layertrace import METRICS as LAYER_METRICS
from workloads import WORKLOADS, check_answer, check_inputs, make_grids, pass_ops

BENCH_DIR = Path(__file__).resolve().parent
END_TO_END_UNITS = {
    "wall_s": "s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "wall_ref": "ref",
    "op_p50_ref": "ref",
    "op_p90_ref": "ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Printed, and written with --out, but left out of the JSON result line and
# of BENCHMARK.json.  The times in seconds: the host's speed drifts by tens
# of percent over seconds to minutes, so their medians moved by up to 40%
# between runs of the same code; the same times in reference units (see
# worker.py) moved by about 5%.  op_p90_ref: the tail of some 125 op
# samples still spread by 15% between runs; compare.py pools it over all
# runs.  The layer times read exactly 0 on every run of a workload that never
# calls the layer, which looks like a stuck clock.
NOT_IN_RESULT_LINE = frozenset(
    {
        "wall_s",
        "op_s_p50",
        "op_s_p90",
        "op_p90_ref",
        "invariants.self_s",
        "verify.minus_d_squared_s",
        "verify.tilde_matches_minus_s",
        "verify.grading_laws_s",
        "verify.index_one_iff_empty_s",
        "verify.peel_exact_s",
        "domains.index_s",
        "winding.determinant_s",
    }
)
# Set-up-only processes per run, on top of the one each pass starts.
SETUP_SAMPLES = 6
# Hard stop for the whole run; a run must end within 180 s.
RUN_LIMIT_S = 170.0


class WorkerFailed(Exception):
    pass


def spawn(job: dict, timeout: float) -> dict:
    """Run one worker process to completion and return its result."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker exceeded {exc.timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise WorkerFailed(f"worker exited {proc.returncode}: {tail[0]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    result["process_s"] = time.monotonic() - started
    return result


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolating between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine() -> dict:
    """Python version, CPU count and model, and the checkout's git commit."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "git_commit": commit,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write every sample to this JSON file")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    t_start = time.monotonic()
    args = parse_args(argv)
    try:
        gf = import_gridfloer()
    except ImportError as err:
        sys.stderr.write(f"error: cannot import the program: {err}\n")
        return 2
    grids = make_grids(gf, args.workload, args.seed)
    problems = check_inputs(gf, grids)
    if problems:
        sys.stderr.write("error: generated inputs are wrong:\n  " + "\n  ".join(problems) + "\n")
        return 1
    texts = {name: gf.serialize_grid(G) for name, G in grids.items()}

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - t_start)

    try:
        setups = [
            spawn({"grids": texts, "ops": [], "trace": False}, remaining())["setup_s"]
            for _ in range(SETUP_SAMPLES)
        ]
    except WorkerFailed as err:
        sys.stderr.write(f"error: set-up failed: {err}\n")
        return 1

    passes, attempted, failures = run_passes(args, texts, remaining)
    failed = len(failures)
    for line in failures[:10]:
        sys.stderr.write(f"failed: {line}\n")
    plain = [p for p in passes if not p["traced"]]
    if not plain or (args.trace and len(plain) == len(passes)):
        sys.stderr.write("error: no complete pass to measure\n")
        return 1
    walls = [p["wall_s"] for p in plain]
    op_times = [op["seconds"] for p in plain for op in p["ops"]]
    op_costs = [op_cost(op) for p in plain for op in p["ops"]]
    setups += [p["setup_s"] for p in passes]
    summary = {
        "wall_s": statistics.median(walls),
        "op_s_p50": statistics.median(op_times),
        "op_s_p90": percentile(op_times, 90),
        "wall_ref": statistics.median(pass_cost(p) for p in plain),
        "op_p50_ref": statistics.median(op_costs),
        "op_p90_ref": percentile(op_costs, 90),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in plain) / 1024,
        "setup_s": statistics.median(setups),
    }
    print(
        f"gridfloer benchmark: workload {args.workload}, seed {args.seed},"
        f" {len(passes)} passes, {attempted} ops; closed loop, 1 client, --jobs 1"
    )
    notes = {
        "wall_s": f"median of {len(walls)} untraced passes",
        "op_s_p50": f"{len(op_times)} op samples",
        "op_s_p90": f"{len(op_times)} op samples",
        "wall_ref": f"median of {len(walls)} untraced passes",
        "op_p50_ref": f"{len(op_times)} op samples",
        "op_p90_ref": f"{len(op_times)} op samples",
        "peak_rss_mb": f"median of {len(walls)} pass processes",
        "setup_s": f"median of {len(setups)} set-ups",
    }
    for name, value in summary.items():
        print(f"  {name:<30} {value:12.4f} {END_TO_END_UNITS[name]:<10} {notes[name]}")
    print(f"  {'fail_frac':<30} {failed / attempted:12.4f} {'':<10} {failed} of {attempted} ops")

    if args.trace:
        metrics, trace_report = layer_summary(passes)
        units = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
        units["trace.overhead_s"] = "s"
        for name, value in metrics.items():
            shown = "missing" if name in trace_report["missing"] else f"{value:12.4f}"
            print(f"  {name:<30} {shown:>12} {units[name]}")
        print(
            f"  tracing overhead: traced minus untraced pass time = {metrics['trace.overhead_s']:.4f} s"
            f" ({metrics['trace.overhead_s'] / summary['wall_s']:+.1%} of wall_s);"
            f" per-layer values are medians of {len(passes) // 2} traced passes"
        )
    else:
        metrics, trace_report = summary, None
        units = END_TO_END_UNITS

    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "passes": len(passes),
            "started_unix": time.time(),
            "machine": machine(),
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "failures": failures,
            "summary": summary,
            "metrics": metrics,
            "setup_samples": setups,
            "pass_samples": [
                {k: p[k] for k in ("traced", "wall_s", "setup_s", "maxrss_kb", "ops")}
                for p in passes
            ],
            "trace_report": trace_report,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                    if name not in NOT_IN_RESULT_LINE
                },
            }
        )
    )
    return 0


def run_passes(args: argparse.Namespace, texts: dict, remaining) -> tuple[list, int, list]:
    """(passes, ops attempted, one line per failed op).

    Passes run while the next is expected to end within ``--seconds``.  With
    tracing, untraced and traced passes alternate over the same ops, and the
    last pass is traced.
    """
    passes: list[dict] = []
    attempted = 0
    failures: list[str] = []
    t_measure = time.monotonic()
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        ops = pass_ops(args.workload, index // 2 if args.trace else index)
        index += 1
        attempted += len(ops)
        try:
            result = spawn({"grids": texts, "ops": ops, "trace": traced}, remaining())
        except WorkerFailed as err:
            failures += [f"pass {index}, {verb} {knot}: {err}" for verb, knot in ops]
            break
        result["traced"] = traced
        for op in result["ops"]:
            answer = op.pop("answer")
            why = op["error"] or check_answer(op["verb"], op["knot"], op["n"], op["code"], answer)
            op["ok"] = why is None
            if why:
                failures.append(f"{op['verb']} {op['knot']}: {why}")
        passes.append(result)
        elapsed = time.monotonic() - t_measure
        estimate = statistics.median(p["process_s"] for p in passes)
        if args.trace and not traced:
            continue
        if elapsed + (2 if args.trace else 1) * estimate > args.seconds:
            break
        if remaining() < 2 * estimate:
            break
    return passes, attempted, failures


def op_cost(op: dict) -> float:
    """An op's time in reference units: its seconds over the reference's."""
    return op["seconds"] / op["ref_s"]


def pass_cost(p: dict) -> float:
    """A pass's time in reference units."""
    return sum(op_cost(op) for op in p["ops"])


def layer_summary(passes: list[dict]) -> tuple[dict, dict]:
    """Per-layer medians over the traced passes, and the tracing overhead."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {
        name: statistics.median(p["trace"]["metrics"][name] for p in traced)
        for name in LAYER_METRICS
    }
    # In reference units, so that the host's drift between passes cancels,
    # then in seconds at the run's median reference time.
    ref_s = statistics.median(op["ref_s"] for p in passes for op in p["ops"])
    metrics["trace.overhead_s"] = ref_s * (
        statistics.median(pass_cost(p) for p in traced)
        - statistics.median(pass_cost(p) for p in plain)
    )
    report = traced[-1]["trace"]
    return metrics, {"missing": report["missing"], "passes": [p["trace"] for p in traced]}


if __name__ == "__main__":
    sys.exit(main())
