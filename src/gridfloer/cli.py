"""Command-line interface.

One verb per invocation; every file-reading verb accepts a batch of grids
(blank-line separated) and emits one output block (``--format text``) or one
JSON line (``--format records``) per grid, in input order.  Entry-level
failures are reported in-stream so batch output stays aligned with batch
input; the process exit code is the worst entry code: 0 fine, 1 bad input,
2 internal alarm (a structural self-check or exact division failed, meaning
a bug here rather than in the input).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from math import factorial
from multiprocessing import Pool

from .chain import MAX_PACKED_N
from .errors import GridError, GridTooLarge, NotDivisible
from .grid import GridDiagram, link_summary, parse_grids, random_grid, serialize_grid
from .homology import BigradedRanks, homology_ranks
from .invariants import build_report, hfk_hat
from .laurent import laurent_string
from .moves import GridMove, MoveKind, apply_move
from .verify import run_checks

__all__ = ["run", "main"]

# Verbs that enumerate all n! generators and so honor the --max-n guard.
EXPENSIVE_VERBS = frozenset(
    {"homology", "hfk", "unknot", "genus", "fibered", "alexander", "verify"}
)

Entry = tuple[int, list[str], dict]


def _ranks_lines(ranks: BigradedRanks) -> list[str]:
    return [f"m={m} s={s} rank={r}" for m, s, r in ranks.entries]


def _ranks_json(ranks: BigradedRanks) -> list[list]:
    return [[m, str(s), r] for m, s, r in ranks.entries]


def _grid_json(G: GridDiagram) -> dict:
    return {"n": G.n, "O": list(G.o_rows), "X": list(G.x_rows)}


def _h_validate(G: GridDiagram, opts: dict) -> Entry:
    s = link_summary(G)
    word = "component" if s.component_count == 1 else "components"
    lines = [f"ok: {G.n}x{G.n} grid, {s.component_count} {word}"]
    return 0, lines, {"verb": "validate", "n": G.n, "ok": True, "components": s.component_count}


def _h_info(G: GridDiagram, opts: dict) -> Entry:
    s = link_summary(G)
    lines = [
        f"n: {G.n}",
        f"components: {s.component_count}",
        f"crossings: {s.crossing_count}",
        "component_of_column: " + ",".join(map(str, s.component_of_column)),
    ]
    record = {
        "verb": "info",
        "n": G.n,
        "components": s.component_count,
        "crossings": s.crossing_count,
        "component_of_column": list(s.component_of_column),
    }
    return 0, lines, record


def _h_homology(G: GridDiagram, opts: dict) -> Entry:
    ranks = homology_ranks(G)
    lines = [f"n: {G.n}", f"total rank: {ranks.total_rank()}"] + _ranks_lines(ranks)
    record = {
        "verb": "homology",
        "n": G.n,
        "total_rank": ranks.total_rank(),
        "ranks": _ranks_json(ranks),
    }
    return 0, lines, record


def _h_hfk(G: GridDiagram, opts: dict) -> Entry:
    components = link_summary(G).component_count
    ranks = hfk_hat(G)
    lines = [
        f"n: {G.n}",
        f"components: {components}",
        f"total rank: {ranks.total_rank()}",
    ] + _ranks_lines(ranks)
    record = {
        "verb": "hfk",
        "n": G.n,
        "components": components,
        "peeled_factors": G.n - components,
        "total_rank": ranks.total_rank(),
        "ranks": _ranks_json(ranks),
    }
    return 0, lines, record


def _h_unknot(G: GridDiagram, opts: dict) -> Entry:
    report = build_report(G)
    value = report.is_unknot
    return 0, [f"unknot: {'true' if value else 'false'}"], {
        "verb": "unknot",
        "n": G.n,
        "unknot": value,
    }


def _h_genus(G: GridDiagram, opts: dict) -> Entry:
    report = build_report(G)
    return 0, [f"genus: {report.genus}"], {"verb": "genus", "n": G.n, "genus": report.genus}


def _h_fibered(G: GridDiagram, opts: dict) -> Entry:
    report = build_report(G)
    value = report.is_fibered
    return 0, [f"fibered: {'true' if value else 'false'}"], {
        "verb": "fibered",
        "n": G.n,
        "fibered": value,
    }


def _h_alexander(G: GridDiagram, opts: dict) -> Entry:
    report = build_report(G)
    poly = dict(report.alexander)
    lines = [f"alexander: {laurent_string(poly)}"]
    record = {
        "verb": "alexander",
        "n": G.n,
        "coefficients": [[e, c] for e, c in report.alexander],
        "rendered": laurent_string(poly),
    }
    return 0, lines, record


def _h_verify(G: GridDiagram, opts: dict) -> Entry:
    results = run_checks(G)
    lines = []
    for r in results:
        status = "ok" if r.passed else "FAIL"
        suffix = f" ({r.detail})" if r.detail else ""
        lines.append(f"check {r.name}: {status}{suffix}")
    ok = all(r.passed for r in results)
    record = {
        "verb": "verify",
        "n": G.n,
        "passed": ok,
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
    }
    return (0 if ok else 2), lines, record


def _h_move(G: GridDiagram, opts: dict) -> Entry:
    move = GridMove(MoveKind(opts["kind"]), opts["position"])
    moved = apply_move(G, move)
    lines = serialize_grid(moved).splitlines()
    record = {
        "verb": "move",
        "kind": opts["kind"],
        "position": opts["position"],
        "grid": _grid_json(moved),
    }
    return 0, lines, record


_HANDLERS = {
    "validate": _h_validate,
    "info": _h_info,
    "homology": _h_homology,
    "hfk": _h_hfk,
    "unknot": _h_unknot,
    "genus": _h_genus,
    "fibered": _h_fibered,
    "alexander": _h_alexander,
    "verify": _h_verify,
    "move": _h_move,
}


def _process_entry(payload: tuple[str, GridDiagram, dict]) -> Entry:
    verb, G, opts = payload
    try:
        if verb in EXPENSIVE_VERBS:
            # Checked first: no --max-n can force a grid past the packing limit.
            if G.n > MAX_PACKED_N:
                raise GridTooLarge(f"grid size {G.n} exceeds the packing limit {MAX_PACKED_N}")
            if G.n > opts["max_n"]:
                raise GridTooLarge(
                    f"grid size {G.n} exceeds --max-n {opts['max_n']}"
                    f" (the complex has n! = {factorial(G.n)} generators);"
                    f" pass --max-n {G.n} to force"
                )
        return _HANDLERS[verb](G, opts)
    except NotDivisible as err:
        record = {"verb": verb, "error": str(err), "error_type": "NotDivisible"}
        return 2, [f"error: NotDivisible: {err}"], record
    except GridError as err:
        name = type(err).__name__
        record = {"verb": verb, "error": str(err), "error_type": name}
        return 1, [f"error: {name}: {err}"], record


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(entries: list[Entry], fmt: str) -> int:
    if fmt == "records":
        for _, _, record in entries:
            sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    else:
        blocks = ["\n".join(lines) for _, lines, _ in entries]
        sys.stdout.write("\n\n".join(blocks) + "\n")
    return max(code for code, _, _ in entries)


class _Parser(argparse.ArgumentParser):
    """Usage mistakes are invalid input (exit 1), never an internal alarm."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "records"),
        default="text",
        help="text blocks (default) or one JSON line per grid",
    )
    common.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="K",
        help="worker processes for batch files; output order and bytes do not depend on K",
    )
    common.add_argument(
        "--max-n",
        type=int,
        default=10,
        dest="max_n",
        metavar="N",
        help="refuse generator-enumerating verbs above this grid size"
        " (the complex has n! generators)",
    )
    parser = _Parser(
        prog="gridfloer",
        description="Grid diagram homology: link invariants from combinatorial chain complexes.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    def add(name: str, help_text: str, with_path: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=help_text)
        if with_path:
            p.add_argument("path", help="grid file (batch allowed), or - for stdin")
        return p

    add("validate", "parse and validate grids, reporting size and components")
    add("info", "size, component count, crossing count")
    add("homology", "bigraded homology ranks of the collapsed complex")
    add("hfk", "homology ranks with the extra V tensor factors divided out")
    add("unknot", "is the knot trivial?")
    add("genus", "Seifert genus of a knot")
    add("fibered", "is the knot fibered?")
    add("alexander", "Alexander polynomial of a knot")
    add("verify", "run structural self-checks (d^2 = 0, gradings, index, peeling)")
    mv = add("move", "apply one grid move and print the resulting grid")
    mv.add_argument(
        "--kind",
        required=True,
        choices=[k.value for k in MoveKind],
        help="which move to apply",
    )
    mv.add_argument(
        "--position",
        type=int,
        default=1,
        metavar="I",
        help="shift count (cyclic), pair index (commute), or column (stabilize)",
    )
    rnd = add("random", "emit a random valid grid", with_path=False)
    rnd.add_argument("--size", type=int, required=True, metavar="N")
    rnd.add_argument("--seed", type=int, default=0, metavar="S")
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    if args.jobs < 1:
        sys.stderr.write("error: --jobs must be at least 1\n")
        return 1
    if args.max_n < 2:
        sys.stderr.write("error: --max-n must be at least 2\n")
        return 1

    if args.verb == "random":
        try:
            G = random_grid(args.size, random.Random(args.seed))
        except GridError as err:
            sys.stderr.write(f"error: {err}\n")
            return 1
        record = {"verb": "random", "seed": args.seed, "grid": _grid_json(G)}
        entry: Entry = (0, serialize_grid(G).splitlines(), record)
        return _emit([entry], args.format)

    try:
        grids = parse_grids(_read_text(args.path))
    except OSError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    except GridError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1

    opts = {"max_n": args.max_n}
    if args.verb == "move":
        opts["kind"] = args.kind
        opts["position"] = args.position
    payloads = [(args.verb, G, opts) for G in grids]

    if args.jobs > 1 and len(payloads) > 1:
        with Pool(processes=min(args.jobs, len(payloads), os.cpu_count() or 1)) as pool:
            entries = pool.map(_process_entry, payloads)
    else:
        entries = [_process_entry(p) for p in payloads]
    return _emit(entries, args.format)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
