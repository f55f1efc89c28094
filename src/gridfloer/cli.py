"""Command-line interface.

One verb per invocation; every file-reading verb accepts a batch of grids
(blank-line separated) and emits one output block (``--format text``) or one
JSON line (``--format records``) per grid, in input order.  Entry-level
failures are reported in-stream so batch output stays aligned with batch
input; the process exit code is the worst entry code: 0 fine, 1 bad input,
2 internal alarm (a structural self-check or exact division failed, or the
computation raised any other exception, meaning a bug here rather than in
the input).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from math import factorial
from multiprocessing import Pool

from .errors import GridError, GridTooLarge, NotDivisible
from .grid import (
    GridDiagram,
    _split_grids,
    link_summary,
    parse_grids,
    random_grid,
    serialize_grid,
)
from .homology import BigradedRanks, homology_ranks
from .invariants import _require_knot, build_report, genus, hfk_hat, is_fibered, is_unknot
from .laurent import laurent_string
from .moves import GridMove, MoveKind, apply_move
from .verify import run_checks

__all__ = ["run", "main"]

# Verbs that compute homology, at a cost exponential in n, and so honor the
# --max-n guard.  Of these, only FULL_COMPLEX_VERBS enumerate all n!
# generators on every grid; the others rank only some Alexander levels.
EXPENSIVE_VERBS = frozenset(
    {"homology", "hfk", "unknot", "genus", "fibered", "alexander", "verify"}
)
FULL_COMPLEX_VERBS = frozenset({"homology", "verify"})

Entry = tuple[int, list[str], dict]

# What the NotAKnot error names on a link, the same for every knot verb.
KNOT_VERBS_NAME = "the knot report"

# Largest grid the random verb emits; its output and memory grow with the size.
MAX_RANDOM_SIZE = 1000


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
    _require_knot(G, KNOT_VERBS_NAME)
    value = is_unknot(G)
    return 0, [f"unknot: {'true' if value else 'false'}"], {
        "verb": "unknot",
        "n": G.n,
        "unknot": value,
    }


def _h_genus(G: GridDiagram, opts: dict) -> Entry:
    _require_knot(G, KNOT_VERBS_NAME)
    value = genus(G)
    return 0, [f"genus: {value}"], {"verb": "genus", "n": G.n, "genus": value}


def _h_fibered(G: GridDiagram, opts: dict) -> Entry:
    _require_knot(G, KNOT_VERBS_NAME)
    value = is_fibered(G)
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
            if G.n > opts["max_n"]:
                growth = ""
                if verb in FULL_COMPLEX_VERBS:
                    growth = f" (the complex has n! = {factorial(G.n)} generators)"
                raise GridTooLarge(
                    f"grid size {G.n} exceeds --max-n {opts['max_n']}{growth};"
                    f" pass --max-n {G.n} to force"
                )
        return _HANDLERS[verb](G, opts)
    except NotDivisible as err:
        return _error_entry(verb, 2, err)
    except GridError as err:
        return _error_entry(verb, 1, err)
    except Exception as err:
        # A bug here, not bad input: keep the traceback on stderr, report
        # the entry in-stream and go on with the batch.  Imported here, as
        # importing traceback costs every run about 2 ms of set-up.
        import traceback

        traceback.print_exc(file=sys.stderr)
        return _error_entry(verb, 2, err)


def _error_entry(verb: str, code: int, err: Exception) -> Entry:
    name = type(err).__name__
    record = {"verb": verb, "error": str(err), "error_type": name}
    return code, [f"error: {name}: {err}"], record


def _read_text(path: str) -> str:
    """The input as text, without the byte-order mark some editors put first."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return text.removeprefix("\ufeff")


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
        help="refuse the homology verbs above this grid size (default 10);"
        " their cost grows exponentially with n, and homology and verify"
        " enumerate all n! generators",
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
    rnd.add_argument(
        "--size",
        type=int,
        required=True,
        metavar="N",
        help=f"grid size, 2 to {MAX_RANDOM_SIZE}",
    )
    rnd.add_argument("--seed", type=int, default=0, metavar="S")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call: building it costs about 2 ms."""
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
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
        if args.size > MAX_RANDOM_SIZE:
            sys.stderr.write(f"error: --size {args.size} exceeds the limit {MAX_RANDOM_SIZE}\n")
            return 1
        try:
            G = random_grid(args.size, random.Random(args.seed))
        except GridError as err:
            sys.stderr.write(f"error: {err}\n")
            return 1
        record = {"verb": "random", "seed": args.seed, "grid": _grid_json(G)}
        entry: Entry = (0, serialize_grid(G).splitlines(), record)
        return _emit([entry], args.format)

    try:
        blocks = _split_grids(_read_text(args.path))
    except (OSError, UnicodeDecodeError, GridError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 1

    opts = {"max_n": args.max_n}
    if args.verb == "move":
        opts["kind"] = args.kind
        opts["position"] = args.position
    # A block that does not parse is its own entry; the other blocks still run.
    entries: list[Entry | None] = []
    payloads = []
    for first_line, block in blocks:
        try:
            [G] = parse_grids(block, first_line)
        except GridError as err:
            entries.append(_error_entry(args.verb, 1, err))
            continue
        entries.append(None)
        payloads.append((args.verb, G, opts))

    if args.jobs > 1 and len(payloads) > 1:
        with Pool(processes=min(args.jobs, len(payloads), os.cpu_count() or 1)) as pool:
            done = iter(pool.map(_process_entry, payloads))
    else:
        done = map(_process_entry, payloads)
    return _emit([entry or next(done) for entry in entries], args.format)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
