"""Command-line interface.

One verb per invocation; every file-reading verb accepts a batch of grids
(blank-line separated) and emits one output block (``--format text``) or one
JSON line (``--format records``) per grid, in input order, each written once
it and every grid before it are done.  Entry-level failures, a block that
does not parse among them, are reported in-stream so batch output stays
aligned with batch input; the process exit code is the worst entry code: 0
fine, 1 bad input, 2 internal alarm (a structural self-check or exact
division failed, or the computation raised any other exception, meaning a
bug here rather than in the input).

``_VERBS`` is the one table of the verbs that read grids: each verb's
handler, its cost class and its help line.  The cost class decides whether
``--max-n`` refuses a grid before the handler runs: None for the cheap
verbs, "levels" for those that rank some Alexander levels and "all" for
those that enumerate all n! generators, whose refusal quotes n!.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from collections.abc import Callable, Iterable
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

Entry = tuple[int, list[str], dict]
Handler = Callable[[GridDiagram, dict], Entry]

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


def _knot_verb(verb: str, invariant: Callable[[GridDiagram], bool | int]) -> Handler:
    """The handler of a knot verb: the line ``verb: value``, a bool as true or false."""

    def handler(G: GridDiagram, opts: dict) -> Entry:
        _require_knot(G, KNOT_VERBS_NAME)
        value = invariant(G)
        return 0, [f"{verb}: {str(value).lower()}"], {"verb": verb, "n": G.n, verb: value}

    return handler


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


# verb -> (handler, cost class, help line), in the order of the help.
_VERBS: dict[str, tuple[Handler, str | None, str]] = {
    "validate": (_h_validate, None, "parse and validate grids, reporting size and components"),
    "info": (_h_info, None, "size, component count, crossing count"),
    "homology": (_h_homology, "all", "bigraded homology ranks of the collapsed complex"),
    "hfk": (_h_hfk, "levels", "homology ranks with the extra V tensor factors divided out"),
    "unknot": (_knot_verb("unknot", is_unknot), "levels", "is the knot trivial?"),
    "genus": (_knot_verb("genus", genus), "levels", "Seifert genus of a knot"),
    "fibered": (_knot_verb("fibered", is_fibered), "levels", "is the knot fibered?"),
    "alexander": (_h_alexander, "levels", "Alexander polynomial of a knot"),
    "verify": (
        _h_verify,
        "all",
        "run structural self-checks (d^2 = 0, gradings, index, peeling)",
    ),
    "move": (_h_move, None, "apply one grid move and print the resulting grid"),
}


def _process_entry(payload: tuple[str, int, str, dict]) -> Entry:
    """Parse one block of the batch, guard it and run the verb on it."""
    verb, first_line, block, opts = payload
    handler, cost, _ = _VERBS[verb]
    try:
        [G] = parse_grids(block, first_line)
        if cost is not None and G.n > opts["max_n"]:
            growth = ""
            if cost == "all":
                growth = f" (the complex has n! = {factorial(G.n)} generators)"
            raise GridTooLarge(
                f"grid size {G.n} exceeds --max-n {opts['max_n']}{growth};"
                f" pass --max-n {G.n} to force"
            )
        return handler(G, opts)
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
        if sys.stdin is None:  # Python's stdin when file descriptor 0 is closed
            raise OSError("cannot read stdin: it is closed")
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return text.removeprefix("\ufeff")


def _emit(entries: Iterable[Entry], fmt: str) -> int:
    """Write each entry to stdout as it arrives; return the worst code, or 1 if stdout fails."""
    worst = 0
    for i, (code, lines, record) in enumerate(entries):
        try:
            if fmt == "records":
                sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
            else:
                sys.stdout.write(("\n" if i else "") + "\n".join(lines) + "\n")
            sys.stdout.flush()
        except OSError as err:
            return _stdout_failed(err)
        worst = max(worst, code)
    return worst


def _stdout_failed(err: OSError) -> int:
    """Report a failed write to stdout in one line on stderr, and return 1.

    A closed pipe or a full disk.  Python flushes stdout again at exit, so
    point it at devnull, as the signal module docs advise for EPIPE.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    sys.stderr.write(f"error: cannot write the output: {err}\n")
    return 1


class _Parser(argparse.ArgumentParser):
    """Usage mistakes are invalid input (exit 1), never an internal alarm."""

    def print_help(self, file=None):
        # argparse's own printer swallows an OSError, and the help with it.
        (sys.stdout if file is None else file).write(self.format_help())

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
    for name, (_, _, help_text) in _VERBS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("path", help="grid file (batch allowed), or - for stdin")
    mv = sub.choices["move"]
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
    rnd = sub.add_parser("random", parents=[common], help="emit a random valid grid")
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
        # Usage errors exit 1; --help exits 0 once its text is written.
        code = 0 if exc.code is None else exc.code
        if code == 0:
            try:
                sys.stdout.flush()
            except OSError as err:
                return _stdout_failed(err)
        return code if isinstance(code, int) else 1
    except OSError as err:  # --help, to a stdout that fails
        return _stdout_failed(err)
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

    payloads = [(args.verb, first_line, block, vars(args)) for first_line, block in blocks]
    if args.jobs > 1 and len(payloads) > 1:
        with Pool(processes=min(args.jobs, len(payloads), os.cpu_count() or 1)) as pool:
            return _emit(pool.imap(_process_entry, payloads), args.format)
    return _emit(map(_process_entry, payloads), args.format)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
