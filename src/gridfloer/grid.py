"""Grid diagrams: data model, link tracing, text format, random generation.

A grid diagram of size n is an n-by-n array of cells on a torus with one O
and one X marking in every row and every column, no two in the same cell.
Columns are indexed 0..n-1 left to right, rows 0..n-1 bottom to top, and all
coordinate arithmetic wraps mod n.  The encoded link is recovered by joining
O to X in every vertical line and X to O in every horizontal line, vertical
segments crossing over horizontal ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import GridSyntaxError, NotAPermutation, SharedCell, TooSmall

__all__ = [
    "GridDiagram",
    "LinkSummary",
    "new_grid",
    "link_summary",
    "serialize_grid",
    "parse_grid",
    "parse_grids",
    "random_grid",
]


def _check_size(n: int) -> None:
    if type(n) is not int:
        raise TooSmall(f"grid size must be an integer, got {n!r}")
    if n < 2:
        raise TooSmall(f"grid size must be at least 2, got {n}")


def _check_permutation(name: str, rows: Sequence[int], n: int) -> None:
    seen = [False] * n
    for c, r in enumerate(rows):
        if type(r) is not int:  # a bool or a float is no row, though it compares like one
            raise NotAPermutation(f"{name}[{c}] = {r!r} is not an integer")
        if not 0 <= r < n:
            raise NotAPermutation(f"{name}[{c}] = {r} is outside 0..{n - 1}")
        if seen[r]:
            raise NotAPermutation(f"{name} uses row {r} twice")
        seen[r] = True


@dataclass(frozen=True)
class GridDiagram:
    """An n-by-n toroidal grid diagram.

    ``o_rows[c]`` and ``x_rows[c]`` give the row of the O and X marking in
    column ``c``; each is a permutation of 0..n-1 and they disagree in every
    column.  Markings sit at the centers (c + 1/2, r + 1/2) of their cells;
    the integer lattice points are where generators of the chain complex
    live.  Instances are immutable and validated on construction.
    """

    n: int
    o_rows: tuple[int, ...]
    x_rows: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "o_rows", tuple(self.o_rows))
        object.__setattr__(self, "x_rows", tuple(self.x_rows))
        _check_size(self.n)
        if len(self.o_rows) != self.n:
            raise NotAPermutation(f"O has {len(self.o_rows)} entries, expected n = {self.n}")
        if len(self.x_rows) != self.n:
            raise NotAPermutation(f"X has {len(self.x_rows)} entries, expected n = {self.n}")
        _check_permutation("O", self.o_rows, self.n)
        _check_permutation("X", self.x_rows, self.n)
        for c in range(self.n):
            if self.o_rows[c] == self.x_rows[c]:
                raise SharedCell(f"column {c}: O and X share the cell in row {self.o_rows[c]}")

    @cached_property
    def o_cols(self) -> tuple[int, ...]:
        """Inverse view: ``o_cols[r]`` is the column of the O marking in row r."""
        inv = [0] * self.n
        for c, r in enumerate(self.o_rows):
            inv[r] = c
        return tuple(inv)

    @cached_property
    def x_cols(self) -> tuple[int, ...]:
        """Inverse view: ``x_cols[r]`` is the column of the X marking in row r."""
        inv = [0] * self.n
        for c, r in enumerate(self.x_rows):
            inv[r] = c
        return tuple(inv)


def new_grid(n: int, o_rows: Sequence[int], x_rows: Sequence[int]) -> GridDiagram:
    """Build and validate a grid diagram."""
    return GridDiagram(n, tuple(o_rows), tuple(x_rows))


@dataclass(frozen=True)
class LinkSummary:
    """Combinatorial facts about the link a grid encodes.

    ``component_of_column[c]`` is the index (in discovery order from the
    lowest-numbered column) of the link component whose vertical segment sits
    in column c.
    """

    component_count: int
    crossing_count: int
    component_of_column: tuple[int, ...]


def successor_permutation(G: GridDiagram) -> tuple[int, ...]:
    """Map each column to the next column reached by tracing the link.

    From the vertical segment in column c, travel O up/down to X, then along
    the horizontal segment of that row to the O in some column c'; the cycles
    of this permutation are the link components.
    """
    return tuple(G.x_cols[G.o_rows[c]] for c in range(G.n))


def link_summary(G: GridDiagram) -> LinkSummary:
    succ = successor_permutation(G)
    comp = [-1] * G.n
    count = 0
    for start in range(G.n):
        if comp[start] != -1:
            continue
        c = start
        while comp[c] == -1:
            comp[c] = count
            c = succ[c]
        count += 1
    # A crossing is a vertical segment passing a horizontal one strictly
    # inside both spans; grid convention puts the vertical strand on top.
    crossings = 0
    for c in range(G.n):
        lo_v, hi_v = sorted((G.o_rows[c], G.x_rows[c]))
        for r in range(lo_v + 1, hi_v):
            lo_h, hi_h = sorted((G.o_cols[r], G.x_cols[r]))
            if lo_h < c < hi_h:
                crossings += 1
    return LinkSummary(count, crossings, tuple(comp))


def serialize_grid(G: GridDiagram) -> str:
    """Render a grid in the line-based wire format (round-trips with parse_grid)."""
    return "n={}\nO={}\nX={}\n".format(
        G.n,
        ",".join(map(str, G.o_rows)),
        ",".join(map(str, G.x_rows)),
    )


def _parse_int(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise GridSyntaxError(f"{what}: {token!r} is not an integer", line) from None


def _parse_block(block: list[tuple[int, str]]) -> GridDiagram:
    if len(block) != 3:
        raise GridSyntaxError(
            f"a grid needs exactly the three lines n=, O=, X= (got {len(block)})",
            block[0][0],
        )
    values: dict[str, object] = {}
    for (line, text), expected in zip(block, ("n", "O", "X")):
        key, eq, rest = text.partition("=")
        key = key.strip()
        if not eq or key != expected:
            raise GridSyntaxError(f"expected '{expected}=...', got {text!r}", line)
        if expected == "n":
            values["n"] = _parse_int(rest.strip(), line, "n")
        else:
            toks = [t.strip() for t in rest.split(",")]
            if toks == [""]:
                raise GridSyntaxError(f"{expected}= needs a comma-separated list", line)
            values[expected] = tuple(_parse_int(t, line, expected) for t in toks)
    return GridDiagram(values["n"], values["O"], values["X"])  # type: ignore[arg-type]


def _numbered_blocks(lines: list[str], first_line: int) -> list[list[tuple[int, str]]]:
    """The blank-line-separated blocks of lines, as (line number, stripped line) lists.

    Comment lines are left out.  Raises GridSyntaxError when there is no block.
    """
    blocks: list[list[tuple[int, str]]] = []
    current: list[tuple[int, str]] = []
    last_line = first_line
    for i, raw in enumerate(lines, start=first_line):
        last_line = i
        stripped = raw.strip()
        if stripped.startswith("#"):
            continue
        if not stripped:
            if current:
                blocks.append(current)
                current = []
            continue
        current.append((i, stripped))
    if current:
        blocks.append(current)
    if not blocks:
        raise GridSyntaxError("no grid found", last_line)
    return blocks


def _split_grids(text: str) -> list[tuple[int, str]]:
    """The grids of a batch, unparsed: (number of its first line, its text) per grid.

    ``parse_grids(block, first_line)`` parses one of them, with errors that
    give line numbers in the whole batch.  Raises GridSyntaxError when text
    holds no grid.
    """
    lines = text.splitlines()
    return [
        (block[0][0], "\n".join(lines[block[0][0] - 1 : block[-1][0]]))
        for block in _numbered_blocks(lines, 1)
    ]


def parse_grids(text: str, first_line: int = 1) -> list[GridDiagram]:
    """Parse one or more grids.

    Format, per grid::

        n=5
        O=1,2,3,4,0
        X=4,0,1,2,3

    Lines starting with ``#`` are comments; whitespace around tokens is
    ignored; blank lines separate grids in a batch.  Errors name the line,
    counting text's first line as ``first_line``.
    """
    return [_parse_block(b) for b in _numbered_blocks(text.splitlines(), first_line)]


def parse_grid(text: str) -> GridDiagram:
    """Parse exactly one grid."""
    grids = parse_grids(text)
    if len(grids) != 1:
        raise GridSyntaxError(f"expected a single grid, found {len(grids)}", 1)
    return grids[0]


def random_grid(n: int, rng: random.Random) -> GridDiagram:
    """A uniformly random valid grid diagram of size n (any number of components)."""
    _check_size(n)
    o = rng.sample(range(n), n)
    while True:
        x = rng.sample(range(n), n)
        if all(x[c] != o[c] for c in range(n)):
            return GridDiagram(n, tuple(o), tuple(x))
