"""Elementary grid moves: torus translations, commutations, (de)stabilization.

Two grids encode the same link exactly when they are connected by a sequence
of these moves, so every link invariant computed downstream must be unchanged
by each of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import IllegalMove
from .grid import GridDiagram

__all__ = ["MoveKind", "GridMove", "apply_move", "legal_moves"]


class MoveKind(str, Enum):
    CYCLIC_ROW = "cyclic_row"
    CYCLIC_COLUMN = "cyclic_column"
    COMMUTE_COLUMNS = "commute_columns"
    COMMUTE_ROWS = "commute_rows"
    STABILIZE = "stabilize"
    DESTABILIZE = "destabilize"


@dataclass(frozen=True)
class GridMove:
    """One move, identified by kind and a single integer parameter.

    ``position`` is the shift count for the cyclic kinds, the left column /
    bottom row of the adjacent pair for commutations, and the column whose X
    is split (respectively: the left column of the pattern to collapse) for
    stabilize / destabilize.
    """

    kind: MoveKind
    position: int = 1


def _check_index(G: GridDiagram, i: int, what: str) -> None:
    if not 0 <= i < G.n:
        raise IllegalMove(f"{what} {i} out of range 0..{G.n - 1}")


def _cyclic_row(G: GridDiagram, steps: int) -> GridDiagram:
    n = G.n
    return GridDiagram(
        n,
        tuple((r + steps) % n for r in G.o_rows),
        tuple((r + steps) % n for r in G.x_rows),
    )


def _cyclic_column(G: GridDiagram, steps: int) -> GridDiagram:
    n = G.n
    return GridDiagram(
        n,
        tuple(G.o_rows[(c - steps) % n] for c in range(n)),
        tuple(G.x_rows[(c - steps) % n] for c in range(n)),
    )


def _spans_commute(a: tuple[int, int], b: tuple[int, int]) -> bool:
    # Legal iff the two marking spans are disjoint or strictly nested;
    # sharing an endpoint or interleaving changes the link.
    (a1, a2), (b1, b2) = a, b
    if a2 < b1 or b2 < a1:
        return True
    if a1 < b1 and b2 < a2:
        return True
    if b1 < a1 and a2 < b2:
        return True
    return False


def _commute_columns(G: GridDiagram, c: int) -> GridDiagram:
    _check_index(G, c, "column")
    d = (c + 1) % G.n
    span_c = tuple(sorted((G.o_rows[c], G.x_rows[c])))
    span_d = tuple(sorted((G.o_rows[d], G.x_rows[d])))
    if not _spans_commute(span_c, span_d):
        raise IllegalMove(f"columns {c} and {d} interleave or share an endpoint")
    o = list(G.o_rows)
    x = list(G.x_rows)
    o[c], o[d] = o[d], o[c]
    x[c], x[d] = x[d], x[c]
    return GridDiagram(G.n, tuple(o), tuple(x))


def _commute_rows(G: GridDiagram, r: int) -> GridDiagram:
    _check_index(G, r, "row")
    s = (r + 1) % G.n
    span_r = tuple(sorted((G.o_cols[r], G.x_cols[r])))
    span_s = tuple(sorted((G.o_cols[s], G.x_cols[s])))
    if not _spans_commute(span_r, span_s):
        raise IllegalMove(f"rows {r} and {s} interleave or share an endpoint")

    def swap(v: int) -> int:
        if v == r:
            return s
        if v == s:
            return r
        return v

    return GridDiagram(
        G.n,
        tuple(swap(v) for v in G.o_rows),
        tuple(swap(v) for v in G.x_rows),
    )


def _stabilize(G: GridDiagram, c: int) -> GridDiagram:
    """Split the X in column c into an L-shaped pair, growing the grid by one.

    The new column is inserted to the right of c and the new row just above
    the split X, giving the pattern X(c, r+1), O(c+1, r+1), X(c+1, r) in the
    enlarged grid.
    """
    _check_index(G, c, "column")
    n, r = G.n, G.x_rows[c]

    def up(v: int) -> int:
        return v + 1 if v > r else v

    o = [up(v) for v in G.o_rows]
    x = [up(v) for v in G.x_rows]
    x[c] = r + 1
    o.insert(c + 1, r + 1)
    x.insert(c + 1, r)
    return GridDiagram(n + 1, tuple(o), tuple(x))


def _destabilize(G: GridDiagram, c: int) -> GridDiagram:
    """Collapse the stabilization pattern whose left column is c (inverse of stabilize)."""
    if G.n <= 2:
        raise IllegalMove("destabilization needs grid size at least 3")
    if not 0 <= c < G.n - 1:
        raise IllegalMove(f"pattern column {c} out of range 0..{G.n - 2}")
    d = c + 1
    r = G.x_rows[d]
    if G.x_rows[c] != r + 1 or G.o_rows[d] != r + 1:
        raise IllegalMove(f"no destabilization pattern at columns {c},{d}")
    if G.o_rows[c] == r:
        # Collapsing would leave column c's O and X in one cell.
        raise IllegalMove(f"columns {c},{d} hold a whole 2x2 unknot component")

    def down(v: int) -> int:
        return v - 1 if v > r + 1 else v

    o = [down(G.o_rows[col]) for col in range(G.n) if col != d]
    x = [down(G.x_rows[col]) for col in range(G.n) if col != d]
    x[c] = r
    return GridDiagram(G.n - 1, tuple(o), tuple(x))


_APPLY = {
    MoveKind.CYCLIC_ROW: _cyclic_row,
    MoveKind.CYCLIC_COLUMN: _cyclic_column,
    MoveKind.COMMUTE_COLUMNS: _commute_columns,
    MoveKind.COMMUTE_ROWS: _commute_rows,
    MoveKind.STABILIZE: _stabilize,
    MoveKind.DESTABILIZE: _destabilize,
}


def apply_move(G: GridDiagram, move: GridMove) -> GridDiagram:
    """Apply one move, returning a new grid; raises IllegalMove when not permitted."""
    try:
        apply = _APPLY[MoveKind(move.kind)]
    except ValueError:
        raise IllegalMove(f"unknown move kind {move.kind!r}") from None
    if type(move.position) is not int:
        raise IllegalMove(f"position {move.position!r} is not an integer")
    return apply(G, move.position)


def legal_moves(G: GridDiagram) -> tuple[GridMove, ...]:
    """Every move applicable to G, in a fixed deterministic order.

    Each candidate is tried with ``apply_move`` and kept unless it raises
    IllegalMove, so the listing never disagrees with the moves themselves.
    """
    n = G.n
    candidates = [
        *(GridMove(MoveKind.CYCLIC_ROW, s) for s in range(1, n)),
        *(GridMove(MoveKind.CYCLIC_COLUMN, s) for s in range(1, n)),
        *(GridMove(MoveKind.COMMUTE_COLUMNS, c) for c in range(n)),
        *(GridMove(MoveKind.COMMUTE_ROWS, r) for r in range(n)),
        *(GridMove(MoveKind.STABILIZE, c) for c in range(n)),
        *(GridMove(MoveKind.DESTABILIZE, c) for c in range(n - 1)),
    ]
    out = []
    for move in candidates:
        try:
            apply_move(G, move)
        except IllegalMove:
            continue
        out.append(move)
    return tuple(out)
