"""Grid moves: legality, shapes, and inverses."""

from __future__ import annotations

import random

import pytest

from gridfloer import (
    GridMove,
    MoveKind,
    apply_move,
    legal_moves,
    link_summary,
    new_grid,
    random_grid,
)
from gridfloer.errors import IllegalMove

from .helpers import HOPF4, KNOWN_GRIDS, TREFOIL5, UNKNOT2

# Columns 0,1 close up into a whole 2x2 unknot, and so do columns 2,3: each
# pair looks like a destabilization pattern, but collapsing it would put an
# O and an X in one cell.
SPLIT_UNKNOTS4 = new_grid(4, (0, 1, 2, 3), (1, 0, 3, 2))


def test_move_kind_from_string():
    assert MoveKind("stabilize") is MoveKind.STABILIZE
    assert GridMove(MoveKind.CYCLIC_ROW).position == 1


def test_unknown_kinds_and_positions_that_are_not_ints_are_illegal_moves():
    with pytest.raises(IllegalMove, match="unknown move kind 'bogus'"):
        apply_move(TREFOIL5, GridMove("bogus"))
    for kind in MoveKind:
        for position in (1.0, 0.5, "1", None, True):
            with pytest.raises(IllegalMove, match="is not an integer"):
                apply_move(TREFOIL5, GridMove(kind, position))


def test_cyclic_row_shift_wraps_rows():
    G = apply_move(TREFOIL5, GridMove(MoveKind.CYCLIC_ROW, 2))
    assert G.o_rows == tuple((r + 2) % 5 for r in TREFOIL5.o_rows)
    assert G.x_rows == tuple((r + 2) % 5 for r in TREFOIL5.x_rows)


def test_cyclic_column_shift_rotates_columns():
    G = apply_move(TREFOIL5, GridMove(MoveKind.CYCLIC_COLUMN, 1))
    assert G.o_rows == (TREFOIL5.o_rows[-1],) + TREFOIL5.o_rows[:-1]
    assert G.x_rows == (TREFOIL5.x_rows[-1],) + TREFOIL5.x_rows[:-1]


def test_cyclic_shifts_invert():
    for G in KNOWN_GRIDS:
        for kind in (MoveKind.CYCLIC_ROW, MoveKind.CYCLIC_COLUMN):
            for s in range(1, G.n):
                shifted = apply_move(G, GridMove(kind, s))
                back = apply_move(shifted, GridMove(kind, G.n - s))
                assert back == G


def test_commute_columns_swaps_adjacent_data():
    # Hopf link columns 1 and 2: spans (1,3) and (0,2) interleave, so go
    # through a grid built to commute cleanly instead.
    G = new_grid(4, (0, 2, 1, 3), (1, 3, 0, 2))
    spans = [tuple(sorted((G.o_rows[c], G.x_rows[c]))) for c in range(4)]
    assert spans[0] == (0, 1) and spans[1] == (2, 3)
    moved = apply_move(G, GridMove(MoveKind.COMMUTE_COLUMNS, 0))
    assert moved.o_rows == (2, 0, 1, 3)
    assert moved.x_rows == (3, 1, 0, 2)


def test_commute_interleaved_columns_is_illegal():
    # Trefoil columns 0 and 1 have spans (0,2) and (1,3): interleaved.
    with pytest.raises(IllegalMove):
        apply_move(TREFOIL5, GridMove(MoveKind.COMMUTE_COLUMNS, 0))


def test_commute_shared_endpoint_is_illegal():
    # Columns 0 and 1 have spans (0,1) and (1,2): they share row 1.
    G = new_grid(3, (1, 2, 0), (0, 1, 2))
    with pytest.raises(IllegalMove):
        apply_move(G, GridMove(MoveKind.COMMUTE_COLUMNS, 0))


def test_commute_rows_mirrors_columns():
    rng = random.Random(3)
    for _ in range(30):
        G = random_grid(rng.randint(3, 6), rng)
        for move in legal_moves(G):
            if move.kind is not MoveKind.COMMUTE_ROWS:
                continue
            moved = apply_move(G, move)
            r, s = move.position, (move.position + 1) % G.n
            assert moved.o_cols[r] == G.o_cols[s] and moved.o_cols[s] == G.o_cols[r]
            assert moved.x_cols[r] == G.x_cols[s] and moved.x_cols[s] == G.x_cols[r]


def test_commute_is_an_involution():
    rng = random.Random(4)
    for _ in range(30):
        G = random_grid(rng.randint(3, 6), rng)
        for move in legal_moves(G):
            if move.kind in (MoveKind.COMMUTE_COLUMNS, MoveKind.COMMUTE_ROWS):
                assert apply_move(apply_move(G, move), move) == G


def test_stabilize_grows_and_places_pattern():
    G = apply_move(UNKNOT2, GridMove(MoveKind.STABILIZE, 0))
    assert G == new_grid(3, (2, 1, 0), (1, 0, 2))
    # The split column keeps its X one row up; the new column holds O over X.
    r = UNKNOT2.x_rows[0]
    assert G.x_rows[0] == r + 1
    assert G.o_rows[1] == r + 1 and G.x_rows[1] == r


def test_stabilize_then_destabilize_is_identity():
    for G in KNOWN_GRIDS:
        for c in range(G.n):
            grown = apply_move(G, GridMove(MoveKind.STABILIZE, c))
            back = apply_move(grown, GridMove(MoveKind.DESTABILIZE, c))
            assert back == G


def test_destabilize_requires_the_pattern():
    with pytest.raises(IllegalMove):
        apply_move(UNKNOT2, GridMove(MoveKind.DESTABILIZE, 0))
    with pytest.raises(IllegalMove):
        apply_move(TREFOIL5, GridMove(MoveKind.DESTABILIZE, 1))
    for c in (0, 2):
        with pytest.raises(IllegalMove):
            apply_move(SPLIT_UNKNOTS4, GridMove(MoveKind.DESTABILIZE, c))


def test_moves_preserve_component_count():
    rng = random.Random(9)
    for _ in range(20):
        G = random_grid(rng.randint(2, 6), rng)
        count = link_summary(G).component_count
        for move in legal_moves(G):
            assert link_summary(apply_move(G, move)).component_count == count


def test_legal_moves_all_apply_cleanly():
    rng = random.Random(10)
    grids = list(KNOWN_GRIDS) + [random_grid(rng.randint(2, 6), rng) for _ in range(10)]
    for G in grids + [SPLIT_UNKNOTS4]:
        moves = legal_moves(G)
        cyclic = [m for m in moves if m.kind in (MoveKind.CYCLIC_ROW, MoveKind.CYCLIC_COLUMN)]
        assert len(cyclic) == 2 * (G.n - 1)
        stabs = [m for m in moves if m.kind is MoveKind.STABILIZE]
        assert len(stabs) == G.n
        for move in moves:
            apply_move(G, move)


def test_legal_moves_lists_destabilization_after_stabilizing():
    grown = apply_move(HOPF4, GridMove(MoveKind.STABILIZE, 2))
    kinds = [(m.kind, m.position) for m in legal_moves(grown)]
    assert (MoveKind.DESTABILIZE, 2) in kinds


def test_illegal_commutes_are_not_listed():
    rng = random.Random(12)
    for _ in range(20):
        G = random_grid(rng.randint(3, 6), rng)
        listed = {
            (m.kind, m.position)
            for m in legal_moves(G)
            if m.kind in (MoveKind.COMMUTE_COLUMNS, MoveKind.COMMUTE_ROWS)
        }
        for c in range(G.n):
            for kind in (MoveKind.COMMUTE_COLUMNS, MoveKind.COMMUTE_ROWS):
                if (kind, c) not in listed:
                    with pytest.raises(IllegalMove):
                        apply_move(G, GridMove(kind, c))
