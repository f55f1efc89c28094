"""Winding-number determinant route to the Alexander polynomial."""

from __future__ import annotations

import ast
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfloer import (
    GridMove,
    MoveKind,
    alexander_polynomial,
    alexander_via_determinant,
    apply_move,
    legal_moves,
    link_summary,
    new_grid,
    parse_grids,
    winding,
    winding_matrix,
)
from gridfloer.errors import NotAKnot

from .helpers import (
    FIG8_6,
    HOPF4,
    KNOWN_KNOTS,
    TORUS25_7,
    TREFOIL5,
    TWIST7,
    UNKNOT2,
    UNKNOT4,
    oracle_determinant,
    oracle_torus_alexander,
    oracle_winding_determinant,
    random_knot_grid,
    torus_grid,
)

CORPUS = Path(__file__).resolve().parent.parent / "grids" / "corpus.grids"


def test_winding_vanishes_on_the_left_edge():
    # Column 0 sits left of every vertical strand.
    for G in KNOWN_KNOTS:
        w = winding_matrix(G)
        assert all(w[0][r] == 0 for r in range(G.n))


def test_winding_steps_by_one_across_strands():
    # Crossing one column boundary changes the winding number by the signed
    # count of that column's vertical strand, which is 0 or +-1.
    for G in KNOWN_KNOTS + (HOPF4,):
        w = winding_matrix(G)
        for c in range(1, G.n):
            for r in range(G.n):
                assert abs(w[c][r] - w[c - 1][r]) <= 1


def test_determinant_alexander_on_known_knots():
    expected = {
        UNKNOT2: {0: 1},
        UNKNOT4: {0: 1},
        TREFOIL5: {1: 1, 0: -1, -1: 1},
        FIG8_6: {1: -1, 0: 3, -1: -1},
        TORUS25_7: {2: 1, 1: -1, 0: 1, -1: -1, -2: 1},
        TWIST7: {1: 2, 0: -3, -1: 2},
    }
    for G, want in expected.items():
        assert alexander_via_determinant(G) == want


def test_determinant_rejects_links():
    with pytest.raises(NotAKnot):
        alexander_via_determinant(HOPF4)


def test_determinant_route_matches_homology_route():
    rng = random.Random(51)
    grids = list(KNOWN_KNOTS) + [random_knot_grid(rng.randint(3, 6), rng) for _ in range(12)]
    for G in grids:
        assert alexander_via_determinant(G) == alexander_polynomial(G)


def test_determinant_value_at_one_is_one():
    # The normalization fixes the sign so the polynomial evaluates to 1.
    rng = random.Random(52)
    for _ in range(10):
        G = random_knot_grid(rng.randint(2, 6), rng)
        poly = alexander_via_determinant(G)
        assert sum(poly.values()) == 1


def test_elimination_matches_the_permutation_expansion(monkeypatch):
    # The raw determinant, before division by (1 - q)^(n-1), on every knot
    # of the corpus and seeded random knots with n = 3..8.
    corpus = [G for G in parse_grids(CORPUS.read_text(encoding="utf-8"))
              if link_summary(G).component_count == 1]
    rng = random.Random(53)
    grids = list(KNOWN_KNOTS) + corpus
    grids += [random_knot_grid(n, rng) for n in range(3, 9) for _ in range(4 if n < 8 else 2)]
    orders = []
    original = winding._parity

    def parity(order):
        orders.append(order)
        return original(order)

    monkeypatch.setattr(winding, "_parity", parity)
    for G in grids:
        assert winding.winding_determinant(G) == oracle_winding_determinant(G)
    # One sign per determinant, read off the final row order.  Some grids
    # need a row swap for a zero pivot and some none, so both branches ran.
    assert len(orders) == len(grids)
    swapped = sum(1 for order in orders if order != tuple(range(len(order))))
    assert 0 < swapped < len(grids)


def test_determinant_of_a_link_may_vanish():
    # Split links have determinant 0: elimination finds no pivot at all.
    split = new_grid(4, (1, 0, 3, 2), (0, 1, 2, 3))
    assert oracle_determinant(winding_matrix(split)) == {}
    assert winding.winding_determinant(split) == {}


def test_determinant_equals_the_torus_closed_form_up_to_n_24():
    # Stabilizing keeps the knot type, so every size gives the same
    # polynomial; the permutation expansion could not reach these sizes.
    rng = random.Random(54)
    start = time.perf_counter()
    for (p, q), size in (((2, 3), 24), ((2, 5), 20), ((2, 7), 16), ((3, 4), 12), ((3, 5), 18)):
        G = torus_grid(p, q)
        while G.n < size:
            G = apply_move(G, GridMove(MoveKind.STABILIZE, rng.randrange(G.n)))
        assert alexander_via_determinant(G) == oracle_torus_alexander(p, q)
    assert time.perf_counter() - start < 2.0


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32),
    picks=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=8),
)
def test_determinant_is_invariant_under_random_moves(n, seed, picks):
    G = random_knot_grid(n, random.Random(seed))
    want = alexander_via_determinant(G)
    for pick in picks:
        moves = [m for m in legal_moves(G) if G.n < 14 or m.kind is not MoveKind.STABILIZE]
        G = apply_move(G, moves[pick % len(moves)])
        assert G.n <= 14
        assert link_summary(G).component_count == 1
        assert alexander_via_determinant(G) == want


def test_determinant_route_shares_no_code_with_the_homology_route():
    tree = ast.parse(Path(winding.__file__).read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    assert imported <= {"__future__", "math", "errors", "grid", "laurent"}
