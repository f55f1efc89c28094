"""Homology ranks, GF(2) matrix ranks, Poincare polynomials, V-peeling."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gridfloer import (
    BigradedRanks,
    PoincarePolynomial,
    block_rank,
    homology_ranks,
    link_summary,
    peel_v,
    random_grid,
    ranks_from_complex,
    rectangles,
    tilde_differential,
)
from gridfloer.errors import NotDivisible
from gridfloer.gf2 import gf2_rank
from gridfloer.homology import BoundaryBlock

from .helpers import (
    FIG8_6,
    HOPF4,
    TREFOIL5,
    UNKNOT2,
    all_grids,
    dense_rank,
    oracle_homology,
)


def test_unknot2_homology_table():
    ranks = homology_ranks(UNKNOT2)
    assert ranks.as_dict() == {(0, Fraction(0)): 1, (-1, Fraction(-1)): 1}
    assert ranks.total_rank() == 2


def test_unknot2_boundary_is_zero_because_all_rectangles_are_marked():
    # Four empty rectangles join the two generators, each sweeping one
    # marking, so every block of the collapsed complex is a zero matrix.
    count = 0
    for x, y in [((0, 1), (1, 0)), ((1, 0), (0, 1))]:
        for r in rectangles(UNKNOT2, x, y):
            count += 1
            assert r.empty
            assert r.o_total + r.x_total == 1
    assert count == 4
    tc = tilde_differential(UNKNOT2)
    assert all(block.entries == () for block in tc.blocks)


def test_trefoil_total_rank():
    assert homology_ranks(TREFOIL5).total_rank() == 48


def test_hopf_homology_sits_at_half_integer_alexander():
    ranks = homology_ranks(HOPF4)
    assert ranks.total_rank() == 16
    assert all(s.denominator == 2 for _, s, _ in ranks.entries)


def test_homology_matches_dense_oracle_exhaustively_n3():
    for G in all_grids(3):
        assert homology_ranks(G).as_dict() == oracle_homology(G)


def test_homology_matches_dense_oracle_sampled():
    rng = random.Random(41)
    grids = [random_grid(4, rng) for _ in range(40)]
    grids += [random_grid(5, rng) for _ in range(10)]
    for G in grids:
        assert homology_ranks(G).as_dict() == oracle_homology(G)


def test_explicit_complex_agrees_with_streaming_ranks():
    rng = random.Random(42)
    grids = [TREFOIL5, HOPF4] + [random_grid(rng.randint(2, 5), rng) for _ in range(10)]
    for G in grids:
        tc = tilde_differential(G)
        assert ranks_from_complex(tc).as_dict() == homology_ranks(G).as_dict()


def test_complex_bases_cover_all_generators():
    tc = tilde_differential(TREFOIL5)
    assert sum(len(b) for b in tc.bases.values()) == 120
    for (m, s), basis in tc.bases.items():
        assert list(basis) == sorted(basis)
        assert all(isinstance(x, tuple) for x in basis)
    for block in tc.blocks:
        assert len(tc.bases.get((block.maslov, block.alexander), ())) == block.n_cols
        assert len(tc.bases.get((block.maslov - 1, block.alexander), ())) == block.n_rows
        for i, j in block.entries:
            assert 0 <= i < block.n_rows and 0 <= j < block.n_cols


def test_block_rank_small_matrices():
    full = BoundaryBlock(0, Fraction(0), 2, 2, ((0, 0), (1, 1)))
    assert block_rank(full) == 2
    repeated = BoundaryBlock(0, Fraction(0), 2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))
    assert block_rank(repeated) == 1
    empty = BoundaryBlock(0, Fraction(0), 0, 3, ())
    assert block_rank(empty) == 0


def test_gf2_rank_matches_dense_elimination():
    rng = random.Random(43)
    for _ in range(50):
        rows = rng.randint(0, 8)
        cols = rng.randint(1, 8)
        dense = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        packed = [sum(bit << c for c, bit in enumerate(row)) for row in dense]
        assert gf2_rank(packed) == dense_rank(dense)
    assert gf2_rank([]) == 0
    assert gf2_rank([0, 0]) == 0
    assert gf2_rank([1, 2, 4]) == 3
    assert gf2_rank([3, 3, 1]) == 2


def test_rank_symmetry_of_peeled_knot_homology():
    # rank(m, s) == rank(m - 2s, -s) holds after the V factors (which are
    # not symmetric under this map) are divided out.
    for G in (TREFOIL5, FIG8_6):
        count = G.n - 1
        ranks = peel_v(homology_ranks(G).to_poincare(), count).to_ranks()
        for m, s, r in ranks.entries:
            assert ranks.rank(m - 2 * int(s), -s) == r


def test_bigraded_ranks_helpers():
    ranks = BigradedRanks.from_dict({(0, 0): 2, (1, "1/2"): 1, (2, 1): 0})
    assert ranks.rank(0, 0) == 2
    assert ranks.rank(2, 1) == 0
    assert ranks.total_rank() == 3
    assert ranks.alexander_support() == (Fraction(0), Fraction(1, 2))
    assert ranks.max_alexander() == Fraction(1, 2)
    assert ranks.rank_at_alexander("1/2") == 1
    assert ranks.to_poincare().to_ranks().as_dict() == ranks.as_dict()
    with pytest.raises(ValueError):
        BigradedRanks.from_dict({(0, 0): -1})
    with pytest.raises(ValueError):
        BigradedRanks.from_dict({(0, "1/3"): 1})


def test_poincare_algebra_and_rendering():
    one = PoincarePolynomial.one()
    v = PoincarePolynomial.v_factor()
    assert str(v) == "t^-1*q^-1 + 1"
    square = v * v
    assert square.as_dict() == {
        (0, Fraction(0)): 1,
        (-1, Fraction(-1)): 2,
        (-2, Fraction(-2)): 1,
    }
    assert (one * v).as_dict() == v.as_dict()
    assert square.total() == 4
    assert square.coefficient(-1, -1) == 2
    with pytest.raises(ValueError):
        PoincarePolynomial.from_dict({(0, 0): -2})


def test_peel_v_inverts_v_multiplication():
    v = PoincarePolynomial.v_factor()
    square = v * v
    assert peel_v(square, 2).as_dict() == PoincarePolynomial.one().as_dict()
    assert peel_v(square, 0).as_dict() == square.as_dict()


def test_peel_v_round_trips_on_real_homology():
    rng = random.Random(44)
    v = PoincarePolynomial.v_factor()
    grids = [UNKNOT2, TREFOIL5, FIG8_6, HOPF4]
    grids += [random_grid(rng.randint(2, 6), rng) for _ in range(8)]
    for G in grids:
        poly = homology_ranks(G).to_poincare()
        count = G.n - link_summary(G).component_count
        peeled = peel_v(poly, count)
        back = peeled
        for _ in range(count):
            back = back * v
        assert back.as_dict() == poly.as_dict()


def test_peel_v_rejects_non_multiples():
    lone = PoincarePolynomial.from_dict({(0, 0): 1})
    with pytest.raises(NotDivisible):
        peel_v(lone, 1)
    lopsided = PoincarePolynomial.from_dict({(0, 0): 2, (-1, -1): 1})
    with pytest.raises(NotDivisible):
        peel_v(lopsided, 1)


def test_trefoil_peeled_homology():
    poly = peel_v(homology_ranks(TREFOIL5).to_poincare(), 4)
    assert poly.as_dict() == {
        (0, Fraction(-1)): 1,
        (1, Fraction(0)): 1,
        (2, Fraction(1)): 1,
    }
