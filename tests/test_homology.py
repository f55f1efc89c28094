"""Homology ranks, GF(2) matrix ranks, rank polynomials, V-peeling."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfloer import (
    BigradedRanks,
    GridMove,
    MoveKind,
    apply_move,
    hfk_hat,
    homology_ranks,
    is_unknot,
    link_summary,
    parse_grids,
    peel_v,
    random_grid,
    rectangles,
    tilde_targets,
    top_alexander_level,
)
from gridfloer import chain, homology
from gridfloer.errors import NotDivisible
from gridfloer.gf2 import gf2_rank

from .helpers import (
    DEEP6,
    FIG8_6,
    HOPF4,
    KNOWN_GRIDS,
    LINK3_7,
    LINK4_8,
    N7_KNOTS,
    TREFOIL5,
    UNKNOT2,
    UNKNOT12,
    all_grids,
    d_squared_suite,
    dense_rank,
    oracle_homology,
)

GRIDS_DIR = Path(__file__).resolve().parent.parent / "grids"


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
    assert tilde_targets(UNKNOT2, (0, 1)) == []
    assert tilde_targets(UNKNOT2, (1, 0)) == []


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


def test_complex_bases_cover_all_generators():
    # The yield contract homology relies on: every generator once, as a
    # tuple, levels in increasing 2A, each Maslov bucket in lexicographic order.
    perms = []
    two_as = []
    for two_a, levels in chain.iter_alexander_levels(TREFOIL5):
        two_as.append(two_a)
        for basis in levels.values():
            assert all(type(x) is tuple for x in basis)
            assert basis == sorted(basis)
            perms.extend(basis)
    assert len(perms) == 120
    assert set(perms) == set(itertools.permutations(range(TREFOIL5.n)))
    assert all(a < b for a, b in zip(two_as, two_as[1:]))


def test_top_alexander_level_is_the_top_of_the_full_table():
    # Links too: the Hopf link's top level sits at a half-integer.
    rng = random.Random(44)
    grids = list(KNOWN_GRIDS) + list(all_grids(3)) + [random_grid(5, rng) for _ in range(10)]
    for G in grids:
        ranks = homology_ranks(G)
        top = ranks.max_alexander()
        want = {m: r for m, s, r in ranks.entries if s == top}
        assert top_alexander_level(G) == (top, want), G


def test_knot_hfk_ranks_match_the_full_walk():
    # hfk_hat ranks only the levels with 2A >= 1 - l and mirrors them;
    # homology_ranks ranks every level and peel_v divides the V factors out.
    small, big = d_squared_suite()
    corpus = parse_grids((GRIDS_DIR / "corpus.grids").read_text(encoding="utf-8"))
    grids = small + big + tuple(corpus) + (DEEP6,)
    components = Counter(link_summary(G).component_count for G in grids)
    assert components[1] > 100 and components[2] > 100 and components[3] > 0
    v = BigradedRanks.v_factor()
    for G in grids:
        count = G.n - link_summary(G).component_count
        full = homology_ranks(G)
        hat = hfk_hat(G)
        assert hat == peel_v(full, count), G
        collapsed = hat
        for _ in range(count):
            collapsed = collapsed * v
        assert collapsed == full, G


def test_knot_hfk_ranks_reject_a_table_that_does_not_peel(monkeypatch):
    # Rank 2 at (m, s) = (2, 1) owes C(4, 1) * 2 = 8 at (1, 0), which holds 1.
    fake = {2: {2: 2}, 0: {1: 1}}
    monkeypatch.setattr(
        homology, "_level_ranks", lambda table, two_a, levels: fake.get(two_a, {})
    )
    with pytest.raises(NotDivisible):
        hfk_hat(TREFOIL5)


def _scan_log(monkeypatch) -> tuple[Counter, list]:
    """(scans per generator, sweep tables built) by the homology walks, as they run.

    Every table a walk builds must be collapsed: the walks rank the complex
    with every U_c set to 0, which counts only marking-free rectangles.
    """
    scans: Counter = Counter()
    tables: list = []
    scan = homology._tilde_target_codes

    class CountedTable(chain._SweepTable):
        __slots__ = ()

        def __init__(self, G, collapsed=False):
            super().__init__(G, collapsed)
            assert collapsed, "a homology walk built an X-only sweep table"
            tables.append(self)

    def counted_scan(perm, table):
        assert table is tables[-1]
        scans[perm] += 1
        return scan(perm, table)

    monkeypatch.setattr(homology, "_SweepTable", CountedTable)
    monkeypatch.setattr(homology, "_tilde_target_codes", counted_scan)
    return scans, tables


def _generators_at_or_above(G, floor: int) -> set:
    return {
        x
        for _, levels in chain.iter_alexander_levels(G, floor)
        for gens in levels.values()
        for x in gens
    }


def test_each_walk_builds_one_sweep_table_and_scans_each_generator_once(monkeypatch):
    scans, tables = _scan_log(monkeypatch)
    homology_ranks(TREFOIL5)
    assert len(tables) == 1
    assert sum(scans.values()) == len(scans) == 120
    for G in N7_KNOTS + (HOPF4, LINK4_8):
        scans.clear()
        tables.clear()
        hfk_hat(G)
        assert len(tables) == 1, G
        floor = 1 - link_summary(G).component_count
        assert set(scans) == _generators_at_or_above(G, floor), G
        assert set(scans.values()) == {1}, G
        assert len(scans) < factorial(G.n), G

        scans.clear()
        tables.clear()
        s, _ = top_alexander_level(G)
        assert len(tables) == 1, G
        assert set(scans) == _generators_at_or_above(G, int(2 * s)), G
        assert set(scans.values()) == {1}, G


def _enumeration_log(monkeypatch) -> list[int]:
    """Generators yielded per ``iter_alexander_levels`` call of the homology walks."""
    calls: list[int] = []
    enumerate_levels = homology.iter_alexander_levels

    def counted(*args, **kwargs):
        calls.append(0)
        for two_a, levels in enumerate_levels(*args, **kwargs):
            calls[-1] += sum(map(len, levels.values()))
            yield two_a, levels

    monkeypatch.setattr(homology, "iter_alexander_levels", counted)
    return calls


def test_top_level_walk_does_the_same_work_under_every_torus_translation(monkeypatch):
    # A torus translation relabels the complex and keeps every level's size,
    # and the walk starts at the exact top, so its rounds cannot depend on
    # where the grid was cut.
    calls = _enumeration_log(monkeypatch)
    for G in N7_KNOTS:
        work = set()
        for rows, cols in itertools.product(range(G.n), repeat=2):
            moved = apply_move(G, GridMove(MoveKind.CYCLIC_ROW, rows))
            moved = apply_move(moved, GridMove(MoveKind.CYCLIC_COLUMN, cols))
            calls.clear()
            top_alexander_level(moved)
            work.add(tuple(calls))
        assert len(work) == 1, (G, work)


def test_each_walk_solves_the_assignment_once(monkeypatch):
    # The assignment is solved in the grid's grading-table memo, on weights
    # it fills once, so both walks of a grid share one solve.
    solves = []
    fill = chain._point_weights

    def counted(G):
        solves.append(G)
        return fill(G)

    monkeypatch.setattr(chain, "_point_weights", counted)
    chain._grading_tables.cache_clear()
    try:
        for G in N7_KNOTS + (DEEP6, HOPF4, LINK4_8):
            solves.clear()
            for walk in (top_alexander_level, hfk_hat):
                walk(G)
            assert solves == [G], G
    finally:
        chain._grading_tables.cache_clear()


def test_n12_unknot_walk_starts_at_the_exact_top():
    # The column maxima of the 2A weights bound this grid's 2A by 12; a
    # walk started there enumerates five empty rounds (floors 12 to 4) first.
    assert chain._grading_tables(UNKNOT12)[3] == 2
    [(two_a, levels)] = chain.iter_alexander_levels(UNKNOT12, 2)
    assert two_a == 2 and sum(map(len, levels.values())) == 1952
    assert is_unknot(UNKNOT12)


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


def test_gf2_rank_matches_dense_elimination_on_wide_sparse_rows():
    # Boundary rows span many machine words and hold a few bits each.
    rng = random.Random(44)
    for _ in range(12):
        cols = rng.randint(70, 300)
        packed = []
        for _ in range(rng.randint(30, 100)):
            packed.append(sum(1 << c for c in rng.sample(range(cols), rng.randint(1, 4))))
        # Duplicates, sums of two earlier rows and zero rows are all dependent.
        packed += rng.sample(packed, 5)
        packed += [rng.choice(packed) ^ rng.choice(packed) for _ in range(10)]
        packed += [0] * rng.randint(1, 5)
        rng.shuffle(packed)
        assert 40 <= len(packed) <= 120
        dense = [[row >> c & 1 for c in range(cols)] for row in packed]
        assert gf2_rank(packed) == dense_rank(dense), (cols, packed)


def test_rank_symmetry_of_peeled_knot_homology():
    # For an l-component link, rank(m, s) == rank(m - 2s - (l - 1), -s - (l - 1))
    # holds after the V factors (which are not symmetric under this map) are
    # divided out; for a knot that is rank(m, s) == rank(m - 2s, -s).
    grids = (TREFOIL5, FIG8_6, HOPF4, LINK3_7, LINK4_8)
    assert [link_summary(G).component_count for G in grids] == [1, 1, 2, 3, 4]
    for G in grids:
        shift = link_summary(G).component_count - 1
        count = G.n - 1 - shift
        ranks = peel_v(homology_ranks(G), count)
        assert len(ranks.alexander_support()) > 1, G
        for m, s, r in ranks.entries:
            assert ranks.rank(m - int(2 * s) - shift, -s - shift) == r, G


def test_bigraded_ranks_helpers():
    ranks = BigradedRanks.from_dict({(0, 0): 2, (1, "1/2"): 1, (2, 1): 0})
    assert ranks.rank(0, 0) == 2
    assert ranks.rank(2, 1) == 0
    assert ranks.total_rank() == 3
    assert ranks.alexander_support() == (Fraction(0), Fraction(1, 2))
    assert ranks.max_alexander() == Fraction(1, 2)
    assert ranks.rank_at_alexander("1/2") == 1
    with pytest.raises(ValueError):
        BigradedRanks.from_dict({(0, 0): -1})
    with pytest.raises(ValueError):
        BigradedRanks.from_dict({(0, "1/3"): 1})


def test_poincare_algebra_and_rendering():
    one = BigradedRanks.from_dict({(0, 0): 1})
    v = BigradedRanks.v_factor()
    assert str(v) == "t^-1*q^-1 + 1"
    square = v * v
    assert square.as_dict() == {
        (0, Fraction(0)): 1,
        (-1, Fraction(-1)): 2,
        (-2, Fraction(-2)): 1,
    }
    assert (one * v).as_dict() == v.as_dict()
    assert square.total_rank() == 4
    assert square.rank(-1, -1) == 2
    with pytest.raises(ValueError):
        BigradedRanks.from_dict({(0, 0): -2})


def test_peel_v_inverts_v_multiplication():
    v = BigradedRanks.v_factor()
    square = v * v
    assert peel_v(square, 2).as_dict() == {(0, Fraction(0)): 1}
    assert peel_v(square, 0).as_dict() == square.as_dict()


def test_peel_v_refuses_a_count_that_is_not_a_nonnegative_int():
    square = BigradedRanks.v_factor() * BigradedRanks.v_factor()
    for count in (1.5, 2.0, True, "2", None):
        with pytest.raises(ValueError, match="must be an int"):
            peel_v(square, count)
    with pytest.raises(ValueError, match=">= 0"):
        peel_v(square, -1)


def test_peel_v_round_trips_on_real_homology():
    rng = random.Random(44)
    v = BigradedRanks.v_factor()
    grids = [UNKNOT2, TREFOIL5, FIG8_6, HOPF4]
    grids += [random_grid(rng.randint(2, 6), rng) for _ in range(8)]
    for G in grids:
        poly = homology_ranks(G)
        count = G.n - link_summary(G).component_count
        peeled = peel_v(poly, count)
        back = peeled
        for _ in range(count):
            back = back * v
        assert back.as_dict() == poly.as_dict()


def test_peel_v_rejects_non_multiples():
    lone = BigradedRanks.from_dict({(0, 0): 1})
    with pytest.raises(NotDivisible):
        peel_v(lone, 1)
    lopsided = BigradedRanks.from_dict({(0, 0): 2, (-1, -1): 1})
    with pytest.raises(NotDivisible):
        peel_v(lopsided, 1)


# Random nonnegative tables: (Maslov, 2A) -> rank, so s is an integer or a
# half-integer, both parities possibly in one table.
_tables = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-8, 8)), st.integers(1, 3), max_size=6
)


@settings(max_examples=150, deadline=None)
@given(
    table=_tables,
    k=st.integers(0, 5),
    remove=st.booleans(),
    pick=st.integers(0, 10**6),
    spot=st.tuples(st.integers(-10, 6), st.integers(-20, 10)),
)
def test_peel_v_divides_v_powers_and_rejects_one_unit_off(table, k, remove, pick, spot):
    H = BigradedRanks.from_dict({(m, Fraction(two_s, 2)): r for (m, two_s), r in table.items()})
    product = H
    for _ in range(k):
        product = product * BigradedRanks.v_factor()
    assert peel_v(product, k) == H
    if k == 0:
        return
    # A monomial is never a multiple of (1 + t^-1 q^-1) ** k, so one unit
    # more or less anywhere, the bottom level included, must not divide.
    coeffs = product.as_dict()
    if remove and coeffs:
        key = sorted(coeffs)[pick % len(coeffs)]
        coeffs[key] -= 1
    else:
        key = (spot[0], Fraction(spot[1], 2))
        coeffs[key] = coeffs.get(key, 0) + 1
    with pytest.raises(NotDivisible):
        peel_v(BigradedRanks.from_dict(coeffs), k)


def test_trefoil_peeled_homology():
    poly = peel_v(homology_ranks(TREFOIL5), 4)
    assert poly.as_dict() == {
        (0, Fraction(-1)): 1,
        (1, Fraction(0)): 1,
        (2, Fraction(1)): 1,
    }
