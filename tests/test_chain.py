"""Generators, gradings, rectangles, and the two differentials."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

from gridfloer import (
    alexander,
    bigrading,
    empty_rectangles,
    generator_count,
    generators,
    maslov,
    minus_differential,
    new_grid,
    random_grid,
    rectangles,
    rectangles_from,
    tilde_targets,
)
from gridfloer.chain import (
    _empty_rectangle_sweep,
    _marking_counts,
    _SweepTable,
    _grade,
    _grading_tables,
    _minus_terms_from,
    _reduced,
    iter_alexander_levels,
)

from .helpers import (
    FIG8_6,
    HOPF4,
    LINK3_7,
    TORUS25_7,
    TREFOIL5,
    TWIST7,
    UNKNOT2,
    all_grids,
    oracle_bigrading,
    oracle_empty_rectangles,
    random_knot_grid,
    rect_key,
)


def test_generators_are_lexicographic_permutations():
    G = next(all_grids(3))
    got = list(generators(G))
    assert got[:3] == [(0, 1, 2), (0, 2, 1), (1, 0, 2)]
    assert len(got) == 6
    assert got == sorted(got)


def test_generator_count_is_factorial():
    for n, want in [(2, 2), (4, 24), (5, 120), (6, 720)]:
        G = random_grid(n, random.Random(n))
        assert generator_count(G) == want


def test_unknot2_bigradings_exact():
    assert bigrading(UNKNOT2, (0, 1)) == (0, Fraction(0))
    assert bigrading(UNKNOT2, (1, 0)) == (-1, Fraction(-1))


def test_bigrading_matches_pair_counting_oracle():
    rng = random.Random(21)
    cases = []
    for G in all_grids(3):
        cases += [(G, x) for x in itertools.permutations(range(3))]
    for _ in range(10):
        G = random_grid(4, rng)
        cases += [(G, x) for x in itertools.permutations(range(4))]
    cases += [(TREFOIL5, x) for x in itertools.permutations(range(5))]
    for G in (FIG8_6, TWIST7):
        for _ in range(40):
            cases.append((G, tuple(rng.sample(range(G.n), G.n))))
    for G, x in cases:
        want_m, want_a = oracle_bigrading(G, x)
        assert maslov(G, x) == want_m
        assert alexander(G, x) == want_a


def test_grading_tables_match_the_oracle_on_larger_grids():
    # The tables are filled column by column; check them well past n = 7.
    rng = random.Random(24)
    for n in range(8, 14):
        G = random_grid(n, rng)
        for _ in range(5):
            x = tuple(rng.sample(range(n), n))
            assert bigrading(G, x) == oracle_bigrading(G, x), (G, x)


def _oracle_levels(G) -> list[tuple[int, dict[int, list[tuple[int, ...]]]]]:
    """iter_alexander_levels rebuilt from permutations and the pair-counting oracle."""
    buckets: dict = {}
    for x in itertools.permutations(range(G.n)):
        m, a = oracle_bigrading(G, x)
        buckets.setdefault(int(2 * a), {}).setdefault(int(m), []).append(x)
    return sorted(buckets.items())


def _levels(G, min_two_a=None) -> list[tuple[int, dict[int, list[tuple[int, ...]]]]]:
    return list(iter_alexander_levels(G, min_two_a))


def test_levels_match_permutation_oracle():
    # Same 2A keys in increasing order, same Maslov buckets, and generators
    # as tuples in lexicographic order within each bucket.
    rng = random.Random(22)
    grids = list(all_grids(3)) + [random_grid(n, rng) for n in (4, 4, 5, 5, 6, 7)]
    for G in grids:
        assert _levels(G) == _oracle_levels(G), G


def test_min_two_a_keeps_exactly_the_levels_at_or_above_it():
    rng = random.Random(23)
    grids = [TREFOIL5, FIG8_6, TWIST7] + [random_grid(n, rng) for n in (2, 3, 4, 5, 6)]
    for G in grids:
        full = _levels(G)
        assert _reduced(_grading_tables(G))[3] == full[-1][0], G
        for floor in range(full[0][0] - 3, full[-1][0] + 4):
            assert _levels(G, floor) == [lv for lv in full if lv[0] >= floor], (G, floor)
        assert _levels(G, full[-1][0] + 1) == []
        assert _levels(G, full[0][0] - 1) == full


def test_reduced_tables_are_exact_against_brute_force():
    # The assignment solve keeps every 2A, moves the weights to <= 0 and
    # puts the highest level in const_a, on knots and links alike.
    rng = random.Random(25)
    grids = [HOPF4, LINK3_7] + [random_grid(rng.randint(2, 7), rng) for _ in range(60)]
    grids += [random_knot_grid(n, rng) for n in (5, 6, 7)]
    for G in grids:
        tables = _grading_tables(G)
        reduced = _reduced(tables)
        assert reduced[0] is tables[0] and reduced[2] == tables[2], G
        assert all(w <= 0 for col in reduced[1] for w in col), G
        grades = [_grade(x, tables) for x in itertools.permutations(range(G.n))]
        assert [_grade(x, reduced) for x in itertools.permutations(range(G.n))] == grades, G
        assert reduced[3] == max(two_a for _, two_a in grades), G


def test_rectangles_need_exactly_two_moved_columns():
    x = (0, 1, 2, 3, 4)
    assert rectangles(TREFOIL5, x, x) == []
    y = (1, 0, 3, 2, 4)
    assert rectangles(TREFOIL5, x, y) == []


def test_rectangle_pair_is_complementary():
    rng = random.Random(22)
    for _ in range(60):
        G = random_grid(rng.randint(2, 7), rng)
        x = tuple(rng.sample(range(G.n), G.n))
        c1, c2 = rng.sample(range(G.n), 2)
        y = list(x)
        y[c1], y[c2] = y[c2], y[c1]
        pair = rectangles(G, x, tuple(y))
        assert len(pair) == 2
        first, second = pair
        assert first.c1 < second.c1
        assert first.width + second.width == G.n
        assert first.height + second.height == G.n
        # Same two source corners with the roles swapped, and the disjoint
        # column spans keep any marking out of at least one of the two.
        assert {(first.c1, first.r1), (first.c2, first.r2)} == {
            (second.c1, second.r1),
            (second.c2, second.r2),
        }
        for c in range(G.n):
            assert first.o_count[c] + second.o_count[c] <= 1
            assert first.x_count[c] + second.x_count[c] <= 1
        for r in pair:
            assert r.source == x and r.target == tuple(y)
            assert (r.source[r.c1], r.source[r.c2]) == (r.r1, r.r2)


def test_memoised_marking_counts_match_a_cell_by_cell_recount():
    # Every shape (c1, r1, width, height) of a seeded random grid per size,
    # wrapping ones included, reached from two generators each: the first
    # fills the memo, the second reads it.
    rng = random.Random(23)
    _marking_counts.cache_clear()
    for n in range(2, 9):
        G = random_grid(n, rng)
        shapes = 0
        for c1, r1 in itertools.product(range(n), repeat=2):
            for w, h in itertools.product(range(1, n), repeat=2):
                c2, r2 = (c1 + w) % n, (r1 + h) % n
                for _ in range(2):
                    rest = rng.sample([r for r in range(n) if r not in (r1, r2)], n - 2)
                    x = [rest.pop() if c not in (c1, c2) else 0 for c in range(n)]
                    x[c1], x[c2] = r1, r2
                    y = list(x)
                    y[c1], y[c2] = r2, r1
                    [rect] = [r for r in rectangles(G, tuple(x), tuple(y)) if r.c1 == c1]
                    assert (rect.width, rect.height) == (w, h)
                    cells = set(rect.cells())
                    assert rect.o_count == tuple(int((c, G.o_rows[c]) in cells) for c in range(n))
                    assert rect.x_count == tuple(int((c, G.x_rows[c]) in cells) for c in range(n))
                shapes += 1
        assert shapes == n * n * (n - 1) ** 2
    # The second generator of each shape found its counts in the memo.
    assert _marking_counts.cache_info().hits >= sum(n * n * (n - 1) ** 2 for n in range(2, 9))


def test_empty_rectangles_match_corner_oracle_exhaustively():
    for G in all_grids(3):
        for x in itertools.permutations(range(3)):
            for y in itertools.permutations(range(3)):
                got = {rect_key(r) for r in empty_rectangles(G, x, y)}
                assert got == oracle_empty_rectangles(G, x, y)


def test_empty_rectangles_match_corner_oracle_sampled():
    rng = random.Random(23)
    for _ in range(40):
        G = random_grid(rng.randint(4, 7), rng)
        for _ in range(25):
            x = tuple(rng.sample(range(G.n), G.n))
            c1, c2 = rng.sample(range(G.n), 2)
            y = list(x)
            y[c1], y[c2] = y[c2], y[c1]
            got = {rect_key(r) for r in empty_rectangles(G, x, tuple(y))}
            assert got == oracle_empty_rectangles(G, x, tuple(y))
            assert len(got) <= 2


def test_trefoil_pair_with_planar_and_wrapping_empty_rectangles():
    x = (0, 2, 3, 4, 1)
    y = (1, 2, 3, 4, 0)
    pair = empty_rectangles(TREFOIL5, x, y)
    assert len(pair) == 2
    planar = [r for r in pair if r.c1 < r.c2 and r.r1 < r.r2]
    wrapping = [r for r in pair if not (r.c1 < r.c2 and r.r1 < r.r2)]
    assert len(planar) == 1 and len(wrapping) == 1


def test_grading_drop_laws_for_all_rectangles():
    rng = random.Random(24)
    grids = [TREFOIL5] + [random_grid(rng.randint(2, 6), rng) for _ in range(8)]
    for G in grids:
        for _ in range(60):
            x = tuple(rng.sample(range(G.n), G.n))
            m_x, a_x = bigrading(G, x)
            for r in rectangles_from(G, x):
                m_y, a_y = bigrading(G, r.target)
                assert a_x - a_y == r.x_total - r.o_total
                if r.empty:
                    assert m_x - m_y == 1 - 2 * r.o_total


def test_marking_free_empty_rectangle_drops_maslov_by_one():
    for x in itertools.permutations(range(5)):
        for y in tilde_targets(TREFOIL5, x):
            assert maslov(TREFOIL5, x) - maslov(TREFOIL5, y) == 1
            assert alexander(TREFOIL5, x) == alexander(TREFOIL5, y)


def test_minus_terms_enumerate_x_free_empty_rectangles():
    G = new_grid(3, (2, 0, 1), (0, 1, 2))
    want: Counter = Counter()
    for x in itertools.permutations(range(3)):
        for r in rectangles_from(G, x):
            if r.empty and r.x_total == 0:
                want[(r.source, r.target, tuple(r.o_count))] += 1
    got = Counter((t.source, t.target, tuple(t.exponents)) for t in minus_differential(G))
    assert got == want


def test_minus_exponents_are_zero_or_one():
    rng = random.Random(25)
    for _ in range(10):
        G = random_grid(rng.randint(2, 5), rng)
        for term in minus_differential(G):
            assert set(term.exponents) <= {0, 1}


def test_tilde_targets_cancel_even_rectangle_counts():
    # Both rectangles between this pair are empty and marking-free, so the
    # mod 2 differential drops the target entirely.
    G = new_grid(4, (2, 3, 0, 1), (3, 2, 1, 0))
    x, y = (0, 3, 2, 1), (2, 3, 0, 1)
    pair = empty_rectangles(G, x, y)
    assert len(pair) == 2
    assert all(r.o_total == 0 and r.x_total == 0 for r in pair)
    assert y not in tilde_targets(G, x)


def test_tilde_targets_match_rectangle_enumeration():
    rng = random.Random(26)
    for _ in range(12):
        G = random_grid(rng.randint(2, 5), rng)
        for x in itertools.permutations(range(G.n)):
            parity: Counter = Counter()
            for r in rectangles_from(G, x):
                if r.empty and r.o_total == 0 and r.x_total == 0:
                    parity[r.target] += 1
            want = sorted(t for t, k in parity.items() if k % 2)
            assert tilde_targets(G, x) == want


# -- the sweep kernel against rectangles built one by one ---------------------


def _odd_targets(targets) -> list:
    parity = Counter(targets)
    return sorted(t for t, k in parity.items() if k % 2)


def _terms_by_rectangles(G, x):
    """(kernel triples, minus terms as a multiset, tilde targets) via rectangles_from."""
    kept = [r for r in rectangles_from(G, x) if r.empty and r.x_total == 0]
    sweep = {(r.c1, r.c2, r.o_total == 0) for r in kept}
    minus = Counter((r.target, r.o_count) for r in kept)
    tilde = _odd_targets(r.target for r in kept if r.o_total == 0)
    return sweep, minus, tilde


def _terms_by_corners(G, x):
    """(minus terms as a multiset, tilde targets) via the n^4 corner oracle."""
    minus: Counter = Counter()
    for c1, c2 in itertools.combinations(range(G.n), 2):
        y = list(x)
        y[c1], y[c2] = y[c2], y[c1]
        for *_, o_vec, x_vec in oracle_empty_rectangles(G, x, tuple(y)):
            if not any(x_vec):
                minus[(tuple(y), o_vec)] += 1
    tilde = sorted(y for (y, o_vec), k in minus.items() if k % 2 and not any(o_vec))
    return minus, tilde


def _both_tables(G) -> tuple:
    """A fresh X-only sweep table and a fresh collapsed one for G."""
    return _SweepTable(G), _SweepTable(G, collapsed=True)


def _assert_kernel_matches(G, x, tables, corners: bool = False) -> None:
    """Both kinds of sweep table against the rectangles built one by one.

    ``tables`` is (X-only, collapsed), as from ``_both_tables``: the
    collapsed sweep must yield exactly the O-free rectangles of the X-only
    one, every one of them flagged O-free.
    """
    table, collapsed = tables
    sweep, minus, tilde = _terms_by_rectangles(G, x)
    got = list(_empty_rectangle_sweep(x, table))
    assert len(got) == len(set(got)) and set(got) == sweep, (G, x)
    marking_free = sorted(_empty_rectangle_sweep(x, collapsed))
    assert marking_free == sorted(t for t in got if t[2]), (G, x)
    assert Counter(_minus_terms_from(x, table)) == minus, (G, x)
    assert tilde_targets(G, x) == tilde, (G, x)
    if corners:
        assert _terms_by_corners(G, x) == (minus, tilde), (G, x)


def _in_seeded_order(sources, rng: random.Random) -> list:
    """The sources shuffled, so a grid's shared table is read while partly filled."""
    sources = list(sources)
    rng.shuffle(sources)
    return sources


def test_kernel_matches_both_oracles_on_every_grid_of_size_3():
    rng = random.Random(26)
    for G in all_grids(3):
        tables = _both_tables(G)
        for x in _in_seeded_order(itertools.permutations(range(3)), rng):
            _assert_kernel_matches(G, x, tables, corners=True)


def test_kernel_matches_rectangles_on_every_generator_of_random_grids():
    rng = random.Random(27)
    for n in range(2, 7):
        for _ in range(2):
            G = random_grid(n, rng)
            tables = _both_tables(G)
            for x in _in_seeded_order(itertools.permutations(range(n)), rng):
                _assert_kernel_matches(G, x, tables, corners=n <= 4)


def test_kernel_matches_rectangles_on_sampled_n7_generators():
    rng = random.Random(28)
    for G in (TWIST7, TORUS25_7, random_knot_grid(7, rng)):
        tables = _both_tables(G)
        for k in range(120):
            _assert_kernel_matches(G, tuple(rng.sample(range(7), 7)), tables, corners=k < 4)


def test_minus_terms_have_no_packing_limit():
    rng = random.Random(29)
    G = random_grid(17, rng)
    table, _ = tables = _both_tables(G)
    sources = [tuple(range(17)), tuple(range(16, -1, -1))]
    sources += [tuple(rng.sample(range(17), 17)) for _ in range(6)]
    for x in _in_seeded_order(sources, rng):
        _assert_kernel_matches(G, x, tables)
    assert any(_minus_terms_from(x, table) for x in sources)


def _direct_steps(G, c1: int, r1: int, collapsed: bool = False) -> tuple:
    """The sweep steps from (c1, r1), each minimum taken afresh over its columns.

    The steps end at an X on row r1; collapsed, at an X or an O on row r1,
    with both offsets the least over both marking kinds.
    """
    n = G.n
    steps = []
    for width in range(1, n):
        cols = [(c1 + k) % n for k in range(width)]
        xs = [(G.x_rows[c] - r1) % n for c in cols]
        os_ = [(G.o_rows[c] - r1) % n for c in cols]
        if collapsed:
            xs = os_ = xs + os_
        if 0 in xs:
            break
        steps.append(((c1 + width) % n, min(xs), min(os_)))
    return tuple(steps)


def test_filled_sweep_table_matches_direct_recomputation():
    rng = random.Random(30)
    for n in range(2, 18):
        for _ in range(2):
            G = random_grid(n, rng)
            # The n cyclic shifts of the identity put a point on every (c1, r1).
            shifts = _in_seeded_order(range(n), rng)
            for table in _both_tables(G):
                assert all(steps is None for row in table.steps for steps in row)
                for k in shifts:
                    list(_empty_rectangle_sweep(tuple((c + k) % n for c in range(n)), table))
                for c1 in range(n):
                    for r1 in range(n):
                        want = _direct_steps(G, c1, r1, table.collapsed)
                        assert table.steps[c1][r1] == want, (G, table.collapsed, c1, r1)


def test_kernel_sweeps_wrap_around_the_torus():
    x = (0, 2, 3, 4, 1)
    table, collapsed = tables = _both_tables(TREFOIL5)
    got = set(_empty_rectangle_sweep(x, table))
    # Columns 4 -> 1 wrap east past column 0; rows 4 -> 1 wrap north past row 0.
    assert got == {(1, 2, True), (2, 3, True), (3, 4, False), (4, 1, False)}
    assert set(_empty_rectangle_sweep(x, collapsed)) == {(1, 2, True), (2, 3, True)}
    _assert_kernel_matches(TREFOIL5, x, tables, corners=True)


def test_x_marking_on_the_left_corner_row_ends_the_sweep():
    # Every X of this trefoil sits in the cell just northeast of the identity
    # generator's point in its column, so each sweep stops at once.
    x = (0, 1, 2, 3, 4)
    table, _ = tables = _both_tables(TREFOIL5)
    assert list(_empty_rectangle_sweep(x, table)) == []
    assert all(table.steps[c][x[c]] == () for c in range(5))
    _assert_kernel_matches(TREFOIL5, x, tables, corners=True)


def test_point_one_row_up_ends_the_sweep():
    # Each column's neighbour to the east sits one row higher, so every sweep
    # stops after its first column pair.
    x = tuple(range(7))
    table, _ = tables = _both_tables(TWIST7)
    got = list(_empty_rectangle_sweep(x, table))
    assert [(c1, c2) for c1, c2, _ in got] == [(c, (c + 1) % 7) for c in range(7)]
    _assert_kernel_matches(TWIST7, x, tables, corners=True)
