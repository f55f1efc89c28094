"""Domains and the Lipshitz index formula."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from gridfloer import (
    GridDomain,
    add_domains,
    domains,
    euler_measure,
    from_rectangle,
    maslov,
    maslov_index,
    point_multiplicity,
    random_grid,
    rectangles_from,
    total_N,
    vertex_multiplicity,
)
from gridfloer.errors import BoundaryMismatch, PointNotCorner

from .helpers import (
    TREFOIL5,
    all_grids,
    oracle_check_domain,
    oracle_euler_measure,
    oracle_maslov_index,
    oracle_point_multiplicity,
)


def _empty_rect(G, rng):
    while True:
        x = tuple(rng.sample(range(G.n), G.n))
        hits = [r for r in rectangles_from(G, x) if r.empty]
        if hits:
            return rng.choice(hits)


def test_from_rectangle_marks_cells_once():
    rng = random.Random(31)
    r = _empty_rect(TREFOIL5, rng)
    D = from_rectangle(r)
    cells = set(r.cells())
    for c in range(5):
        for row in range(5):
            assert D.multiplicities[c][row] == int((c, row) in cells)


def test_domain_rejects_wrong_shape():
    with pytest.raises(BoundaryMismatch):
        GridDomain((0, 1), (1, 0), ((1,), (0,)))


def test_domain_rejects_boundary_defects():
    # A single cell cannot carry a boundary from a generator to itself.
    mult = [[0, 0], [0, 0]]
    mult[0][0] = 1
    with pytest.raises(BoundaryMismatch):
        GridDomain((0, 1), (0, 1), tuple(tuple(col) for col in mult))


def test_periodic_row_domain_is_accepted():
    # A full row of cells has null boundary, so source may equal target.
    n = 5
    row = 2
    mult = tuple(tuple(1 if r == row else 0 for r in range(n)) for _ in range(n))
    x = (0, 2, 3, 4, 1)
    D = GridDomain(x, x, mult)
    assert euler_measure(D) == 0
    assert maslov_index(D) == 2


def test_vertex_multiplicities_of_an_empty_rectangle():
    rng = random.Random(32)
    r = _empty_rect(TREFOIL5, rng)
    D = from_rectangle(r)
    corners = {(r.c1, r.r1), (r.c2, r.r2), (r.c1, r.r2), (r.c2, r.r1)}
    quarter = Fraction(1, 4)
    for point in corners:
        assert vertex_multiplicity(D, point) == quarter
    for c, row in enumerate(D.source):
        if (c, row) not in corners:
            assert vertex_multiplicity(D, (c, row)) == 0


def test_vertex_multiplicity_rejects_non_generator_points():
    rng = random.Random(33)
    D = from_rectangle(_empty_rect(TREFOIL5, rng))
    outside = next(
        (c, r)
        for c in range(5)
        for r in range(5)
        if (c, r) not in set(enumerate(D.source)) and (c, r) not in set(enumerate(D.target))
    )
    with pytest.raises(PointNotCorner):
        vertex_multiplicity(D, outside)


def test_point_multiplicity_wraps_modularly():
    rng = random.Random(34)
    D = from_rectangle(_empty_rect(TREFOIL5, rng))
    assert point_multiplicity(D, 0, 0) == point_multiplicity(D, 5, 5)


def test_vertex_multiplicity_wraps_modularly():
    # The rectangle from (0, 0) to (1, 1) of the identity generator.
    rect = next(r for r in rectangles_from(TREFOIL5, (0, 1, 2, 3, 4)) if (r.c1, r.c2) == (0, 1))
    D = from_rectangle(rect)
    points = set(enumerate(D.source)) | set(enumerate(D.target))
    assert (0, 0) in points
    for c, r in points:
        want = vertex_multiplicity(D, (c, r))
        for dc, dr in ((5, 0), (-5, 0), (0, 5), (0, -5), (10, -5)):
            assert vertex_multiplicity(D, (c + dc, r + dr)) == want
    c, r = next((c, r) for c in range(5) for r in range(5) if (c, r) not in points)
    with pytest.raises(PointNotCorner):
        vertex_multiplicity(D, (c + 5, r - 5))


def test_empty_rectangle_has_index_exactly_one():
    rng = random.Random(35)
    for _ in range(10):
        G = random_grid(rng.randint(2, 6), rng)
        for _ in range(20):
            x = tuple(rng.sample(range(G.n), G.n))
            for r in rectangles_from(G, x):
                D = from_rectangle(r)
                assert total_N(D) == maslov_index(D)
                assert (maslov_index(D) == 1) == r.empty


def test_one_interior_point_raises_index_to_three():
    for r in rectangles_from(TREFOIL5, (0, 1, 2, 3, 4)):
        if (r.c1, r.r1, r.c2, r.r2) == (0, 0, 2, 2):
            assert not r.empty
            assert maslov_index(from_rectangle(r)) == 3
            return
    raise AssertionError("expected rectangle not enumerated")


def test_index_tracks_maslov_drop_and_o_count():
    rng = random.Random(36)
    for _ in range(8):
        G = random_grid(rng.randint(2, 6), rng)
        for _ in range(25):
            x = tuple(rng.sample(range(G.n), G.n))
            m_x = maslov(G, x)
            for r in rectangles_from(G, x):
                mu = maslov_index(from_rectangle(r))
                assert mu == m_x - maslov(G, r.target) + 2 * r.o_total


def test_index_is_additive_under_composition():
    rng = random.Random(37)
    hits = 0
    while hits < 25:
        G = random_grid(rng.randint(3, 6), rng)
        x = tuple(rng.sample(range(G.n), G.n))
        first = rng.choice(list(rectangles_from(G, x)))
        seconds = list(rectangles_from(G, first.target))
        second = rng.choice(seconds)
        combined = add_domains(from_rectangle(first), from_rectangle(second))
        assert combined.source == x and combined.target == second.target
        mu1 = maslov_index(from_rectangle(first))
        mu2 = maslov_index(from_rectangle(second))
        assert maslov_index(combined) == mu1 + mu2
        assert type(maslov_index(combined)) is Fraction
        hits += 1


def test_add_domains_requires_composability():
    x = (0, 1, 2, 3, 4)
    rects = list(rectangles_from(TREFOIL5, x))
    first = rects[0]
    second = next(r for r in rects if r.target != first.target)
    with pytest.raises(BoundaryMismatch):
        add_domains(from_rectangle(first), from_rectangle(second))


def test_euler_measure_vanishes_on_grid_domains():
    rng = random.Random(39)
    for _ in range(10):
        G = random_grid(rng.randint(2, 6), rng)
        x = tuple(rng.sample(range(G.n), G.n))
        for r in rectangles_from(G, x):
            assert euler_measure(from_rectangle(r)) == 0


def _points_inside(r) -> int:
    """Generator points strictly inside a rectangle, counted from its corners."""
    n = r.n
    return sum(
        1
        for c, row in enumerate(r.source)
        if 0 < (c - r.c1) % n < r.width and 0 < (row - r.r1) % n < r.height
    )


def test_index_is_one_plus_twice_the_points_inside():
    # Every rectangle of every n = 3 grid, and sampled rectangles of n = 6 grids.
    rects = [r for G in all_grids(3) for x in itertools.permutations(range(3))
             for r in rectangles_from(G, x)]
    rng = random.Random(40)
    for _ in range(6):
        G = random_grid(6, rng)
        for _ in range(10):
            rects += rng.sample(list(rectangles_from(G, tuple(rng.sample(range(6), 6)))), 8)
    assert any(_points_inside(r) > 1 for r in rects)
    for r in rects:
        mu = maslov_index(from_rectangle(r))
        assert type(mu) is Fraction
        assert mu == 1 + 2 * _points_inside(r)


def _random_table(rng: random.Random, n: int, x: tuple, y: tuple):
    """A table of cell multiplicities that is often, not always, a domain from x to y.

    Either the cells of a rectangle with source x, or whole columns or whole
    rows of cells (periodic domains, whose boundary misses the horizontal
    circles); then, half the time, one cell changed.
    """
    m = [[0] * n for _ in range(n)]
    if x != y and rng.random() < 0.7:
        c1, c2 = rng.sample(range(n), 2)
        for i in range((c2 - c1) % n):
            for j in range((x[c2] - x[c1]) % n):
                m[(c1 + i) % n][(x[c1] + j) % n] = 1
    else:
        heights = [rng.choice((-1, 0, 0, 1)) for _ in range(n)]
        by_column = rng.random() < 0.5
        for c in range(n):
            for r in range(n):
                m[c][r] = heights[c] if by_column else heights[r]
    if rng.random() < 0.5:
        m[rng.randrange(n)][rng.randrange(n)] += rng.choice((-2, -1, 1))
    return tuple(tuple(col) for col in m)


def test_boundary_check_matches_the_per_point_loop():
    rng = random.Random(41)
    accepted = rejected = 0
    for _ in range(10_000):
        n = rng.randint(2, 4)
        x = tuple(rng.sample(range(n), n))
        if rng.random() < 0.5:
            c1, c2 = rng.sample(range(n), 2)
            y = list(x)
            y[c1], y[c2] = y[c2], y[c1]
            y = tuple(y)
        else:
            y = x if rng.random() < 0.5 else tuple(rng.sample(range(n), n))
        m = _random_table(rng, n, x, y)
        try:
            oracle_check_domain(x, y, m)
            want = None
        except BoundaryMismatch as err:
            want = str(err)
        try:
            GridDomain(x, y, m)
            got = None
        except BoundaryMismatch as err:
            got = str(err)
        assert got == want, (x, y, m)
        accepted += want is None
        rejected += want is not None
    assert accepted > 2000 and rejected > 2000


def _outcome(x, y, m):
    """The boundary check's verdict, None or the message, from the domain and the oracle."""
    verdicts = []
    for check in (GridDomain, oracle_check_domain):
        try:
            check(x, y, m)
            verdicts.append(None)
        except BoundaryMismatch as err:
            verdicts.append(str(err))
    return verdicts


def test_one_table_validates_against_many_generator_pairs():
    # A small pool of tables, each checked against every (source, target)
    # pair in a shuffled order, twice over: the table-only facts come from
    # the memo after the first pair, and every table with a valid pair sees
    # a valid pair after an invalid one and an invalid pair after a valid one.
    rng = random.Random(42)
    hits = domains._table_facts.cache_info().hits
    checks = with_valid = 0
    for n in (3, 4):
        perms = list(itertools.permutations(range(n)))
        pool = set()
        while len(pool) < 8:
            x, y = rng.choice(perms), rng.choice(perms)
            pool.add(_random_table(rng, n, x, y))
        pairs = [(x, y) for x in perms for y in perms]
        for m in sorted(pool):
            flips = set()
            previous = None
            for x, y in rng.sample(pairs, len(pairs)) + rng.sample(pairs, len(pairs)):
                got, want = _outcome(x, y, m)
                assert got == want, (x, y, m)
                if previous is not None and (got is None) != previous:
                    flips.add(got is None)
                previous = got is None
                checks += 1
            if flips:
                assert flips == {True, False}, m
                with_valid += 1
    assert with_valid >= 8
    assert domains._table_facts.cache_info().hits - hits >= checks - 16


def test_each_domain_looks_up_its_table_once():
    # Validation looks the table up; the index functions read the facts the
    # domain keeps, so one domain costs one lookup however much it is read.
    rng = random.Random(45)
    info = domains._table_facts.cache_info()
    before = info.hits + info.misses
    built = 0
    for _ in range(40):
        G = random_grid(rng.randint(2, 6), rng)
        x = tuple(rng.sample(range(G.n), G.n))
        for r in rectangles_from(G, x):
            D = from_rectangle(r)
            built += 1
            maslov_index(D)
            total_N(D)
            euler_measure(D)
            point_multiplicity(D, r.c1, r.r1)
            vertex_multiplicity(D, (r.c2, r.r2))
            info = domains._table_facts.cache_info()
            assert info.hits + info.misses == before + built
        zero = GridDomain(r.target, r.target, ((0,) * G.n,) * G.n)
        D = add_domains(from_rectangle(r), zero)
        built += 3
        maslov_index(D)
        info = domains._table_facts.cache_info()
        assert info.hits + info.misses == before + built


def _periodic_table(rng: random.Random, n: int):
    heights = [rng.randint(-2, 2) for _ in range(n)]
    if rng.random() < 0.5:
        return tuple(tuple(heights) for _ in range(n))
    return tuple((h,) * n for h in heights)


def _assert_index_matches_the_oracle(D):
    m = D.multiplicities
    mu = oracle_maslov_index(D.source, D.target, m)
    e = oracle_euler_measure(m)
    assert maslov_index(D) == mu
    assert euler_measure(D) == e
    assert total_N(D) == mu - e
    n = D.n
    for c in range(-1, n + 1):
        for r in range(-1, n + 1):
            assert point_multiplicity(D, c, r) == oracle_point_multiplicity(m, c, r)


def test_index_functions_match_the_definition():
    rng = random.Random(43)
    accepted = periodic = composed = 0
    while accepted < 300:
        n = rng.randint(2, 6)
        x = tuple(rng.sample(range(n), n))
        y = list(x)
        c1, c2 = rng.sample(range(n), 2)
        y[c1], y[c2] = y[c2], y[c1]
        y = tuple(y) if rng.random() < 0.7 else x
        m = _random_table(rng, n, x, y)
        try:
            oracle_check_domain(x, y, m)
        except BoundaryMismatch:
            continue
        _assert_index_matches_the_oracle(GridDomain(x, y, m))
        accepted += 1
    while periodic < 100:
        n = rng.randint(2, 6)
        x = tuple(rng.sample(range(n), n))
        _assert_index_matches_the_oracle(GridDomain(x, x, _periodic_table(rng, n)))
        periodic += 1
    while composed < 100:
        G = random_grid(rng.randint(3, 6), rng)
        x = tuple(rng.sample(range(G.n), G.n))
        D = from_rectangle(rng.choice(list(rectangles_from(G, x))))
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.3:
                step = GridDomain(D.target, D.target, _periodic_table(rng, G.n))
            else:
                step = from_rectangle(rng.choice(list(rectangles_from(G, D.target))))
            D = add_domains(D, step)
        _assert_index_matches_the_oracle(D)
        composed += 1


def test_memos_stay_within_their_bounds():
    # At n = 11 the affine permutations c -> a*c + b (mod 11) have every
    # rectangle shape (c1, r1, width, height) exactly once among their
    # rectangles: 12,100 shapes, each with its own table, more than either
    # memo keeps.
    n = 11
    G = random_grid(n, random.Random(44))
    shapes = set()
    try:
        for a in range(1, n):
            for b in range(n):
                x = tuple((a * c + b) % n for c in range(n))
                for r in rectangles_from(G, x):
                    shapes.add((r.c1, r.r1, r.width, r.height))
                    assert (maslov_index(from_rectangle(r)) == 1) == r.empty
        assert len(shapes) == n * n * (n - 1) ** 2
        for memo, bound in (
            (domains._table_facts, domains._TABLE_MEMO_SIZE),
            (domains._rectangle_table, domains._SHAPE_MEMO_SIZE),
        ):
            info = memo.cache_info()
            assert info.maxsize == bound < len(shapes)
            assert info.currsize <= bound
    finally:
        domains._table_facts.cache_clear()
        domains._rectangle_table.cache_clear()
