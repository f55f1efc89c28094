"""Domains and the Lipshitz index formula."""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from gridfloer import (
    GridDomain,
    add_domains,
    chain,
    domains,
    euler_measure,
    from_rectangle,
    maslov,
    maslov_index,
    point_multiplicity,
    random_grid,
    rectangles_from,
    run_checks,
    total_N,
    vertex_multiplicity,
)
from gridfloer.errors import BoundaryMismatch, PointNotCorner

from .helpers import (
    TREFOIL5,
    TWIST7,
    all_grids,
    cli_env,
    oracle_check_domain,
    oracle_euler_measure,
    oracle_maslov_index,
    oracle_point_multiplicity,
)

ROOT = Path(__file__).resolve().parent.parent


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


@pytest.mark.parametrize(
    "source",
    [(0, 1.0, 2), (False, True, 2), (0, "1", 2), (0, None, 2)],
    ids=["float", "bool", "str", "None"],
)
def test_domain_rejects_points_that_are_not_ints(source):
    # A float or a bool sorts like an int, but a table indexed by them is
    # not a domain; a str or None does not sort with ints at all.
    zeros = ((0,) * 3,) * 3
    for points in ((source, (0, 1, 2)), ((0, 1, 2), source), ((2, 1, 0), source)):
        with pytest.raises(BoundaryMismatch, match="permutations"):
            GridDomain(*points, zeros)
        with pytest.raises(BoundaryMismatch, match="permutations"):
            oracle_check_domain(*points, zeros)


@pytest.mark.parametrize("bad", [0.5, True, "1", None], ids=["float", "bool", "str", "None"])
def test_domain_rejects_multiplicities_that_are_not_ints(bad):
    # A float or a bool sums like an int, and a str or None does not sum at
    # all; none is a multiplicity of an integer 2-chain.  Refused after the
    # shape check and before the boundary check, naming the first such
    # entry: also where every entry is alike, so the boundary closes up,
    # and where a point is a float too.
    for table, cell in ((((bad, bad), (bad, bad)), (0, 0)), (((0, 0), (0, bad)), (1, 1))):
        message = f"multiplicity {bad!r} at cell {cell} is not an int"
        for check in (GridDomain, oracle_check_domain):
            for source in ((0, 1), (0, 1.0)):
                with pytest.raises(BoundaryMismatch) as err:
                    check(source, (0, 1), table)
                assert str(err.value) == message
            with pytest.raises(BoundaryMismatch, match="2x2"):
                check((0, 1), (0, 1), table[:1])
            with pytest.raises(BoundaryMismatch, match="permutations"):
                check((0, 0), (0, 1), table)


@pytest.mark.parametrize("bad", ["1", None], ids=["str", "None"])
def test_points_that_are_no_numbers_are_the_first_fault(bad):
    # A str or None point makes no permutation, the first fault in the
    # order: named before a table that is not n-by-n or holds a float,
    # also in a sum that add_domains builds.
    message = "source and target must be permutations of 0..n-1"
    zeros = ((0,) * 3,) * 3
    for table in (zeros[:2], (zeros[0], (0, 0.5, 0), zeros[2])):
        for check in (GridDomain, oracle_check_domain):
            with pytest.raises(BoundaryMismatch) as err:
                check((0, bad, 2), (0, 1, 2), table)
            assert str(err.value) == message
    first = from_rectangle(next(rectangles_from(TREFOIL5, (0, 1, 2, 3, 4))))
    second = SimpleNamespace(
        source=first.target, target=(0, bad, 2, 3, 4), multiplicities=((0,) * 5,) * 5
    )
    with pytest.raises(BoundaryMismatch) as err:
        add_domains(first, second)
    assert str(err.value) == message


def test_from_rectangle_validates_like_grid_domain():
    # from_rectangle skips the copy and the shape check of its own table,
    # never the permutation check or the boundary check: hand-built
    # rectangles with one fault each are refused as GridDomain refuses them.
    rng = random.Random(35)
    x = tuple(rng.sample(range(5), 5))
    good = next(r for r in rectangles_from(TREFOIL5, x) if r.width < 4)
    c1 = good.c1
    other = next(c for c in range(5) if c not in (c1, good.c2))
    repeated, floated, crossed, worded = list(x), list(x), list(x), list(x)
    repeated[other] = x[c1]
    floated[c1] = float(x[c1])
    crossed[c1], crossed[other] = x[other], x[c1]
    worded[c1] = str(x[c1])
    faults = [
        (replace(good, source=tuple(repeated)), "permutations"),
        (replace(good, source=tuple(floated), r1=float(good.r1)), "permutations"),
        (replace(good, source=tuple(worded)), "permutations"),
        (replace(good, target=(*good.target[:-1], None), c1=float(c1)), "permutations"),
        (replace(good, target=tuple(crossed)), "boundary defect"),
    ]
    table = from_rectangle(good).multiplicities
    for rect, message in faults:
        with pytest.raises(BoundaryMismatch) as want:
            GridDomain(rect.source, rect.target, table)
        with pytest.raises(BoundaryMismatch, match=message) as got:
            from_rectangle(rect)
        assert str(got.value) == str(want.value)


def _verdict(build):
    """None if build() accepts its domain, else the BoundaryMismatch message."""
    try:
        build()
    except BoundaryMismatch as err:
        return str(err)
    return None


def test_from_rectangle_refuses_targets_as_grid_domain_does():
    # from_rectangle sorts only the source and lets the boundary check vouch
    # for the target.  Every rectangle shape's table, degenerate ones with
    # width or height 0 included, against every source permutation: all
    # targets in range(n)^n at n = 2 and 3 and a sample at n = 4, then
    # targets one point short or long and targets with a float or bool.
    rng = random.Random(37)
    base = next(rectangles_from(TREFOIL5, tuple(range(5))))
    verdicts = Counter()
    for n in (2, 3, 4):
        perms = list(itertools.permutations(range(n)))
        targets = list(itertools.product(range(n), repeat=n))
        for c1, r1, w, h in itertools.product(range(n), repeat=4):
            m = tuple(
                tuple(int((c - c1) % n < w and (r - r1) % n < h) for r in range(n))
                for c in range(n)
            )
            for x in perms:
                rect = replace(base, source=x, c1=c1, r1=r1, c2=(c1 + w) % n, r2=(r1 + h) % n)
                moved = list(x)
                moved[c1], moved[(c1 + w) % n] = x[(c1 + w) % n], x[c1]
                odd = [
                    x[:-1],
                    (*x, 0),
                    tuple(moved[:-1]),
                    (*moved, n),
                    (float(moved[0]), *moved[1:]),
                    (*moved[:-1], bool(moved[-1] % 2)),
                    (*x[:-1], float(x[-1])),
                ]
                pool = targets if n < 4 else rng.sample(targets, 12) + [tuple(moved)]
                for y in pool + odd:
                    got = _verdict(lambda: from_rectangle(replace(rect, target=y)))
                    want = _verdict(lambda: GridDomain(x, y, m))
                    oracle = _verdict(lambda: oracle_check_domain(x, y, m))
                    assert got == want == oracle, (x, y, m)
                    verdicts[got] += 1
    assert verdicts[None] > 1000
    assert verdicts["source and target must be permutations of 0..n-1"] > 10_000
    assert sum(k for message, k in verdicts.items() if "defect" in str(message)) > 10_000


_CORNERS = ("c1", "r1", "c2", "r2")
_NOT_PERMUTATIONS = "source and target must be permutations of 0..n-1"
_NOT_INT_CORNERS = "rectangle corners c1, r1, c2 and r2 must be ints"


def _odd_rectangles():
    """The rectangles from two sources on each of two grids at n = 3, 4
    and 5: each with one corner a float or a bool (every third with its
    target off in one column too), each moved by n and by -n in each of
    its four corners, each with its target off in one column, and each as
    it is.  Those with a corner that is not an int come first, so that in
    a fresh process the shape memo holds none of their shapes yet."""
    rng = random.Random(47)
    odd, rest = [], []
    for n in (3, 4, 5):
        for G in (random_grid(n, rng), random_grid(n, rng)):
            for x in (tuple(rng.sample(range(n), n)) for _ in range(2)):
                for k, r in enumerate(rectangles_from(G, x)):
                    off = list(r.target)
                    c = rng.randrange(n)
                    off[c] = (off[c] + 1) % n
                    off = tuple(off)
                    corner = _CORNERS[k % 4]
                    v = getattr(r, corner)
                    bad = bool(v) if v < 2 and k % 2 else float(v)
                    odd.append(replace(r, **{corner: bad}))
                    if k % 3 == 0:
                        odd.append(replace(r, target=off, **{corner: bad}))
                    for corner in _CORNERS:
                        for step in (n, -n):
                            rest.append(replace(r, **{corner: getattr(r, corner) + step}))
                    rest += [replace(r, target=off), r]
    return odd + rest


def _rectangle_verdicts():
    """Per rectangle of ``_odd_rectangles``: from_rectangle's refusal, or
    the index of its domain and that of the domain GridDomain builds from
    the same points and the domain's own table."""
    verdicts = []
    for rect in _odd_rectangles():
        try:
            D = from_rectangle(rect)
        except BoundaryMismatch as err:
            verdicts.append(str(err))
            continue
        try:
            own = str(maslov_index(GridDomain(D.source, D.target, D.multiplicities)))
        except BoundaryMismatch as err:
            own = str(err)
        verdicts.append([str(maslov_index(D)), own])
    return verdicts


def _wrapped_verdict(rect):
    """What ``_rectangle_verdicts`` must say of rect: GridDomain's verdict
    on the table of the rectangle with its corners made ints and wrapped
    onto the torus, and where a corner is not an int, from_rectangle's
    refusal of it unless the points are refused first."""
    n = rect.n
    c1, r1, c2, r2 = (int(getattr(rect, k)) % n for k in _CORNERS)
    w, h = (c2 - c1) % n, (r2 - r1) % n
    m = tuple(
        tuple(int((c - c1) % n < w and (r - r1) % n < h) for r in range(n)) for c in range(n)
    )
    try:
        mu = str(maslov_index(GridDomain(rect.source, rect.target, m)))
        want = [mu, mu]
    except BoundaryMismatch as err:
        want = str(err)
    if any(type(getattr(rect, k)) is not int for k in _CORNERS) and want != _NOT_PERMUTATIONS:
        want = _NOT_INT_CORNERS
    return want


def test_from_rectangle_agrees_with_grid_domain_cold_and_warm():
    # A rectangle's domain is refused or accepted as GridDomain refuses or
    # accepts the wrapped rectangle's table, whatever the shape memo holds:
    # once in a fresh process, where the memo starts empty, and once here
    # after every shape of n = 3, 4 and 5 is in it.
    cold = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json; from tests.test_domains import _rectangle_verdicts as v; "
            "print(json.dumps(v()))",
        ],
        cwd=ROOT,
        env=cli_env(),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    for n in (3, 4, 5):
        for shape in itertools.product(range(n), repeat=4):
            domains._rectangle_shape(n, *shape)
    warm = _rectangle_verdicts()
    assert json.loads(cold.stdout) == warm
    rects = _odd_rectangles()
    assert len(rects) == len(warm)
    for rect, got in zip(rects, warm):
        assert got == _wrapped_verdict(rect), rect
    kinds = Counter(v if isinstance(v, str) else "accepted" for v in warm)
    assert kinds["accepted"] > 1000
    assert kinds[_NOT_INT_CORNERS] > 50 and kinds[_NOT_PERMUTATIONS] > 50


def test_each_index_value_is_one_shared_fraction():
    rng = random.Random(36)
    G = random_grid(6, rng)
    seen = {}
    for _ in range(20):
        x = tuple(rng.sample(range(G.n), G.n))
        for r in rectangles_from(G, x):
            mu = maslov_index(from_rectangle(r))
            assert (mu == 1) == r.empty
            assert seen.setdefault(mu, mu) is mu
    assert Fraction(1) in seen and len(seen) > 1


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
    with_valid = 0
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
            if flips:
                assert flips == {True, False}, m
                with_valid += 1
    assert with_valid >= 8


def test_each_domain_looks_up_its_table_once(monkeypatch):
    # Validation looks the table up once: a rectangle's domain in the shape
    # memo, and any other domain has _count_facts derive its facts.  The
    # index functions read the facts the domain keeps, so one domain costs
    # one lookup however much it is read.  Every shape of the grid's n is
    # in the memo first, so no lookup derives an anchored shape on the way.
    rng = random.Random(45)
    derived = []
    real = domains._count_facts

    def spy(m):
        derived.append(m)
        return real(m)

    monkeypatch.setattr(domains, "_count_facts", spy)

    def lookups():
        info = domains._rectangle_shape.cache_info()
        return info.hits + info.misses, len(derived)

    for _ in range(40):
        G = random_grid(rng.randint(2, 6), rng)
        for shape in itertools.product(range(G.n), repeat=4):
            domains._rectangle_shape(G.n, *shape)
        shapes, tables = lookups()
        x = tuple(rng.sample(range(G.n), G.n))
        for r in rectangles_from(G, x):
            D = from_rectangle(r)
            shapes += 1
            maslov_index(D)
            total_N(D)
            euler_measure(D)
            point_multiplicity(D, r.c1, r.r1)
            vertex_multiplicity(D, (r.c2, r.r2))
            assert lookups() == (shapes, tables)
        zero = GridDomain(r.target, r.target, ((0,) * G.n,) * G.n)
        D = add_domains(from_rectangle(r), zero)
        shapes += 1
        tables += 2
        maslov_index(D)
        assert lookups() == (shapes, tables)


def _assert_translated_facts_are_derived(n, c1, r1, w, h):
    m, facts = domains._rectangle_shape(n, c1, r1, w, h)
    assert m == tuple(
        tuple(int((c - c1) % n < w and (r - r1) % n < h) for r in range(n))
        for c in range(n)
    ), (n, c1, r1, w, h)
    derived = domains._count_facts(m)
    assert facts.four_n == derived.four_n, (n, c1, r1, w, h)
    assert facts.cells == derived.cells, (n, c1, r1, w, h)
    # A rectangle's boundary moves one point in each of its two side
    # columns, and moves touch distinct columns, so their order does not
    # matter.
    assert derived.moves is not None, (n, c1, r1, w, h)
    assert sorted(facts.moves) == sorted(derived.moves), (n, c1, r1, w, h)
    implied = {}
    for c, s, t in facts.moves:
        implied[c, s] = -1
        implied[c, t] = 1
    assert domains._defects(m) == implied, (n, c1, r1, w, h)


def test_translated_facts_equal_derived_facts():
    # A shape's facts are the anchored shape's facts moved along the torus;
    # they must be what the shape's own table implies.  Every shape, width
    # or height 0 included, for n = 2..6, and a sample for n = 7..11.
    for n in range(2, 7):
        for c1, r1, w, h in itertools.product(range(n), repeat=4):
            _assert_translated_facts_are_derived(n, c1, r1, w, h)
    rng = random.Random(46)
    for n in range(7, 12):
        for _ in range(300):
            _assert_translated_facts_are_derived(n, *(rng.randrange(n) for _ in range(4)))


def test_verify_derives_facts_once_per_anchored_shape(monkeypatch):
    # Facts are derived once per (n, width, height), for the shape anchored
    # at (0, 0), and moved to each of the n^2 anchors, so a run at n = 7
    # derives at most (n - 1)^2 tables.
    derived = []
    real = domains._count_facts

    def spy(m):
        derived.append(m)
        return real(m)

    try:
        domains._rectangle_shape.cache_clear()
        monkeypatch.setattr(domains, "_count_facts", spy)
        assert all(r.passed for r in run_checks(TWIST7))
        assert 0 < len(derived) <= (TWIST7.n - 1) ** 2
    finally:
        domains._rectangle_shape.cache_clear()


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
    # rectangles: 12,100 shapes, each with its own table and marking counts,
    # more than either per-shape memo keeps.
    n = 11
    G = random_grid(n, random.Random(44))
    shapes = set()
    try:
        for a in range(1, n):
            for b in range(n):
                x = tuple((a * c + b) % n for c in range(n))
                for r in rectangles_from(G, x):
                    shapes.add((r.c1, r.r1, r.width, r.height))
                    D = from_rectangle(r)
                    assert (maslov_index(D) == 1) == r.empty
                    # The same table from outside derives its own facts.
                    outside = GridDomain(x, r.target, D.multiplicities)
                    assert maslov_index(outside) == maslov_index(D)
        assert len(shapes) == n * n * (n - 1) ** 2
        for memo in (domains._rectangle_shape, chain._marking_counts):
            info = memo.cache_info()
            assert info.maxsize == chain._MEMO_SIZE < len(shapes)
            assert info.currsize <= chain._MEMO_SIZE
    finally:
        domains._rectangle_shape.cache_clear()
        chain._marking_counts.cache_clear()
