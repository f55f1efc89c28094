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
alone: where its boundary fails to close up along the horizontal circles,
the four-cell sum around each lattice point, and the sum of all cells.
``verify`` builds one domain per (generator, rectangle) pair, and each
rectangle shape recurs across many generators, so those facts are worked
out once per distinct table and kept in a memo keyed by the table.  Each
domain looks its table up once, when it is validated, and keeps the facts
for the index.  A domain then costs one O(n^2) hash of its table (tuples
do not cache their hash) plus O(n) work against the generator points,
instead of O(n^2) arithmetic on the table.  ``from_rectangle`` hands back
one shared table per rectangle shape from a second memo.  Both keep at
most 8,192 entries (least recently used out first): room for every
rectangle shape of every grid up to n = 10, n^2 (n - 1)^2 = 8,100 of
them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .chain import Generator, Rectangle
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


# Entries each memo keeps: room for every rectangle shape (n, c1, r1, width,
# height) through n = 10, n^2 (n - 1)^2 = 8,100 of them.
_TABLE_MEMO_SIZE = 8_192
_SHAPE_MEMO_SIZE = 8_192

_Table = tuple[tuple[int, ...], ...]


class _TableFacts(NamedTuple):
    """What a multiplicity table fixes on its own, whatever the generators.

    ``defect[(c, j)]`` is the boundary coefficient the table leaves at
    lattice point (c, j), for the points where it is not zero.
    ``four_n[c][r]`` is 4·n_p at (c, r), the sum of the four cells around
    it.  ``cells`` is the sum of all multiplicities.  Every domain on the
    table shares one instance, so ``defect`` is read only.
    """

    defect: dict[tuple[int, int], int]
    four_n: _Table
    cells: int


@functools.lru_cache(maxsize=_TABLE_MEMO_SIZE)
def _table_facts(m: _Table) -> _TableFacts:
    # The net boundary coefficient on the horizontal segment (c,j)->(c+1,j)
    # is g[c][j] = m[c][j] - m[c][j-1]; at lattice point (c, j) the segments
    # ending and starting there leave g[c-1][j] - g[c][j].  Negative indices
    # wrap around the torus.
    g = [[a - b for a, b in zip(col, col[-1:] + col[:-1])] for col in m]
    defect = {}
    four_n = []
    for c, (here, left) in enumerate(zip(m, m[-1:] + m[:-1])):
        for j, (a, b) in enumerate(zip(g[c - 1], g[c])):
            if a != b:
                defect[c, j] = a - b
        pair = [a + b for a, b in zip(here, left)]
        four_n.append(tuple(a + b for a, b in zip(pair, pair[-1:] + pair[:-1])))
    return _TableFacts(defect, tuple(four_n), sum(map(sum, m)))


def _first_defect(defect: dict, source: Generator, target: Generator) -> str:
    """The mismatch of a rejected domain: its first defect in row-major order."""
    residual = dict(defect)
    for c, (s, t) in enumerate(zip(source, target)):
        residual[c, t] = residual.get((c, t), 0) - 1
        residual[c, s] = residual.get((c, s), 0) + 1
    j, c = min((j, c) for (c, j), d in residual.items() if d)
    return f"boundary defect {residual[c, j]} at lattice point ({c}, {j})"


@dataclass(frozen=True)
class GridDomain:
    """An integer 2-chain with boundary running from ``source`` to ``target``.

    ``multiplicities[c][r]`` is the coefficient of the cell whose lower-left
    lattice corner is (c, r).  Negative coefficients are allowed.  Validated
    on construction: along each horizontal circle the boundary segments must
    begin at points of ``source`` and end at points of ``target``.  The
    table's ``_TableFacts``, looked up once for that, stay on the domain.
    """

    source: Generator
    target: Generator
    multiplicities: _Table
    _facts: _TableFacts = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = tuple(map(tuple, self.multiplicities))
        object.__setattr__(self, "multiplicities", m)
        n = len(self.source)
        rows = list(range(n))
        if sorted(self.source) != rows or sorted(self.target) != rows:
            raise BoundaryMismatch("source and target must be permutations of 0..n-1")
        if list(map(len, m)) != [n] * n:
            raise BoundaryMismatch(f"multiplicity table must be {n}x{n}")
        # The table's defect must be +1 at (c, target[c]) and -1 at
        # (c, source[c]) in each column where the two differ, and 0 elsewhere.
        facts = _table_facts(m)
        object.__setattr__(self, "_facts", facts)
        defect = facts.defect
        moved = 0
        for c, (s, t) in enumerate(zip(self.source, self.target)):
            if s != t:
                moved += 1
                if defect.get((c, t)) != 1 or defect.get((c, s)) != -1:
                    break
        else:
            if len(defect) == 2 * moved:
                return
        raise BoundaryMismatch(_first_defect(defect, self.source, self.target))

    @property
    def n(self) -> int:
        return len(self.source)


@functools.lru_cache(maxsize=_SHAPE_MEMO_SIZE)
def _rectangle_table(n: int, c1: int, r1: int, width: int, height: int) -> _Table:
    inside = tuple(int((r - r1) % n < height) for r in range(n))
    outside = (0,) * n
    return tuple(inside if (c - c1) % n < width else outside for c in range(n))


def from_rectangle(rect: Rectangle) -> GridDomain:
    """The domain of multiplicity one on a rectangle's cells.

    Rectangles of one shape share one table, whatever their generators.
    """
    return GridDomain(
        rect.source,
        rect.target,
        _rectangle_table(rect.n, rect.c1, rect.r1, rect.width, rect.height),
    )


def add_domains(first: GridDomain, second: GridDomain) -> GridDomain:
    """Concatenate domains x -> y and y -> z into a domain x -> z."""
    if first.target != second.source:
        raise BoundaryMismatch("domains do not compose: first.target != second.source")
    n = first.n
    mult = tuple(
        tuple(first.multiplicities[c][r] + second.multiplicities[c][r] for r in range(n))
        for c in range(n)
    )
    return GridDomain(first.source, second.target, mult)


# A cell is a square: four corners, each a quarter right angle.
_CORNERS_PER_CELL = 4


def _four_euler(facts: _TableFacts) -> int:
    """4·e(D): each cell contributes 4·(1 - corners/4) times its multiplicity."""
    return (4 - _CORNERS_PER_CELL) * facts.cells


def _four_total_N(D: GridDomain, facts: _TableFacts) -> int:
    """4·N(D): 4·n_p over the source point and the target point of each column."""
    return sum(col[s] + col[t] for col, s, t in zip(facts.four_n, D.source, D.target))


def euler_measure(D: GridDomain) -> Fraction:
    """Euler measure e(D).

    Additive over cells; a cell is a square carrying four quarter right
    angles, so each contributes 1 - 4/4 and the measure vanishes on every
    grid domain.  Computed, not assumed, so the index formula below reads as
    written.
    """
    return Fraction(_four_euler(D._facts), 4)


def point_multiplicity(D: GridDomain, c: int, r: int) -> Fraction:
    """Average multiplicity n_p of the four cells around lattice point (c, r)."""
    n = D.n
    return Fraction(D._facts.four_n[c % n][r % n], 4)


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
    return Fraction(_four_total_N(D, D._facts), 4)


def maslov_index(D: GridDomain) -> Fraction:
    """Lipshitz index mu(D) = e(D) + N(D).

    Equals 1 exactly for empty rectangles; each generator point inside a
    rectangle raises it by 2 (its four full quadrants enter through both the
    source copy and the target copy).
    """
    facts = D._facts
    return Fraction(_four_euler(facts) + _four_total_N(D, facts), 4)
