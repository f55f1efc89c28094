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
them from its validation on, for the index.

One validator, ``_validated(source, target, table, facts)``, accepts or
refuses every domain.  It accepts when the source is a permutation of
the ints 0..n-1 and the target is the source with each of the table's
boundary moves made; such a target is a permutation too, since the
defects of each row sum to zero, so only the source is sorted.  Anything
else raises one ``BoundaryMismatch``, worded by ``_refusal``, which
names the first fault in this order: points that are no permutation of
0..n-1, a table that is not n-by-n, an entry that is not an int (a
float or a bool sums like one, but is no 2-chain), a point that is not
an int, and the first boundary defect in row-major order.

``GridDomain`` copies its table into tuples; a table that is not an
n-by-n table of ints is refused there, by ``_refusal``, and any other
has ``_count_facts`` derive the facts the validator checks against.
``add_domains`` builds its sum through ``GridDomain``.  ``verify`` builds
one domain per (generator, rectangle) pair, and each rectangle shape
recurs across many generators, so ``from_rectangle`` hashes no table:
``_rectangle_shape``, keyed by (n, c1, r1, width, height) with width =
(c2 - c1) mod n and height = (r2 - r1) mod n, hands back the shape's
table, an n-by-n tuple of int tuples, with its facts, and the validator
checks the points against them.  The four corners must be ints before
the lookup, since 2.0 and True key the memo as 2 and 1 do: a rectangle
with a corner that is not an int is refused, after any fault of its
points, with "rectangle corners c1, r1, c2 and r2 must be ints".  An
anchor (c1, r1) outside 0..n-1 is taken mod n when its shape is built,
so it gets the table and facts of the anchor it wraps to.

A shape's facts are not read off its own table.  Every rectangle shape of
one (n, width, height) is the one anchored at (c1, r1) = (0, 0) moved along
the torus, so the anchored shape has ``_count_facts`` derive its facts and
every other shape looks the anchored shape up in the same memo and moves
them: lattice points shift by (c1, r1) mod n, the four-cell sums turn by
c1 columns and r1 rows, and the sum of the cells stays.  ``_count_facts``
is still the only code that reads facts off a table, so the index stays
what the table implies.  Where a boundary fails to close up is worked
out from the table only when a domain is refused, to word the refusal;
no shape keeps it.

Validating a rectangle's domain is O(n): one sort of the source, a type
check of its 2n points and one pass over the moves.  ``maslov_index``
sums 4·mu in one pass over the columns.  Each value of 4·mu comes back
as one shared ``Fraction`` from a second memo, as building one costs
about as much as the index itself.  Both memos keep at most
``chain._MEMO_SIZE`` = 8,192 entries (least recently used out first):
room for every rectangle shape of every grid up to n = 10,
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


def _refusal(source: Generator, target: Generator, m: _Table | None) -> str:
    """Why source, target and the table m make no domain: the first fault
    found, in this order.  Points that are no permutation of 0..n-1, a
    table that is not n-by-n, an entry that is not an int, a point that is
    not an int, then the first boundary defect in row-major order.  m is
    None for a rectangle with a corner that is not an int, which has no
    table; that fault comes after the points'."""
    n = len(source)
    rows = list(range(n))
    if sorted(source) != rows or sorted(target) != rows:
        return _NOT_PERMUTATIONS
    if m is not None:
        if list(map(len, m)) != [n] * n:
            return f"multiplicity table must be {n}x{n}"
        for c, col in enumerate(m):
            for r, v in enumerate(col):
                if type(v) is not int:
                    return f"multiplicity {v!r} at cell ({c}, {r}) is not an int"
    # 1.0 and True sort like 1, but only an int indexes the table.
    if {*map(type, source), *map(type, target)} - _INT:
        return _NOT_PERMUTATIONS
    if m is None:
        return "rectangle corners c1, r1, c2 and r2 must be ints"
    residual = _defects(m)
    for c, (s, t) in enumerate(zip(source, target)):
        residual[c, t] = residual.get((c, t), 0) - 1
        residual[c, s] = residual.get((c, s), 0) + 1
    j, c = min((j, c) for (c, j), d in residual.items() if d)
    return f"boundary defect {residual[c, j]} at lattice point ({c}, {j})"


def _validated(
    source: Generator, target: Generator, m: _Table, facts: _TableFacts
) -> _TableFacts:
    """``facts``, once the boundary of their n-by-n table of ints m is
    checked to run from source, a permutation of the ints 0..n-1, to target.

    The target must be the source with each of the table's ``moves`` made.
    Only the source is sorted: a target that passes is a permutation too,
    since on the torus the defects of each row sum to zero, so every row
    holds as many target points as source points, one.  Anything else
    raises ``BoundaryMismatch`` with ``_refusal``'s message.
    """
    if (
        facts.moves is not None
        and {*map(type, source), *map(type, target)} <= _INT
        and sorted(source) == list(range(len(source)))
    ):
        expected = [*source]
        for c, s, t in facts.moves:
            if expected[c] != s:
                break
            expected[c] = t
        else:
            if expected == [*target]:
                return facts
    raise BoundaryMismatch(_refusal(source, target, m))


@dataclass(frozen=True)
class GridDomain:
    """An integer 2-chain with boundary running from ``source`` to ``target``.

    ``multiplicities[c][r]`` is the coefficient of the cell whose lower-left
    lattice corner is (c, r).  Negative coefficients are allowed.  Validated
    on construction: ``source`` and ``target`` must be permutations of the
    ints 0..n-1, the table n-by-n, every multiplicity an int (a float or a
    bool sums like one, but is no 2-chain), and along each horizontal
    circle the boundary segments must begin at points of ``source`` and end
    at points of ``target``.  The table's ``_TableFacts``, derived once for
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
        if list(map(len, m)) != [n] * n or {type(v) for col in m for v in col} - _INT:
            raise BoundaryMismatch(_refusal(self.source, self.target, m))
        facts = _validated(self.source, self.target, m, _count_facts(m))
        object.__setattr__(self, "_facts", facts)

    @property
    def n(self) -> int:
        return len(self.source)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _rectangle_shape(
    n: int, c1: int, r1: int, width: int, height: int
) -> tuple[_Table, _TableFacts]:
    """The table of the rectangle shape and its facts, kept per shape.

    The table has multiplicity one on the shape's cells and zero elsewhere:
    every column is one shared inside column or one shared outside column,
    anchored at row and column 0 and turned r1 rows and c1 columns along
    the torus, so any int anchor names its shape mod n.  The shape
    anchored at (0, 0) derives its facts from its table.  Every other
    shape's facts are those moved alike: ``moves`` shift by (c1, r1) mod n,
    ``four_n`` turns by c1 columns and each of its columns by r1 rows, and
    the sum of the cells stays.
    """
    c1, r1 = c1 % n, r1 % n
    inside = (1,) * height + (0,) * (n - height)
    columns = (inside[-r1:] + inside[:-r1],) * width + ((0,) * n,) * (n - width)
    m = columns[-c1:] + columns[:-c1]
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

    Validated as ``GridDomain`` validates the same table, which rectangles
    of one shape share with its facts, whatever their generators.  The
    shape is keyed by (n, c1, r1, width, height), so its corners must be
    ints first: 2.0 and True key the memo as 2 and 1 do.
    """
    source, target, c1, r1 = rect.source, rect.target, rect.c1, rect.r1
    if not type(c1) is type(r1) is type(rect.c2) is type(rect.r2) is int:
        raise BoundaryMismatch(_refusal(source, target, None))
    n = len(source)
    m, facts = _rectangle_shape(n, c1, r1, (rect.c2 - c1) % n, (rect.r2 - r1) % n)
    facts = _validated(source, target, m, facts)
    D = object.__new__(GridDomain)
    # A frozen dataclass refuses setattr; its __init__ goes around that too.
    D.__dict__.update(source=source, target=target, multiplicities=m, _facts=facts)
    return D


def add_domains(first: GridDomain, second: GridDomain) -> GridDomain:
    """Concatenate domains x -> y and y -> z into a domain x -> z."""
    if first.target != second.source:
        raise BoundaryMismatch("domains do not compose: first.target != second.source")
    mult = [
        [a + b for a, b in zip(*cols)]
        for cols in zip(first.multiplicities, second.multiplicities)
    ]
    return GridDomain(first.source, second.target, mult)


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
