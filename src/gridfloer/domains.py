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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class GridDomain:
    """An integer 2-chain with boundary running from ``source`` to ``target``.

    ``multiplicities[c][r]`` is the coefficient of the cell whose lower-left
    lattice corner is (c, r).  Negative coefficients are allowed.  Validated
    on construction: along each horizontal circle the boundary segments must
    begin at points of ``source`` and end at points of ``target``.
    """

    source: Generator
    target: Generator
    multiplicities: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "multiplicities", tuple(tuple(col) for col in self.multiplicities)
        )
        n = len(self.source)
        if sorted(self.source) != list(range(n)) or sorted(self.target) != list(range(n)):
            raise BoundaryMismatch("source and target must be permutations of 0..n-1")
        m = self.multiplicities
        if len(m) != n or any(len(col) != n for col in m):
            raise BoundaryMismatch(f"multiplicity table must be {n}x{n}")
        # Net boundary coefficient on the horizontal segment (c,j)->(c+1,j) is
        # g[c][j] = m[c][j] - m[c][j-1]; at each lattice point (c, j) the
        # segments ending and starting there, g[c-1][j] - g[c][j], must
        # account for exactly the generator points, target positive and
        # source negative.  Negative indices wrap around the torus.
        g = [[a - b for a, b in zip(col, col[-1:] + col[:-1])] for col in m]
        defect = [[a - b for a, b in zip(g[c - 1], g[c])] for c in range(n)]
        for c in range(n):
            defect[c][self.target[c]] -= 1
            defect[c][self.source[c]] += 1
        if any(any(col) for col in defect):
            j, c = min((j, c) for c in range(n) for j in range(n) if defect[c][j])
            raise BoundaryMismatch(f"boundary defect {defect[c][j]} at lattice point ({c}, {j})")

    @property
    def n(self) -> int:
        return len(self.source)


def from_rectangle(rect: Rectangle) -> GridDomain:
    """The domain of multiplicity one on a rectangle's cells."""
    n = rect.n
    rows = {(rect.r1 + j) % n for j in range(rect.height)}
    inside = tuple(int(r in rows) for r in range(n))
    outside = (0,) * n
    cols = {(rect.c1 + i) % n for i in range(rect.width)}
    return GridDomain(
        rect.source, rect.target, tuple(inside if c in cols else outside for c in range(n))
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


def _four_euler(D: GridDomain) -> int:
    """4·e(D): each cell contributes 4·(1 - corners/4) times its multiplicity."""
    return (4 - _CORNERS_PER_CELL) * sum(map(sum, D.multiplicities))


def _four_n(m: tuple[tuple[int, ...], ...], n: int, c: int, r: int) -> int:
    """4·n_p: the sum of the four cell multiplicities around lattice point (c, r)."""
    here, left = m[c % n], m[(c - 1) % n]
    r %= n
    return here[r] + left[r] + here[r - 1] + left[r - 1]


def _four_total_N(D: GridDomain) -> int:
    m, n = D.multiplicities, D.n
    return sum(_four_n(m, n, c, r) for c, r in enumerate(D.source)) + sum(
        _four_n(m, n, c, r) for c, r in enumerate(D.target)
    )


def euler_measure(D: GridDomain) -> Fraction:
    """Euler measure e(D).

    Additive over cells; a cell is a square carrying four quarter right
    angles, so each contributes 1 - 4/4 and the measure vanishes on every
    grid domain.  Computed, not assumed, so the index formula below reads as
    written.
    """
    return Fraction(_four_euler(D), 4)


def point_multiplicity(D: GridDomain, c: int, r: int) -> Fraction:
    """Average multiplicity n_p of the four cells around lattice point (c, r)."""
    return Fraction(_four_n(D.multiplicities, D.n, c, r), 4)


def vertex_multiplicity(D: GridDomain, point: tuple[int, int]) -> Fraction:
    """n_p for a point p of the source or target generator.

    Only generator points enter the index formula; asking for any other
    lattice point raises PointNotCorner.
    """
    c, r = point
    if (c, r) not in set(enumerate(D.source)) and (c, r) not in set(enumerate(D.target)):
        raise PointNotCorner(f"({c}, {r}) is not a point of either generator")
    return point_multiplicity(D, c, r)


def total_N(D: GridDomain) -> Fraction:
    """Total vertex multiplicity: n_p summed over the 2n source and target points.

    Points shared by both generators count twice, once per generator.
    """
    return Fraction(_four_total_N(D), 4)


def maslov_index(D: GridDomain) -> Fraction:
    """Lipshitz index mu(D) = e(D) + N(D).

    Equals 1 exactly for empty rectangles; each generator point inside a
    rectangle raises it by 2 (its four full quadrants enter through both the
    source copy and the target copy).
    """
    return Fraction(_four_euler(D) + _four_total_N(D), 4)
