"""Bigraded GF(2) homology of the grid complex, and rank bookkeeping.

The differential preserves the Alexander grading and drops Maslov by one, so
the complex splits into independent blocks: for each Alexander level s and
Maslov level m there is a boundary matrix C(m, s) -> C(m-1, s) over GF(2),
and the homology rank at (m, s) is dim C(m, s) minus the ranks of the two
adjacent matrices.  ``homology_ranks`` ranks every level;
``top_alexander_level`` ranks from the top down and stops at the first
level with homology, which is all that genus, fiberedness and unknot
detection read.

The homology of the fully collapsed complex is not yet the link invariant:
it carries n - l extra tensor factors V (l the number of link components),
each V contributing one generator in bidegree (0, 0) and one in (-1, -1).
One division, ``_divide_v``, takes them back out from the top Alexander
level down, and it serves both callers.  ``peel_v`` divides a whole rank
polynomial, exactly.  ``hfk_hat`` needs only the levels with 2A >= 1 - l:
V never raises A, so the division stops there, and the symmetry of link
Floer homology under (m, s) -> (m - 2s - (l - 1), -s - (l - 1)) gives the
rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping

from .chain import (
    Generator,
    _SweepTable,
    _grading_tables,
    _tilde_target_codes,
    iter_alexander_levels,
)
from .errors import NotDivisible
from .gf2 import gf2_rank
from .grid import GridDiagram, link_summary

__all__ = [
    "BigradedRanks",
    "hfk_hat",
    "homology_ranks",
    "peel_v",
    "top_alexander_level",
]


def _as_fraction(s) -> Fraction:
    f = Fraction(s)
    if f.denominator not in (1, 2):
        raise ValueError(f"Alexander gradings are half-integers, got {s!r}")
    return f


@dataclass(frozen=True)
class BigradedRanks:
    """Ranks of a bigraded GF(2) vector space, read as a rank polynomial.

    ``entries`` holds (maslov, alexander, rank) triples with positive rank,
    sorted by (alexander, maslov): the polynomial sum of rank * t^maslov *
    q^alexander.  Alexander values are Fractions with denominator 1 or 2.
    """

    entries: tuple[tuple[int, Fraction, int], ...]

    @classmethod
    def from_dict(cls, d: Mapping[tuple[int, object], int]) -> "BigradedRanks":
        items = []
        for (m, s), r in d.items():
            if r < 0:
                raise ValueError(f"negative rank {r} at ({m}, {s})")
            if r:
                items.append((int(m), _as_fraction(s), int(r)))
        items.sort(key=lambda t: (t[1], t[0]))
        return cls(tuple(items))

    @classmethod
    def v_factor(cls) -> "BigradedRanks":
        """The rank polynomial 1 + t^-1 q^-1 of one V tensor factor."""
        return cls.from_dict({(0, 0): 1, (-1, -1): 1})

    def as_dict(self) -> dict[tuple[int, Fraction], int]:
        return {(m, s): r for m, s, r in self.entries}

    def rank(self, m: int, s) -> int:
        return self.as_dict().get((int(m), _as_fraction(s)), 0)

    def total_rank(self) -> int:
        return sum(r for _, _, r in self.entries)

    def alexander_support(self) -> tuple[Fraction, ...]:
        return tuple(sorted({s for _, s, _ in self.entries}))

    def max_alexander(self) -> Fraction:
        if not self.entries:
            raise ValueError("empty homology has no top Alexander grading")
        return max(s for _, s, _ in self.entries)

    def rank_at_alexander(self, s) -> int:
        s = _as_fraction(s)
        return sum(r for _, t, r in self.entries if t == s)

    def __mul__(self, other: "BigradedRanks") -> "BigradedRanks":
        """Tensor product: the product of the two rank polynomials."""
        out: dict[tuple[int, Fraction], int] = {}
        for m1, s1, r1 in self.entries:
            for m2, s2, r2 in other.entries:
                key = (m1 + m2, s1 + s2)
                out[key] = out.get(key, 0) + r1 * r2
        return BigradedRanks.from_dict(out)

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        parts = []
        for m, s, r in self.entries:
            pieces = []
            if r != 1 or (m == 0 and s == 0):
                pieces.append(str(r))
            if m:
                pieces.append(f"t^{m}")
            if s:
                pieces.append(f"q^{s}")
            parts.append("*".join(pieces))
        return " + ".join(parts)


def _level_ranks(
    table: _SweepTable, two_a: int, levels: Mapping[int, list[Generator]]
) -> dict[int, int]:
    """{Maslov: rank} of the nonzero homology of one Alexander level.

    The boundary block out of Maslov level m has one row per source at m:
    its mod-2 boundary as an int bitset over the lexicographic index of the
    generators at m - 1.  ``table`` is the grid's collapsed sweep table,
    shared by every level of one walk.  The rank at m is dim C(m) minus the
    ranks of the blocks out of m and into m.
    """
    boundary_rank = {}
    for m, sources in levels.items():
        lower = {y: i for i, y in enumerate(levels.get(m - 1, ()))}
        rows = []
        for x in sources:
            mask = 0
            for y in _tilde_target_codes(x, table):
                mask ^= 1 << lower[y]
            rows.append(mask)
        boundary_rank[m] = gf2_rank(rows)
    ranks = {}
    for m, gens in levels.items():
        h = len(gens) - boundary_rank.get(m, 0) - boundary_rank.get(m + 1, 0)
        if h < 0:
            s = Fraction(two_a, 2)
            raise ArithmeticError(f"negative rank at ({m}, {s}); differential inconsistent")
        if h:
            ranks[m] = h
    return ranks


def homology_ranks(G: GridDiagram) -> BigradedRanks:
    """Bigraded homology ranks of the fully collapsed complex.

    Ranks one Alexander level at a time: within a level, per-Maslov bases
    are indexed in lexicographic order, boundary rows are built as int
    bitsets, and only ranks survive the level.  The generators are not
    streamed: ``iter_alexander_levels`` buckets every level before it
    yields the first, so all n! are held at once.
    """
    table = _SweepTable(G, collapsed=True)
    ranks: dict[tuple[int, Fraction], int] = {}
    for two_a, levels in iter_alexander_levels(G):
        s = Fraction(two_a, 2)
        for m, h in _level_ranks(table, two_a, levels).items():
            ranks[(m, s)] = h
    return BigradedRanks.from_dict(ranks)


def _divide_v(
    tilde: Mapping[int, Mapping[int, int]], count: int, stop: int
) -> dict[tuple[int, Fraction], int]:
    """{(m, s): H(m, s)} with tilde = H * (1 + t^-1 q^-1) ** count, on levels 2A >= stop.

    ``tilde`` maps 2A to {Maslov: rank}.  One factor pairs (m, s) with
    (m - 1, s - 1), so tilde(m, s) = sum over j of C(count, j) H(m + j, s + j):
    with the levels above s known, H(m, s) is tilde(m, s) minus the terms
    j >= 1.  Levels are divided from the top down to 2A = stop, one 2A at a
    time, so both parities of 2A are covered.  A negative H raises
    NotDivisible.
    """
    weights = [comb(count, j) for j in range(1, count + 1)]
    quotient: dict[tuple[int, Fraction], int] = {}
    owed: dict[int, dict[int, int]] = {}  # 2A -> {m: the terms j >= 1 found so far}
    for two_a in range(max(tilde, default=stop), stop - 1, -1):
        ranks, above = tilde.get(two_a, {}), owed.pop(two_a, {})
        s = Fraction(two_a, 2)
        for m in ranks.keys() | above.keys():
            h = ranks.get(m, 0) - above.get(m, 0)
            if h < 0:
                raise NotDivisible(f"negative quotient {h} at (m, s) = ({m}, {s})")
            if not h:
                continue
            quotient[(m, s)] = h
            for j, weight in enumerate(weights, 1):
                below = owed.setdefault(two_a - 2 * j, {})
                below[m - j] = below.get(m - j, 0) + weight * h
    return quotient


def hfk_hat(G: GridDiagram) -> BigradedRanks:
    """Hat-flavor knot (or link) Floer homology, from the levels 2A >= 1 - l only.

    For an l-component link the collapsed ranks are the hat ranks times
    (1 + t^-1 q^-1) ** (n - l), and V never raises A, so ``_divide_v`` finds
    the hat ranks on the levels 2A >= 1 - l from those levels alone.  Each
    H(m, s) there is mirrored to (m - 2s - (l - 1), -s - (l - 1)), the
    symmetry of link Floer homology about s = -(l - 1)/2.  A negative H
    raises NotDivisible.
    """
    shift = link_summary(G).component_count - 1
    table = _SweepTable(G, collapsed=True)
    tilde = {
        two_a: _level_ranks(table, two_a, levels)
        for two_a, levels in iter_alexander_levels(G, -shift)
    }
    hat: dict[tuple[int, Fraction], int] = {}
    for (m, s), h in _divide_v(tilde, G.n - 1 - shift, -shift).items():
        hat[(m, s)] = hat[(m - int(2 * s) - shift, -s - shift)] = h
    if not hat:
        raise ArithmeticError("link Floer homology is zero; differential inconsistent")
    return BigradedRanks.from_dict(hat)


def top_alexander_level(G: GridDiagram) -> tuple[Fraction, dict[int, int]]:
    """(s, {Maslov: rank}) at the highest Alexander level s with nonzero homology.

    The differential preserves A, so levels are ranked one at a time, each
    once, from the exact top generator level, the constant of the grid's
    ``_grading_tables``, and the walk stops at the first with homology.
    Each round lowers the floor on 2A by 2 and ranks the lowest level
    enumerated if it is the floor.
    For an l-component link the walk returns by 2A = 1 - l, the center of
    the symmetric hat homology; it gives up at the lowest 2A possible.
    """
    table = _SweepTable(G, collapsed=True)
    _, wa, _, top = _grading_tables(G)
    for floor in range(top, top + sum(map(min, wa)) - 1, -2):
        two_a, levels = next(iter_alexander_levels(G, floor))
        if two_a == floor:
            ranks = _level_ranks(table, two_a, levels)
            if ranks:
                return Fraction(two_a, 2), ranks
    raise ArithmeticError("collapsed homology is zero; differential inconsistent")


def peel_v(poly: BigradedRanks, count: int) -> BigradedRanks:
    """Divide a rank polynomial by (1 + t^-1 q^-1) ** count, exactly.

    ``_divide_v`` runs to one level below the table's lowest 2A (of either
    parity), where the table is zero but every nonzero quotient within
    ``count`` levels of the bottom owes a positive term.  So a remainder
    shows as a negative quotient and raises NotDivisible.  For homology of
    a valid grid that cannot happen, so callers treat it as an internal
    alarm, not an input error.
    """
    if type(count) is not int:
        raise ValueError(f"count must be an int, got {count!r}")
    if count < 0:
        raise ValueError("count must be >= 0")
    tilde: dict[int, dict[int, int]] = {}
    for (m, s), r in poly.as_dict().items():
        tilde.setdefault(int(2 * s), {})[m] = r
    return BigradedRanks.from_dict(_divide_v(tilde, count, min(tilde, default=0) - 2))
