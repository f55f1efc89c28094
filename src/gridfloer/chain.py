"""Generators, bigradings, rectangles, and the grid chain complex differentials.

A generator for an n-by-n grid is a choice of n lattice points, one on each
vertical and one on each horizontal circle of the torus; we write it as a
permutation tuple ``x`` with ``x[c]`` the row of the point in column c.  All
n! permutations occur.

Two gradings organize the complex.  With I(A, B) the number of pairs
(a, b) in A x B where a is strictly southwest of b, the Maslov grading is

    M(x) = I(x, x) - I(x, O) - I(O, x) + I(O, O) + 1

and the Alexander grading is A(x) = (M_O(x) - M_X(x) - (n - 1)) / 2, where
M_X is the Maslov formula with the X markings in place of the O markings.
M is always an integer; A is an integer for knots and a half-integer in
general, so it is exposed as a ``fractions.Fraction``.

The differentials count empty rectangles: embedded rectangles on the torus
whose lower-left and upper-right corners are points of the source generator,
whose other two corners are points of the target, and whose interior contains
no generator point.  The full complex over GF(2)[U_1..U_n] records, for each
empty rectangle avoiding all X markings, the multiplicity U_c^{O_c(r)} of
each O marking swept; setting every U_c = 0 leaves only rectangles avoiding
the O markings as well, which is the complex whose homology the rest of the
package consumes.

Both differentials come from one kernel, ``_empty_rectangle_sweep``: one
eastward sweep per left column, O(n^2) per generator, yielding every empty
rectangle that avoids the X markings together with whether it also avoids
the O markings.  The full differential keeps all of them and records the O
markings swept; the collapsed one keeps only the O-free ones, as packed
codes.  ``rectangles_from`` builds each rectangle separately, cell by cell,
and serves as the public API and as the independent check on the kernel.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterator

from .errors import GridTooLarge
from .grid import GridDiagram

__all__ = [
    "Generator",
    "generators",
    "generator_count",
    "maslov",
    "alexander",
    "bigrading",
    "Rectangle",
    "rectangles",
    "empty_rectangles",
    "rectangles_from",
    "MinusTerm",
    "minus_differential",
    "tilde_targets",
]

Generator = tuple[int, ...]

# Generators are packed 4 bits per column into a single int for bucket
# storage and dict keys; 16 columns is far beyond what enumeration reaches.
PACK_BITS = 4
MAX_PACKED_N = 16


def _encode(perm: Generator) -> int:
    code = 0
    for c, r in enumerate(perm):
        code |= r << (PACK_BITS * c)
    return code


def _decode(code: int, n: int) -> Generator:
    mask = (1 << PACK_BITS) - 1
    return tuple([(code >> s) & mask for s in range(0, PACK_BITS * n, PACK_BITS)])


def generators(G: GridDiagram) -> Iterator[Generator]:
    """All n! generators in lexicographic order."""
    return itertools.permutations(range(G.n))


def generator_count(G: GridDiagram) -> int:
    return factorial(G.n)


def _check_generator(G: GridDiagram, x: Generator) -> None:
    if len(x) != G.n or sorted(x) != list(range(G.n)):
        raise ValueError(f"{x!r} is not a permutation of 0..{G.n - 1}")


def _pair_constants(G: GridDiagram) -> tuple[int, int]:
    """(I(O,O) + 1, I(O,O) - I(X,X) - (n-1)): the generator-independent parts."""
    n, o, xs = G.n, G.o_rows, G.x_rows
    ioo = sum(1 for c in range(n) for d in range(c + 1, n) if o[c] < o[d])
    ixx = sum(1 for c in range(n) for d in range(c + 1, n) if xs[c] < xs[d])
    return ioo + 1, ioo - ixx - (n - 1)


def _bigrading_raw(
    perm: Generator,
    o_rows: tuple[int, ...],
    x_rows: tuple[int, ...],
    n: int,
    const_m: int,
    const_a: int,
) -> tuple[int, int]:
    """(Maslov, doubled Alexander) for one generator.

    Markings sit at cell centers (c + 1/2, r + 1/2), so a generator point
    (c, pc) is southwest of the marking of column d >= c exactly when
    pc <= row(d), and a marking of column c is southwest of a generator point
    (d, pd) with d > c exactly when row(c) < pd.
    """
    ixx = ixo = iox = ixX = iXx = 0
    for c in range(n):
        pc = perm[c]
        oc = o_rows[c]
        xc = x_rows[c]
        if pc <= oc:
            ixo += 1
        if pc <= xc:
            ixX += 1
        for d in range(c + 1, n):
            pd = perm[d]
            if pc < pd:
                ixx += 1
            if pc <= o_rows[d]:
                ixo += 1
            if oc < pd:
                iox += 1
            if pc <= x_rows[d]:
                ixX += 1
            if xc < pd:
                iXx += 1
    m = ixx - ixo - iox + const_m
    two_a = (ixX + iXx - ixo - iox) + const_a
    return m, two_a


def maslov(G: GridDiagram, x: Generator) -> int:
    """Maslov (homological) grading of a generator."""
    return bigrading(G, x)[0]


def alexander(G: GridDiagram, x: Generator) -> Fraction:
    """Alexander grading; an integer for knots, a half-integer in general."""
    return bigrading(G, x)[1]


def bigrading(G: GridDiagram, x: Generator) -> tuple[int, Fraction]:
    _check_generator(G, x)
    const_m, const_a = _pair_constants(G)
    m, two_a = _bigrading_raw(tuple(x), G.o_rows, G.x_rows, G.n, const_m, const_a)
    return m, Fraction(two_a, 2)


@dataclass(frozen=True)
class Rectangle:
    """An embedded rectangle on the torus connecting two generators.

    The rectangle spans eastward from column c1 to column c2 and northward
    from row r1 to row r2, wrapping around the torus where needed.  Its
    lower-left corner (c1, r1) and upper-right corner (c2, r2) are points of
    ``source``; the other two corners are points of ``target``.  ``o_count``
    and ``x_count`` record, per column, whether that column's marking lies in
    the rectangle (0 or 1); ``empty`` means no generator point of ``source``
    (equally, of ``target``) lies in the open interior.
    """

    source: Generator
    target: Generator
    c1: int
    r1: int
    c2: int
    r2: int
    o_count: tuple[int, ...]
    x_count: tuple[int, ...]
    empty: bool

    @property
    def n(self) -> int:
        return len(self.source)

    @property
    def width(self) -> int:
        return (self.c2 - self.c1) % self.n

    @property
    def height(self) -> int:
        return (self.r2 - self.r1) % self.n

    @property
    def o_total(self) -> int:
        return sum(self.o_count)

    @property
    def x_total(self) -> int:
        return sum(self.x_count)

    def cells(self) -> Iterator[tuple[int, int]]:
        """The (column, row) cells the rectangle covers."""
        n = self.n
        for i in range(self.width):
            for j in range(self.height):
                yield (self.c1 + i) % n, (self.r1 + j) % n


def _build_rectangle(G: GridDiagram, x: Generator, c1: int, c2: int) -> Rectangle:
    n = G.n
    r1, r2 = x[c1], x[c2]
    h = (r2 - r1) % n
    w = (c2 - c1) % n
    empty = True
    for k in range(1, w):
        c = (c1 + k) % n
        if 0 < (x[c] - r1) % n < h:
            empty = False
            break
    o_in = [0] * n
    x_in = [0] * n
    for k in range(w):
        c = (c1 + k) % n
        if (G.o_rows[c] - r1) % n < h:
            o_in[c] = 1
        if (G.x_rows[c] - r1) % n < h:
            x_in[c] = 1
    y = list(x)
    y[c1], y[c2] = r2, r1
    return Rectangle(tuple(x), tuple(y), c1, r1, c2, r2, tuple(o_in), tuple(x_in), empty)


def rectangles(G: GridDiagram, x: Generator, y: Generator) -> list[Rectangle]:
    """The rectangles from x to y, empty or not.

    Nonempty unless x and y agree outside exactly two columns, in which case
    there are two rectangles (the torus complement of one is the other, with
    corners re-paired), returned with the smaller left column first.
    """
    _check_generator(G, x)
    _check_generator(G, y)
    diff = [c for c in range(G.n) if x[c] != y[c]]
    if len(diff) != 2:
        return []
    a, b = diff
    return [_build_rectangle(G, x, a, b), _build_rectangle(G, x, b, a)]


def empty_rectangles(G: GridDiagram, x: Generator, y: Generator) -> list[Rectangle]:
    """The rectangles from x to y with no generator point inside (at most 2)."""
    return [r for r in rectangles(G, x, y) if r.empty]


def rectangles_from(G: GridDiagram, x: Generator) -> Iterator[Rectangle]:
    """Every rectangle with source x, over all ordered column pairs."""
    _check_generator(G, x)
    x = tuple(x)
    for c1 in range(G.n):
        for c2 in range(G.n):
            if c1 != c2:
                yield _build_rectangle(G, x, c1, c2)


@dataclass(frozen=True)
class MinusTerm:
    """One summand of the full differential: target weighted by U_c^{exponents[c]}.

    The variable U_c belongs to the O marking of column c; exponents[c] is 1
    when the rectangle sweeps that marking.  Rectangles meeting an X marking
    contribute nothing and never appear here.
    """

    source: Generator
    target: Generator
    exponents: tuple[int, ...]


def _empty_rectangle_sweep(
    perm: Generator,
    o_rows: tuple[int, ...],
    x_rows: tuple[int, ...],
    n: int,
) -> Iterator[tuple[int, int, bool]]:
    """(c1, c2, o_free) for every empty, X-free rectangle with source perm.

    One eastward sweep per left column c1, O(n^2) per generator.  With
    r1 = perm[c1], three running minima of row offsets (row - r1) % n are
    kept: ``block`` over the generator points of the columns passed so far,
    ``xm`` and ``om`` over the X and O markings of columns c1..c2-1.  The
    rectangle to c2, of height h = (perm[c2] - r1) % n, is empty iff
    h < block, avoids every X iff h <= xm and every O iff h <= om.  A point
    at h == 1 blocks every wider rectangle, and an X at offset 0 lies in
    all of them, so either ends the sweep for c1.
    """
    wrap = tuple(range(n)) * 2
    for c1 in range(n):
        r1 = perm[c1]
        block = xm = om = n
        c = c1
        for c2 in wrap[c1 + 1 : c1 + n]:
            x = (x_rows[c] - r1) % n
            if x < xm:
                if x == 0:
                    break
                xm = x
            o = (o_rows[c] - r1) % n
            if o < om:
                om = o
            h = (perm[c2] - r1) % n
            if h < block:
                if h <= xm:
                    yield c1, c2, h <= om
                if h == 1:
                    break
                block = h
            c = c2


def _minus_terms_from(
    perm: Generator,
    o_rows: tuple[int, ...],
    x_rows: tuple[int, ...],
    n: int,
) -> list[tuple[Generator, tuple[int, ...]]]:
    """(target, exponents) of every empty, X-free rectangle from perm.

    Exponents are computed only for rectangles that sweep an O marking.
    Targets are plain tuples, so any n works.
    """
    zero = (0,) * n
    out = []
    for c1, c2, o_free in _empty_rectangle_sweep(perm, o_rows, x_rows, n):
        r1, r2 = perm[c1], perm[c2]
        y = list(perm)
        y[c1], y[c2] = r2, r1
        if o_free:
            out.append((tuple(y), zero))
            continue
        h = (r2 - r1) % n
        exps = [0] * n
        for k in range((c2 - c1) % n):
            c = (c1 + k) % n
            if (o_rows[c] - r1) % n < h:
                exps[c] = 1
        out.append((tuple(y), tuple(exps)))
    return out


def minus_differential(G: GridDiagram) -> Iterator[MinusTerm]:
    """All terms of the differential over GF(2)[U_1..U_n], source by source.

    Streams in lexicographic source order; each term is one empty rectangle
    avoiding every X marking, with exponents recording the O markings swept.
    One rectangle, one term: when both rectangles between a pair of
    generators qualify with equal exponents, both are streamed and it is the
    consumer's business to cancel them mod 2.
    """
    n, o, xs = G.n, G.o_rows, G.x_rows
    for perm in itertools.permutations(range(n)):
        for target, exps in _minus_terms_from(perm, o, xs, n):
            yield MinusTerm(perm, target, exps)


def _tilde_target_codes(
    perm: Generator,
    code: int,
    o_rows: tuple[int, ...],
    x_rows: tuple[int, ...],
    n: int,
) -> list[int]:
    """Packed codes of the marking-free empty-rectangle targets from perm.

    Keeps the O-free rectangles of the sweep; each target code is derived
    from the source code by swapping two nibbles, with no tuple per term.
    """
    out = []
    for c1, c2, o_free in _empty_rectangle_sweep(perm, o_rows, x_rows, n):
        if o_free:
            d = perm[c2] - perm[c1]
            out.append(code + (d << (PACK_BITS * c1)) - (d << (PACK_BITS * c2)))
    return out


def tilde_targets(G: GridDiagram, x: Generator) -> list[Generator]:
    """Targets of the differential with all U_c set to 0, from generator x.

    Counts empty rectangles containing no marking at all, mod 2: when both
    rectangles between x and some y qualify (possible on the torus), the two
    contributions cancel and y is not listed.  Sorted lexicographically.
    """
    _check_generator(G, x)
    x = tuple(x)
    hits: set[int] = set()
    for c in _tilde_target_codes(x, _encode(x), G.o_rows, G.x_rows, G.n):
        hits ^= {c}
    return sorted(_decode(c, G.n) for c in hits)


# -- bucketed enumeration ----------------------------------------------------


def iter_alexander_levels(G: GridDiagram) -> Iterator[tuple[int, dict[int, array]]]:
    """Yield (doubled Alexander grading, {Maslov: packed generator codes}).

    Levels come in increasing Alexander order; within a level, codes are in
    lexicographic generator order.  All n! generators are enumerated once
    and bucketed at 8 bytes each, far less than what homology builds per
    level from them.  Codes pack 4 bits per column, so grids above 16
    columns raise GridTooLarge.
    """
    if G.n > MAX_PACKED_N:
        raise GridTooLarge(f"grid size {G.n} exceeds the packing limit {MAX_PACKED_N}")
    n, o, xs = G.n, G.o_rows, G.x_rows
    const_m, const_a = _pair_constants(G)
    buckets: dict[int, dict[int, array]] = {}
    for perm in itertools.permutations(range(n)):
        m, two_a = _bigrading_raw(perm, o, xs, n, const_m, const_a)
        buckets.setdefault(two_a, {}).setdefault(m, array("Q")).append(_encode(perm))
    for two_a in sorted(buckets):
        yield two_a, buckets[two_a]
