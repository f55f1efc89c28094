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

Every pair that involves a marking involves one generator point only, so
both gradings are sums of per-point weights plus constants:
2A(x) = sum_c wa[c][x[c]] + const and
M(x) = #{c < d : x[c] < x[d]} + sum_c wm[c][x[c]] + const.
``_point_weights`` fills the two n-by-n weight tables and both constants
in one O(n^2) pass, and it is the only code that counts markings.
``_grading_tables`` shifts them by one maximum-weight assignment, so that
every 2A weight is <= 0 and the constant is the exact top, and keeps the
result per grid in a bounded memo.  It is the one source of grading
tables: grading a single generator (``bigrading`` is called once per
generator), every walk and ``verify`` read it, so each grid's tables are
filled and its assignment solved once.  The enumeration carries both
gradings along a depth-first search over the columns on those weights, so
grading costs O(1) amortized per generator, and it cuts off every partial
generator whose 2A weights already sum below a floor.  It also keeps, per
walk, a dict ``dead`` keyed by the bitmask of the rows a prefix uses: the
largest partial 2A weight at which the search below such a prefix reached
no generator.  A later prefix with the same rows and no more weight is
skipped.  The skip is exact, because the columns still to fill and the
rows free for them depend on that row set alone.

The differentials count empty rectangles: embedded rectangles on the torus
whose lower-left and upper-right corners are points of the source generator,
whose other two corners are points of the target, and whose interior contains
no generator point.  The full complex over GF(2)[U_1..U_n] records, for each
empty rectangle avoiding all X markings, the multiplicity U_c^{O_c(r)} of
each O marking swept; setting every U_c = 0 leaves only rectangles avoiding
the O markings as well, which is the complex whose homology the rest of the
package consumes.

Both differentials come from one kernel, ``_empty_rectangle_sweep``: one
eastward sweep per left column, O(n^2) per generator, yielding the column
pair (c1, c2) of every empty rectangle that avoids the markings its table
stops at.  Where those markings cut the sweep from a point depends on the
grid and that point only, not on the rest of the generator, so it is kept
in a per-grid ``_SweepTable``: an n-by-n table of step lists, each filled
on the first sweep from its point, one stop offset per step.  A walk over
many generators builds one table and passes it down, so the kernel itself
tracks only the generator's own points.  The full differential sweeps a
table that stops only at X markings.  The collapsed one sweeps a collapsed
table, which treats every O as an X, so the kernel yields only the
marking-free rectangles and its sweeps end at the first marking of either
kind.  ``tilde_targets`` answers one generator at a time, so it reads the
grid's collapsed table from a per-grid memo, ``_collapsed_table``: a
caller that asks for every generator fills one table.
``rectangles_from`` builds each rectangle separately, cell by cell, and
serves as the public API and as the independent check on the kernel.
The markings a rectangle covers depend on the grid and its shape only, so
``_marking_counts`` counts them once per shape and keeps them in a bounded
memo; the full differential takes each term's exponents, the O markings
its rectangle sweeps, from that memo as well.

Generators are permutation tuples throughout, from the enumeration to the
boundary rows, so only the cost, factorial in n, limits the grid size.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields
from fractions import Fraction
from math import factorial, inf
from typing import Iterator

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
# (wm, wa, const_m, const_a), as ``_grading_tables`` shares them.
GradingTables = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], int, int]

# Entries each per-shape memo keeps, here and in ``domains``: room for every
# rectangle shape (c1, r1, width, height) of an n-by-n grid through n = 10,
# n^2 (n - 1)^2 = 8,100 of them.
_MEMO_SIZE = 8_192
# Grids whose grading tables ``_grading_tables`` and whose collapsed sweep
# tables ``_collapsed_table`` keep, a few KB each at n = 10.
_GRID_MEMO_SIZE = 256


def generators(G: GridDiagram) -> Iterator[Generator]:
    """All n! generators in lexicographic order."""
    return itertools.permutations(range(G.n))


def generator_count(G: GridDiagram) -> int:
    return factorial(G.n)


def _check_generator(G: GridDiagram, x: Generator) -> None:
    if len(x) != G.n or any(type(r) is not int for r in x) or sorted(x) != list(range(G.n)):
        raise ValueError(f"{x!r} is not a permutation of 0..{G.n - 1}")


def _point_weights(G: GridDiagram) -> tuple[list[list[int]], list[list[int]], int, int]:
    """(wm, wa, const_m, const_a): the per-point weights and constants of M and 2A.

    wm[c][r] and wa[c][r] are what the point (c, r) adds to M and to 2A
    through the markings.  Markings sit at cell centers (c + 1/2, r + 1/2),
    so the point is southwest of the marking of column d >= c exactly when
    r <= row(d), and the marking of column d < c is southwest of it exactly
    when row(d) < r.  Each such pair with an O costs one in M and in 2A;
    each with an X adds one to 2A.  The rows of each marking kind are a
    permutation, so n - r markings sit at rows >= r; with k of them in
    columns d < c, the pairs number (n - r - k) + (c - k).

    Columns are filled left to right in O(n^2), keeping k for every row.
    Read at the row of column c's own marking, k also says that c - k
    earlier markings of that kind lie below it, which sums I(O, O) and
    I(X, X) for the constants I(O, O) + 1 and I(O, O) - I(X, X) - (n - 1).
    """
    n = G.n
    k_o, k_x = [0] * n, [0] * n
    wm, wa = [], []
    ioo = ixx = 0
    for c, (o, x) in enumerate(zip(G.o_rows, G.x_rows)):
        wm.append([2 * k_o[r] - (n - r + c) for r in range(n)])
        wa.append([2 * (k_o[r] - k_x[r]) for r in range(n)])
        ioo += c - k_o[o]
        ixx += c - k_x[x]
        for r in range(o + 1):
            k_o[r] += 1
        for r in range(x + 1):
            k_x[r] += 1
    return wm, wa, ioo + 1, ioo - ixx - (n - 1)


@functools.lru_cache(maxsize=_GRID_MEMO_SIZE)
def _grading_tables(G: GridDiagram) -> GradingTables:
    """``_point_weights(G)`` on 2A weights <= 0, with const_a the exact top 2A.

    2A(x) - const_a = sum_c wa[c][x[c]] is the weight of an assignment of
    rows to columns, so the top 2A is a maximum-weight assignment.  The
    Hungarian method (Kuhn, 1955) finds one by shortest augmenting paths in
    O(n^3), with potentials u[c] + v[r] >= wa[c][r], equal on the
    assignment; u starts at each column's best weight.  Every generator
    takes each u[c] and v[r] once, so wa - u - v and const_a + sum(u) +
    sum(v) grade it alike.

    Kept per grid as tuples, because every caller shares them: grading one
    generator at a time, each walk and ``verify`` read the same tables.
    """
    wm, wa, const_m, const_a = _point_weights(G)
    n = len(wa)
    u = [max(col) for col in wa]
    v = [0] * (n + 1)  # v[n] belongs to the root of each search
    owner = [-1] * (n + 1)  # the column holding each row; -1 while free
    for c in range(n):
        # Grow a tree of tight edges from column c, Dijkstra-style on the
        # slacks u + v - wa, until it reaches a free row; then flip the path.
        owner[n], r = c, n
        slack, via, done = [inf] * (n + 1), [n] * n, [False] * n + [True]
        while owner[r] >= 0:
            at, col, delta = r, owner[r], inf
            for s in range(n):
                if not done[s]:
                    gap = u[col] + v[s] - wa[col][s]
                    if gap < slack[s]:
                        slack[s], via[s] = gap, at
                    if slack[s] < delta:
                        delta, r = slack[s], s
            for s in range(n + 1):
                if done[s]:
                    u[owner[s]] -= delta
                    v[s] += delta
                else:
                    slack[s] -= delta
            done[r] = True
        while r != n:
            owner[r] = owner[via[r]]
            r = via[r]
    reduced = tuple(
        tuple(w - u[c] - v[r] for r, w in enumerate(col)) for c, col in enumerate(wa)
    )
    return tuple(map(tuple, wm)), reduced, const_m, const_a + sum(u) + sum(v[:n])


def _grade(perm: Generator, tables: GradingTables) -> tuple[int, int]:
    """(Maslov, doubled Alexander) of one generator from ``_grading_tables``, O(n^2).

    M is the count of pairs c < d with perm[c] < perm[d] plus the point
    weights and const_m; 2A is the point weights plus const_a.
    """
    wm, wa, const_m, const_a = tables
    n = len(perm)
    m = const_m + sum(1 for c in range(n) for d in range(c + 1, n) if perm[c] < perm[d])
    m += sum(wm[c][r] for c, r in enumerate(perm))
    return m, const_a + sum(wa[c][r] for c, r in enumerate(perm))


def maslov(G: GridDiagram, x: Generator) -> int:
    """Maslov (homological) grading of a generator."""
    return bigrading(G, x)[0]


def alexander(G: GridDiagram, x: Generator) -> Fraction:
    """Alexander grading; an integer for knots, a half-integer in general."""
    return bigrading(G, x)[1]


def bigrading(G: GridDiagram, x: Generator) -> tuple[int, Fraction]:
    _check_generator(G, x)
    m, two_a = _grade(tuple(x), _grading_tables(G))
    return m, Fraction(two_a, 2)


@dataclass(frozen=True, slots=True)
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


# The slot descriptors of Rectangle's fields: setting a slot through its
# descriptor bypasses the frozen __setattr__, as the dataclass __init__ does.
_new_rectangle = object.__new__
(
    _set_source,
    _set_target,
    _set_c1,
    _set_r1,
    _set_c2,
    _set_r2,
    _set_o_count,
    _set_x_count,
    _set_empty,
) = (Rectangle.__dict__[f.name].__set__ for f in fields(Rectangle))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _marking_counts(
    o_rows: tuple[int, ...], x_rows: tuple[int, ...], c1: int, r1: int, w: int, h: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(o_count, x_count) of the rectangle of width w and height h at (c1, r1).

    They depend on the grid and the shape only, not on the generators, and a
    shape recurs across many generators, so they are counted once per shape.
    ``rectangles_from`` and the full differential's terms both read them.
    """
    n = len(o_rows)
    o_in = [0] * n
    x_in = [0] * n
    for k in range(w):
        c = (c1 + k) % n
        if (o_rows[c] - r1) % n < h:
            o_in[c] = 1
        if (x_rows[c] - r1) % n < h:
            x_in[c] = 1
    return tuple(o_in), tuple(x_in)


def _build_rectangle(G: GridDiagram, x: Generator, c1: int, c2: int) -> Rectangle:
    """The rectangle from the tuple x with corners in columns c1 and c2; x is kept, not copied."""
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
    o_in, x_in = _marking_counts(G.o_rows, G.x_rows, c1, r1, w, h)
    y = list(x)
    y[c1], y[c2] = r2, r1
    # Rectangle(...) as through its __init__, less its nine object.__setattr__ calls.
    rect = _new_rectangle(Rectangle)
    _set_source(rect, x)
    _set_target(rect, tuple(y))
    _set_c1(rect, c1)
    _set_r1(rect, r1)
    _set_c2(rect, c2)
    _set_r2(rect, r2)
    _set_o_count(rect, o_in)
    _set_x_count(rect, x_in)
    _set_empty(rect, empty)
    return rect


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
    x = tuple(x)
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


class _SweepTable:
    """The generator-free part of ``_empty_rectangle_sweep`` for one grid.

    ``steps[c1][r1]`` is None until a generator with a point at (c1, r1) is
    swept, then the sweep's steps from that point: a tuple of (c2, stop) for
    c2 = c1 + 1, c1 + 2, ... (mod n), where stop is the least offset
    (row - r1) % n of the X markings of columns c1..c2-1.  The steps end
    before the first column whose X sits on row r1, since that X lies in
    every wider rectangle.

    A ``collapsed`` table, for the complex with every U_c set to 0, treats
    each O as an X: stop is the least offset over both kinds, and the steps
    end before the first column with an X or an O on row r1.  So every
    rectangle the kernel yields from it avoids every marking, and the sweeps
    stop as soon as no wider rectangle can.

    A walk over many generators of one grid builds one table and passes it
    down; each entry costs O(n) once.  It is filled lazily because all n^2
    entries cost O(n^3), more than a detection walk that sweeps only a few
    generators spends in the kernel.
    """

    __slots__ = ("n", "o_rows", "x_rows", "collapsed", "steps")

    def __init__(self, G: GridDiagram, collapsed: bool = False):
        self.n, self.o_rows, self.x_rows = G.n, G.o_rows, G.x_rows
        self.collapsed = collapsed
        self.steps: list[list[tuple[tuple[int, int], ...] | None]] = [
            [None] * G.n for _ in range(G.n)
        ]

    def fill(self, c1: int, r1: int) -> tuple[tuple[int, int], ...]:
        """Compute, store and return ``steps[c1][r1]``."""
        n, o_rows, x_rows, collapsed = self.n, self.o_rows, self.x_rows, self.collapsed
        out = []
        stop = n
        for c in range(c1, c1 + n - 1):
            c %= n
            x = (x_rows[c] - r1) % n
            if collapsed:
                o = (o_rows[c] - r1) % n
                if o < x:
                    x = o
            if x == 0:
                break
            if x < stop:
                stop = x
            out.append(((c + 1) % n, stop))
        steps = self.steps[c1][r1] = tuple(out)
        return steps


def _empty_rectangle_sweep(perm: Generator, table: _SweepTable) -> Iterator[tuple[int, int]]:
    """(c1, c2) of every empty rectangle with source perm that the table lets through.

    From an X-only table those are the rectangles that avoid every X; from
    a collapsed one, those that avoid every marking.  One eastward sweep per
    left column c1, O(n^2) per generator.  With r1 = perm[c1], the marking
    offsets the sweep needs depend only on (c1, r1), so they come from the
    grid's ``_SweepTable``, filled on first use.  Per step the sweep keeps
    only ``block``, the least offset (row - r1) % n over the generator
    points of the columns passed so far, and the height
    h = (perm[c2] - r1) % n of the rectangle to c2.  That rectangle is empty
    iff h < block and avoids the table's markings iff h <= stop.  A point at
    h == 1 blocks every wider rectangle, so it ends the sweep for c1, as the
    table's steps end at a marking at offset 0.
    """
    n, rows = table.n, table.steps
    for c1, r1 in enumerate(perm):
        steps = rows[c1][r1]
        if steps is None:
            steps = table.fill(c1, r1)
        block = n
        for c2, stop in steps:
            h = (perm[c2] - r1) % n
            if h < block:
                if h <= stop:
                    yield c1, c2
                if h == 1:
                    break
                block = h


def _minus_terms_from(
    perm: Generator, table: _SweepTable
) -> list[tuple[Generator, tuple[int, ...]]]:
    """(target, exponents) of every empty, X-free rectangle from perm.

    ``table`` is an X-only ``_SweepTable``.  The exponents are the O half of
    the rectangle's ``_marking_counts``, the per-shape memo that
    ``rectangles_from`` reads too.  Targets are plain tuples, so any n works.
    """
    n, o_rows, x_rows = table.n, table.o_rows, table.x_rows
    out = []
    for c1, c2 in _empty_rectangle_sweep(perm, table):
        r1, r2 = perm[c1], perm[c2]
        y = list(perm)
        y[c1], y[c2] = r2, r1
        exps, _ = _marking_counts(o_rows, x_rows, c1, r1, (c2 - c1) % n, (r2 - r1) % n)
        out.append((tuple(y), exps))
    return out


def minus_differential(G: GridDiagram) -> Iterator[MinusTerm]:
    """All terms of the differential over GF(2)[U_1..U_n], source by source.

    Streams in lexicographic source order; each term is one empty rectangle
    avoiding every X marking, with exponents recording the O markings swept.
    One rectangle, one term: when both rectangles between a pair of
    generators qualify with equal exponents, both are streamed and it is the
    consumer's business to cancel them mod 2.
    """
    table = _SweepTable(G)
    for perm in generators(G):
        for target, exps in _minus_terms_from(perm, table):
            yield MinusTerm(perm, target, exps)


def _tilde_target_codes(perm: Generator, table: _SweepTable) -> list[Generator]:
    """Targets, as generator tuples, of the marking-free empty rectangles from perm.

    ``table`` is a collapsed ``_SweepTable``, so every rectangle of the sweep
    is marking-free and gives one target: perm with the rows of the two
    corner columns swapped.  A target both rectangles reach is listed twice.
    """
    out = []
    for c1, c2 in _empty_rectangle_sweep(perm, table):
        y = list(perm)
        y[c1], y[c2] = y[c2], y[c1]
        out.append(tuple(y))
    return out


@functools.lru_cache(maxsize=_GRID_MEMO_SIZE)
def _collapsed_table(G: GridDiagram) -> _SweepTable:
    """The grid's collapsed ``_SweepTable``, shared by every ``tilde_targets``
    call on it: a caller that asks generator by generator fills it once."""
    return _SweepTable(G, collapsed=True)


def tilde_targets(G: GridDiagram, x: Generator) -> list[Generator]:
    """Targets of the differential with all U_c set to 0, from generator x.

    Counts empty rectangles containing no marking at all, mod 2: when both
    rectangles between x and some y qualify (possible on the torus), the two
    contributions cancel and y is not listed.  Sorted lexicographically.
    """
    _check_generator(G, x)
    x = tuple(x)
    hits: set[Generator] = set()
    for y in _tilde_target_codes(x, _collapsed_table(G)):
        hits ^= {y}
    return sorted(hits)


# -- bucketed enumeration ----------------------------------------------------


def iter_alexander_levels(
    G: GridDiagram, min_two_a: int | None = None
) -> Iterator[tuple[int, dict[int, list[Generator]]]]:
    """Yield (doubled Alexander grading, {Maslov: generators}).

    Levels come in increasing Alexander order; within a level, generators
    are in lexicographic order.  ``min_two_a`` keeps only the levels with
    2A >= min_two_a; None keeps all n!.  The weights are the grid's
    ``_grading_tables``, built and solved once per grid.

    A depth-first search fixes columns left to right, trying rows in
    increasing order, so generators come in lexicographic order.  M and 2A
    are carried along: placing row r in column c adds the weights wm[c][r]
    and wa[c][r] and, to M, one for each earlier column with a lower row.
    The reduced 2A weights are <= 0, so a partial generator whose weights
    sum below min_two_a - const_a cannot recover and is cut off.

    The cut alone keeps prefixes whose every completion falls below the
    floor.  ``dead`` maps the bitmask ``used`` of a prefix's rows to the
    largest partial 2A weight at which the search below such a prefix
    reached no generator, and the search skips a later prefix with the same
    rows and no more weight.  That is exact: the columns left to fill
    (``used.bit_count()`` onward) and the rows free for them depend on
    ``used`` alone, so a prefix with those rows and no more weight has no
    completion either, and skipping it changes neither the generators nor
    their order.  Without a floor every prefix completes and ``dead`` stays
    empty.
    """
    n = G.n
    wm, wa, const_m, top = _grading_tables(G)
    # With no floor given, the lowest column weights let every generator through.
    floor = sum(map(min, wa)) if min_two_a is None else min_two_a - top
    buckets: dict[int, dict[int, list[Generator]]] = {}
    rows = range(n)
    full = (1 << n) - 1
    wm_last, wa_last = wm[n - 1], wa[n - 1]
    perm = [0] * n  # the rows placed so far, filled in place by the search
    dead: dict[int, int] = {}

    def place(c: int, used: int, m: int, two_a: int) -> bool:
        """Place columns c.. below the prefix; True if a generator was reached."""
        row_m, row_a = wm[c], wa[c]
        found = False
        for r in rows:
            bit = 1 << r
            if used & bit:
                continue
            a_r = two_a + row_a[r]
            if a_r < floor:
                continue
            perm[c] = r
            m_r = m + row_m[r] + (used & (bit - 1)).bit_count()
            used_r = used | bit
            if c + 2 < n:
                if used_r in dead and a_r <= dead[used_r]:
                    continue
                if place(c + 1, used_r, m_r, a_r):
                    found = True
                else:
                    dead[used_r] = a_r
                continue
            # The last column takes the one row left.
            last = (full ^ used_r).bit_length() - 1
            a_last = a_r + wa_last[last]
            if a_last >= floor:
                found = True
                perm[n - 1] = last
                level = buckets.setdefault(a_last + top, {})
                m_last = m_r + wm_last[last] + (used_r & ((1 << last) - 1)).bit_count()
                level.setdefault(m_last, []).append(tuple(perm))
        return found

    try:
        place(0, 0, const_m, 0)
    finally:
        # place refers to itself through its closure; without this cycle
        # broken, buckets would outlive the walk until a full collection,
        # also when the search runs out of memory.
        del place
    for two_a in sorted(buckets):
        yield two_a, buckets[two_a]
