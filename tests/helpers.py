"""Shared fixtures and independent oracles for the test suite.

The oracles recompute what the package computes, by deliberately different
routes: gradings by literal southwest pair counting over weighted point
sets, rectangles by exhaustive enumeration of all n^4 corner choices,
components by union-find over link segments, homology by a dense
Gaussian elimination pipeline built only on those oracles, the knot
Floer homology of torus knots by a closed form that needs no complex at
all, the winding-number determinant by expansion over permutations,
domain boundaries by the original per-point loop, and the Lipshitz index
by its definition over the four cells at each generator point.  Agreement between a
fast path and its oracle is evidence for both.  Connected sums and mirrors
give exact knot Floer tables above n = 7: the hat homology of K1 # K2 is the
product of the summands' tables, and a mirror's is the knot's under
(m, s) -> (-m, -s) (Ozsvath-Szabo, math/0209056).
"""

from __future__ import annotations

import functools
import itertools
import os
import random
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from gridfloer import (
    GridDiagram,
    GridMove,
    MoveKind,
    apply_move,
    link_summary,
    new_grid,
    random_grid,
    winding_matrix,
)
from gridfloer.errors import BoundaryMismatch

UNKNOT2 = new_grid(2, (1, 0), (0, 1))
UNKNOT4 = new_grid(4, (1, 2, 3, 0), (0, 1, 2, 3))
TREFOIL5 = new_grid(5, (2, 3, 4, 0, 1), (0, 1, 2, 3, 4))
FIG8_6 = new_grid(6, (0, 2, 1, 4, 3, 5), (4, 5, 3, 2, 0, 1))
TORUS25_7 = new_grid(7, (2, 3, 4, 5, 6, 0, 1), (0, 1, 2, 3, 4, 5, 6))
TWIST7 = new_grid(7, (0, 2, 3, 1, 4, 6, 5), (3, 4, 5, 6, 0, 2, 1))
HOPF4 = new_grid(4, (2, 3, 0, 1), (0, 1, 2, 3))
# A knot whose generators reach 2A = 2 but whose homology tops out at A = 0,
# so a walk from the top generator level must go past empty levels.
DEEP6 = new_grid(6, (4, 3, 5, 1, 0, 2), (2, 1, 0, 5, 4, 3))
# An unknot whose generators top out at 2A = 2, far below the sum of the
# column maxima of its 2A weights; its homology sits at A = 0 alone.
UNKNOT12 = new_grid(
    12, (6, 5, 10, 1, 9, 8, 7, 0, 2, 11, 4, 3), (5, 2, 0, 3, 7, 4, 8, 11, 1, 9, 6, 10)
)

# Links with three and four components whose hat homology spans several
# Alexander levels: draws 23 and 15 of random_grid from Random(7) and Random(8).
LINK3_7 = new_grid(7, (6, 5, 4, 3, 2, 0, 1), (2, 0, 6, 1, 4, 5, 3))
LINK4_8 = new_grid(8, (4, 1, 5, 2, 0, 6, 7, 3), (7, 6, 2, 5, 3, 1, 4, 0))

KNOWN_KNOTS = (UNKNOT2, UNKNOT4, TREFOIL5, FIG8_6, TORUS25_7, TWIST7)
KNOWN_GRIDS = KNOWN_KNOTS + (HOPF4,)

def cli_env(base: Mapping[str, str] = os.environ) -> dict[str, str]:
    """A copy of ``base`` with this checkout's src/ first on PYTHONPATH.

    pytest's ``pythonpath`` setting reaches only its own process, so a child
    ``python -m gridfloer`` needs this to import the package uninstalled.
    Existing PYTHONPATH entries are kept after src/.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, base.get("PYTHONPATH"))))
    return {**base, "PYTHONPATH": path}


def random_knot_grid(n: int, rng: random.Random) -> GridDiagram:
    """A random grid, rejected down to single-component diagrams."""
    while True:
        G = random_grid(n, rng)
        if link_summary(G).component_count == 1:
            return G


def stabilized(G: GridDiagram, sizes, rng: random.Random) -> dict[int, GridDiagram]:
    """{n: G stabilized to size n} for each n in sizes, all on one chain of
    stabilizations, each at a column drawn from rng."""
    out = {}
    while G.n < max(sizes):
        G = apply_move(G, GridMove(MoveKind.STABILIZE, rng.randrange(G.n)))
        if G.n in sizes:
            out[G.n] = G
    return out


def connected_sum(A: GridDiagram, B: GridDiagram) -> GridDiagram:
    """K_A # K_B on an (a + b)-grid.

    B's rows and columns go after A's, then the X rows of columns a - 1 and
    a are swapped.  The two new vertical segments cross no horizontal one,
    so this is a band sum along a trivial band.
    """
    a = A.n
    o_rows = A.o_rows + tuple(r + a for r in B.o_rows)
    x_rows = list(A.x_rows + tuple(r + a for r in B.x_rows))
    x_rows[a - 1], x_rows[a] = x_rows[a], x_rows[a - 1]
    return new_grid(a + B.n, o_rows, x_rows)


def mirror(G: GridDiagram) -> GridDiagram:
    """The mirror image: the column order reversed."""
    return new_grid(G.n, G.o_rows[::-1], G.x_rows[::-1])


def all_grids(n: int):
    """Every valid grid of size n: both markings permutations, no shared cell."""
    for o in itertools.permutations(range(n)):
        for x in itertools.permutations(range(n)):
            if all(x[c] != o[c] for c in range(n)):
                yield GridDiagram(n, o, x)


@functools.cache
def d_squared_suite() -> tuple[tuple, tuple]:
    """All valid grids with n <= 4, plus 200 seeded random grids with n in 5..7."""
    small = tuple(G for n in (2, 3, 4) for G in all_grids(n))
    rng = random.Random(0xD57)
    big = tuple(random_grid(rng.choice((5, 6, 7)), rng) for _ in range(200))
    return small, big


# -- grading oracle -----------------------------------------------------------

WeightedPoints = list[tuple[tuple[Fraction, Fraction], Fraction]]


def _southwest_pairs(A: WeightedPoints, B: WeightedPoints) -> Fraction:
    """I(A, B): weighted count of pairs (a, b) with a strictly southwest of b."""
    total = Fraction(0)
    for (ax, ay), ca in A:
        for (bx, by), cb in B:
            if ax < bx and ay < by:
                total += ca * cb
    return total


def _j_pairing(A: WeightedPoints, B: WeightedPoints) -> Fraction:
    return (_southwest_pairs(A, B) + _southwest_pairs(B, A)) / 2


def oracle_bigrading(G: GridDiagram, x) -> tuple[Fraction, Fraction]:
    """(Maslov, Alexander) by the literal pair-counting formulas.

    M(x) = J(x, x) - 2 J(x, O) + J(O, O) + 1 and
    A(x) = J(x - (X + O)/2, X - O) - (n - 1)/2, with generator points at
    integer coordinates, markings at half-integer cell centers, and J
    extended bilinearly to weighted point sets.
    """
    half = Fraction(1, 2)
    one = Fraction(1)
    gen: WeightedPoints = [((Fraction(c), Fraction(r)), one) for c, r in enumerate(x)]
    os_: WeightedPoints = [((c + half, r + half), one) for c, r in enumerate(G.o_rows)]
    xs_: WeightedPoints = [((c + half, r + half), one) for c, r in enumerate(G.x_rows)]
    m = _j_pairing(gen, gen) - 2 * _j_pairing(gen, os_) + _j_pairing(os_, os_) + 1
    first = gen + [(p, -half) for p, _ in xs_] + [(p, -half) for p, _ in os_]
    second = xs_ + [(p, -one) for p, _ in os_]
    a = _j_pairing(first, second) - Fraction(G.n - 1, 2)
    return m, a


# -- rectangle oracle ---------------------------------------------------------

RectKey = tuple[int, int, int, int, tuple[int, ...], tuple[int, ...]]


def rect_key(r) -> RectKey:
    return (r.c1, r.r1, r.c2, r.r2, tuple(r.o_count), tuple(r.x_count))


def oracle_empty_rectangles(G: GridDiagram, x, y) -> set[RectKey]:
    """Empty rectangles from x to y by brute force over all n^4 corner choices.

    A corner choice (c1, r1, c2, r2) qualifies when the two source corners
    are points of x, replacing them by the opposite corners gives exactly y,
    and no generator point has all four of its surrounding cells inside the
    swept region.  Marking counts come from direct cell membership.
    """
    n = G.n
    x = tuple(x)
    y = tuple(y)
    found: set[RectKey] = set()
    for c1, r1, c2, r2 in itertools.product(range(n), repeat=4):
        if c1 == c2 or r1 == r2:
            continue
        if x[c1] != r1 or x[c2] != r2:
            continue
        swapped = list(x)
        swapped[c1], swapped[c2] = r2, r1
        if tuple(swapped) != y:
            continue
        w = (c2 - c1) % n
        h = (r2 - r1) % n
        cells = {((c1 + i) % n, (r1 + j) % n) for i in range(w) for j in range(h)}
        interior = any(
            {
                (pc % n, pr % n),
                ((pc - 1) % n, pr % n),
                (pc % n, (pr - 1) % n),
                ((pc - 1) % n, (pr - 1) % n),
            }
            <= cells
            for pc, pr in enumerate(x)
        )
        if interior:
            continue
        o_vec = tuple(int((c, G.o_rows[c]) in cells) for c in range(n))
        x_vec = tuple(int((c, G.x_rows[c]) in cells) for c in range(n))
        found.add((c1, r1, c2, r2, o_vec, x_vec))
    return found


# -- component oracle ---------------------------------------------------------


def oracle_components(G: GridDiagram) -> int:
    """Component count by union-find over the 2n link segments.

    Each column holds one vertical segment joining its O and X, each row one
    horizontal segment; a column's segment touches the horizontal segments
    of the two rows its markings sit in.
    """
    n = G.n
    parent = list(range(2 * n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for c in range(n):
        for r in (G.o_rows[c], G.x_rows[c]):
            parent[find(c)] = find(n + r)
    return len({find(i) for i in range(2 * n)})


# -- dense homology oracle ----------------------------------------------------


def dense_rank(rows: list[list[int]]) -> int:
    """Gaussian elimination rank over GF(2) on explicit 0/1 row lists."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return 0
    cols = len(mat[0])
    rank = 0
    pivot_row = 0
    for col in range(cols):
        pivot = next((i for i in range(pivot_row, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        for i in range(len(mat)):
            if i != pivot_row and mat[i][col]:
                mat[i] = [a ^ b for a, b in zip(mat[i], mat[pivot_row])]
        rank += 1
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return rank


def oracle_homology(G: GridDiagram) -> dict[tuple[int, Fraction], int]:
    """Bigraded homology ranks from scratch, sharing nothing with the fast path.

    Generators by direct permutation listing, gradings by the J-formula
    oracle, boundary entries by the corner-enumeration oracle (a rectangle
    moves exactly two columns, so only two-column swaps of x can receive a
    nonzero entry), ranks by dense elimination.
    """
    n = G.n
    gens = list(itertools.permutations(range(n)))
    grading = {g: oracle_bigrading(G, g) for g in gens}

    def boundary_targets(x) -> set:
        out = set()
        for c1, c2 in itertools.combinations(range(n), 2):
            y = list(x)
            y[c1], y[c2] = y[c2], y[c1]
            y = tuple(y)
            odd = 0
            for key in oracle_empty_rectangles(G, x, y):
                _, _, _, _, o_vec, x_vec = key
                if not any(o_vec) and not any(x_vec):
                    odd ^= 1
            if odd:
                out.add(y)
        return out

    buckets: dict[tuple[Fraction, Fraction], list] = {}
    for g in gens:
        m, _ = grading[g]
        assert m.denominator == 1, "Maslov gradings must be integers"
        buckets.setdefault(grading[g], []).append(g)
    d = {g: boundary_targets(g) for g in gens}

    ranks: dict[tuple[int, Fraction], int] = {}
    for (m, a), basis in buckets.items():
        below = buckets.get((m - 1, a), [])
        above = buckets.get((m + 1, a), [])
        out_rank = dense_rank([[int(y in d[x]) for y in below] for x in basis]) if below else 0
        in_rank = dense_rank([[int(y in d[x]) for y in basis] for x in above]) if above else 0
        r = len(basis) - out_rank - in_rank
        assert r >= 0, "oracle homology rank must not go negative"
        if r:
            ranks[(int(m), a)] = r
    return ranks


# -- torus-knot oracle --------------------------------------------------------


def torus_grid(p: int, q: int) -> GridDiagram:
    """The (p + q)-grid of the torus knot T(p, q): O_i = i + p mod n, X = identity."""
    n = p + q
    return new_grid(n, tuple((i + p) % n for i in range(n)), tuple(range(n)))


# The knot types of the benchmark's n = 7 workloads.
N7_KNOTS = (
    stabilized(UNKNOT2, (7,), random.Random(0xC9))[7],
    stabilized(FIG8_6, (7,), random.Random(0xC9))[7],
    TWIST7,
    TORUS25_7,
    torus_grid(3, 4),
)


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of integer polynomials (lowest degree first); den is monic."""
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + len(den) - 1]
        quot[k] = c
        for j, d in enumerate(den):
            num[k + j] -= c * d
    assert not any(num), "division must be exact"
    return quot


def _torus_delta(p: int, q: int) -> list[int]:
    """(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), lowest degree first."""

    def t_power_minus_one(e: int) -> list[int]:
        return [-1] + [0] * (e - 1) + [1]

    num = _poly_mul(t_power_minus_one(p * q), t_power_minus_one(1))
    return _poly_div_exact(num, _poly_mul(t_power_minus_one(p), t_power_minus_one(q)))


def oracle_torus_alexander(p: int, q: int) -> dict[int, int]:
    """The Alexander polynomial of T(p, q) from the closed form, centred on t^0."""
    delta = _torus_delta(p, q)
    centre = (len(delta) - 1) // 2
    return {e - centre: c for e, c in enumerate(delta) if c}


def oracle_torus_hfk(p: int, q: int) -> dict[tuple[int, Fraction], int]:
    """HFK-hat of T(p, q) in the grading convention of ``torus_grid``.

    Delta = (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), centred on t^0, has
    coefficients +1, -1, +1, ... at exponents n_0 > n_1 > ... .  A torus knot
    is an L-space knot, so HFK-hat has rank one at each n_k, in Maslov
    grading m_0 = 0, m_2k = m_2k-1 - 1 and m_2k+1 = m_2k - 2(n_2k - n_2k+1) + 1.
    These grids present the mirror of that staircase, (m, s) -> (-m, -s).
    """

    delta = _torus_delta(p, q)
    exps = [e for e in range(len(delta) - 1, -1, -1) if delta[e]]
    assert [delta[e] for e in exps] == [(-1) ** k for k in range(len(exps))], "not a staircase"
    maslov = [0]
    for k in range(1, len(exps)):
        if k % 2:
            maslov.append(maslov[-1] - 2 * (exps[k - 1] - exps[k]) + 1)
        else:
            maslov.append(maslov[-1] - 1)
    centre = (len(delta) - 1) // 2
    return {(-m, Fraction(centre - e)): 1 for m, e in zip(maslov, exps)}


# -- winding determinant oracle -----------------------------------------------


def oracle_determinant(w: list[list[int]]) -> dict[int, int]:
    """det(q^{w[c][r]}) as exponent -> coefficient, by the Leibniz expansion.

    One signed monomial per permutation, the sign from the inversion count.
    """
    n = len(w)
    det: dict[int, int] = {}
    for perm in itertools.permutations(range(n)):
        e = sum(w[c][perm[c]] for c in range(n))
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        det[e] = det.get(e, 0) + (-1 if inversions & 1 else 1)
    return {e: c for e, c in det.items() if c}


def oracle_winding_determinant(G: GridDiagram) -> dict[int, int]:
    """The raw winding determinant of G, before division by (1 - q)^(n-1)."""
    return oracle_determinant(winding_matrix(G))


# -- domain boundary oracle ---------------------------------------------------


def oracle_check_domain(source, target, multiplicities) -> None:
    """The boundary check of a grid domain, one lattice point at a time.

    Raises BoundaryMismatch exactly when ``GridDomain(source, target,
    multiplicities)`` must, with the same message: the first defect in
    row-major order (row j outer, column c inner).
    """
    m = tuple(tuple(col) for col in multiplicities)
    n = len(source)
    if sorted(source) != list(range(n)) or sorted(target) != list(range(n)):
        raise BoundaryMismatch("source and target must be permutations of 0..n-1")
    if len(m) != n or any(len(col) != n for col in m):
        raise BoundaryMismatch(f"multiplicity table must be {n}x{n}")
    for c in range(n):
        for r in range(n):
            if type(m[c][r]) is not int:
                raise BoundaryMismatch(f"multiplicity {m[c][r]!r} at cell ({c}, {r}) is not an int")
    if any(type(p) is not int for p in (*source, *target)):
        raise BoundaryMismatch("source and target must be permutations of 0..n-1")
    src = set(enumerate(source))
    tgt = set(enumerate(target))
    for j in range(n):
        for c in range(n):
            g_left = m[(c - 1) % n][j] - m[(c - 1) % n][(j - 1) % n]
            g_here = m[c][j] - m[c][(j - 1) % n]
            expected = int((c, j) in tgt) - int((c, j) in src)
            if g_left - g_here != expected:
                raise BoundaryMismatch(
                    f"boundary defect {g_left - g_here - expected} at lattice point ({c}, {j})"
                )


# -- Lipshitz index oracle -----------------------------------------------------


def oracle_euler_measure(multiplicities) -> Fraction:
    """e(D): each cell's Euler measure, 1 - (right-angle corners)/4, times its multiplicity."""
    corner = Fraction(1, 4)
    return sum(
        (Fraction(mult) * (1 - 4 * corner) for col in multiplicities for mult in col),
        Fraction(0),
    )


def oracle_point_multiplicity(multiplicities, c: int, r: int) -> Fraction:
    """n_p at lattice point (c, r): the mean of the four cells that meet there."""
    n = len(multiplicities)
    quadrants = [
        multiplicities[c % n][r % n],  # north-east
        multiplicities[(c - 1) % n][r % n],  # north-west
        multiplicities[(c - 1) % n][(r - 1) % n],  # south-west
        multiplicities[c % n][(r - 1) % n],  # south-east
    ]
    return Fraction(sum(quadrants), len(quadrants))


def oracle_maslov_index(source, target, multiplicities) -> Fraction:
    """mu(D) = e(D) + the sum of n_p over the points of source and of target.

    A point that both generators share enters once for each.
    """
    points = list(enumerate(source)) + list(enumerate(target))
    return oracle_euler_measure(multiplicities) + sum(
        (oracle_point_multiplicity(multiplicities, c, r) for c, r in points), Fraction(0)
    )
