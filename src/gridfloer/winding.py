"""Classical Alexander polynomial of a knot grid via winding numbers.

This route never touches the chain complex: it builds the matrix whose
(c, r) entry is q raised to the winding number of the link around the
lattice point (c, r), takes its determinant by fraction-free (Bareiss)
elimination, and divides by (1 - q)^(n-1).  It exists to cross-check the
homological computation, so it deliberately shares no machinery with it
beyond the grid type and the one-variable polynomial helpers.

The elimination runs on integers, not on polynomials: on the matrix
evaluated at q = 2^B, with B large enough that each of the polynomials it
holds reads back from its value (``winding_determinant``).  Its cost is
polynomial in n: O(n^3) products of integers of O(n^3 log n) bits, whose
digits are the O(n^2) coefficients of a polynomial.
"""

from __future__ import annotations

from math import factorial

from .errors import NotAKnot, NotDivisible
from .grid import GridDiagram, link_summary
from .laurent import divide_by_one_minus_var, symmetric_normalized

__all__ = ["winding_matrix", "winding_determinant", "alexander_via_determinant"]


def winding_matrix(G: GridDiagram) -> list[list[int]]:
    """``w[c][r]``: winding number of the oriented link around lattice point (c, r).

    Vertical segments run from O to X; a downward segment strictly to the
    left of a point adds one to its winding number, an upward segment
    subtracts one (counterclockwise positive).  Column by column, w is the
    running sum of the segments crossed.
    """
    n = G.n
    w = [[0] * n for _ in range(n)]
    for c in range(1, n):
        prev = w[c - 1]
        cur = w[c]
        o, x = G.o_rows[c - 1], G.x_rows[c - 1]
        lo, hi = min(o, x), max(o, x)
        sign = 1 if x < o else -1
        for r in range(n):
            cur[r] = prev[r] + (sign if lo < r <= hi else 0)
    return w


def _parity(perm: tuple[int, ...]) -> int:
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return inversions & 1


def winding_determinant(G: GridDiagram) -> dict[int, int]:
    """det(q^{w[c][r]}) as exponent -> coefficient, before any division.

    Each matrix row c is divided by q^(min_r w[c][r]), so every entry is a
    monomial q^e with e >= 0, and the result is multiplied back by
    q^(sum of the row minima).  Every minor of that matrix is a signed sum
    of one monomial per permutation, so its coefficients are at most n! in
    absolute value.  Bareiss fraction-free elimination holds only such
    minors, so it runs on integers: on the matrix at q = 2^B, with
    2^(B-1) > n!.  There a minor is zero exactly when it is the zero
    polynomial, so the same pivots are swapped, and every division stays
    exact, as it is in Z[q].  The determinant's coefficients are then the
    digits of its value in signed base 2^B.  A zero pivot is swapped with a
    lower row; the sign comes from the parity of the final row order.
    """
    w = winding_matrix(G)
    n = G.n
    bits = factorial(n).bit_length() + 1  # B, so that 2^(B-1) > n!
    shifts = [min(row) for row in w]
    m = [[1 << (bits * (e - s)) for e in row] for row, s in zip(w, shifts)]
    order = list(range(n))
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return {}
            m[k], m[swap] = m[swap], m[k]
            order[k], order[swap] = order[swap], order[k]
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = m[i]
            factor = row[k]
            for j in range(k + 1, n):
                row[j], rest = divmod(row[j] * pivot - factor * pivot_row[j], prev)
                if rest:
                    raise NotDivisible("inexact division in the Bareiss elimination")
        prev = pivot
    value = m[n - 1][n - 1]
    sign = -1 if _parity(tuple(order)) else 1
    det = {}
    e = sum(shifts)
    radix, half = 1 << bits, 1 << (bits - 1)
    while value:
        digit = value & (radix - 1)
        if digit >= half:
            digit -= radix
        if digit:
            det[e] = sign * digit
        value = (value - digit) >> bits
        e += 1
    return det


def alexander_via_determinant(G: GridDiagram) -> dict[int, int]:
    """Symmetric-normalized Alexander polynomial, exponent -> coefficient.

    det(q^{w[c][r]}) by fraction-free elimination (``winding_determinant``),
    divided exactly by (1 - q)^(n-1), then shifted to the palindromic
    representative with positive value at 1.  Knots only.
    """
    if link_summary(G).component_count != 1:
        raise NotAKnot("the determinant route is implemented for knots only")
    poly = winding_determinant(G)
    for _ in range(G.n - 1):
        poly = divide_by_one_minus_var(poly)
    return symmetric_normalized(poly)
