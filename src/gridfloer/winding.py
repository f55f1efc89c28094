"""Classical Alexander polynomial of a knot grid via winding numbers.

This route never touches the chain complex: it builds the matrix whose
(c, r) entry is q raised to the winding number of the link around the
lattice point (c, r), takes its determinant by fraction-free (Bareiss)
elimination over Z[q], and divides by (1 - q)^(n-1).  It exists to
cross-check the homological computation, so it deliberately shares no
machinery with it beyond the grid type and the one-variable polynomial
helpers.  Its cost is polynomial in n: O(n^3) products of polynomials of
degree O(n^2).
"""

from __future__ import annotations

from .errors import NotAKnot, NotDivisible
from .grid import GridDiagram, link_summary
from .laurent import divide_by_one_minus_var, symmetric_normalized

__all__ = ["winding_matrix", "winding_determinant", "alexander_via_determinant"]

# Polynomials in q as coefficient lists, lowest degree first, with no
# trailing zeros; the zero polynomial is the empty list.
Poly = list[int]


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


def _monomial(e: int) -> Poly:
    return [0] * e + [1]


def _mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _sub(a: Poly, b: Poly) -> Poly:
    out = a + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    while out and not out[-1]:
        out.pop()
    return out


def _div_exact(a: Poly, b: Poly) -> Poly:
    """a / b in Z[q] for a nonzero b; raises NotDivisible on a remainder."""
    if not a:
        return []
    rem = list(a)
    lead = b[-1]
    top = len(b) - 1
    quot = [0] * (len(a) - top)
    for k in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[k + top], lead)
        if r:
            raise NotDivisible("inexact division in the Bareiss elimination")
        if c:
            quot[k] = c
            for j, y in enumerate(b, k):
                rem[j] -= c * y
    if any(rem[:top]):
        raise NotDivisible("remainder in the Bareiss elimination")
    return quot


def winding_determinant(G: GridDiagram) -> dict[int, int]:
    """det(q^{w[c][r]}) as exponent -> coefficient, before any division.

    Each matrix row c is divided by q^(min_r w[c][r]) so every entry is a
    polynomial, the determinant of that matrix is taken by Bareiss
    fraction-free elimination (every division exact, so coefficients stay
    integers), and the result is multiplied back by q^(sum of the row
    minima).  A zero pivot is swapped with a lower row; the sign comes from
    the parity of the final row order.
    """
    w = winding_matrix(G)
    n = G.n
    shifts = [min(row) for row in w]
    m = [[_monomial(e - s) for e in row] for row, s in zip(w, shifts)]
    order = list(range(n))
    prev: Poly = [1]
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
                row[j] = _div_exact(
                    _sub(_mul(row[j], pivot), _mul(factor, pivot_row[j])), prev
                )
        prev = pivot
    det = m[n - 1][n - 1]
    sign = -1 if _parity(tuple(order)) else 1
    base = sum(shifts)
    return {base + e: sign * c for e, c in enumerate(det) if c}


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
