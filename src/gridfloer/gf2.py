"""GF(2) linear algebra on int-bitset rows."""

from __future__ import annotations

from typing import Iterable

__all__ = ["gf2_rank"]


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of a matrix given as one int per row, bit k = column k.

    Elimination keeps one pivot row per column, keyed by the row's highest
    set bit, read as ``bit_length()``: each step then clears the top bit
    without building a negated copy of the row, and on the lexicographically
    ordered boundary blocks it fills in far less than pivoting on the lowest
    bit.  Rows are consumed in input order, so the result (and the work
    done) is deterministic for identical input.
    """
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            top = row.bit_length()
            piv = pivots.get(top)
            if piv is None:
                pivots[top] = row
                rank += 1
                break
            row ^= piv
    return rank
