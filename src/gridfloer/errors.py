"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "GridError",
    "TooSmall",
    "NotAPermutation",
    "SharedCell",
    "GridSyntaxError",
    "IllegalMove",
    "PointNotCorner",
    "BoundaryMismatch",
    "NotAKnot",
    "GridTooLarge",
    "NotDivisible",
]


class GridError(Exception):
    """Base of the errors the CLI reports in-stream for one grid.

    Its subclasses other than ``NotDivisible`` are invalid input, exit 1;
    ``NotDivisible`` is the internal alarm, exit 2.  Not every error of the
    package is one: a library call given a bad generator, rank table, count
    or polynomial raises ``ValueError``, and a walk that finds an
    inconsistent differential raises ``ArithmeticError``.
    """


class TooSmall(GridError):
    """Grid size that is not an integer of at least 2."""


class NotAPermutation(GridError):
    """A marking sequence is not a permutation of 0..n-1."""


class SharedCell(GridError):
    """An O and an X marking occupy the same cell."""


class GridSyntaxError(GridError):
    """Malformed grid text."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class IllegalMove(GridError):
    """A grid move that cannot be applied.

    Its kind is unknown, its position is not an integer, or its
    preconditions fail on this diagram.
    """


class PointNotCorner(GridError):
    """A corner query at a lattice point that is not a corner of the domain."""


class BoundaryMismatch(GridError):
    """A 2-chain whose boundary does not run between the two given generators."""


class NotAKnot(GridError):
    """A knot-only invariant was asked of a multi-component link."""


class GridTooLarge(GridError):
    """Refused by the ``--max-n`` guard before any work: homology cost grows exponentially in n."""


class NotDivisible(GridError):
    """An exact polynomial division failed.

    This is an internal-consistency alarm: for homology computed from a valid
    grid the division is guaranteed to succeed, so seeing this error means a
    bug, not bad input.
    """
