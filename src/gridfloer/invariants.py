"""Link invariants read off the bigraded homology.

Everything here sits on one theorem chain: the homology of the collapsed
grid complex is the link's hat-flavor Floer homology tensored with n - l
copies of the two-dimensional factor V, the top Alexander grading of that
homology is the Seifert genus, rank one there detects fiberedness, and its
graded Euler characteristic is the Alexander polynomial.  Coefficients are
GF(2) throughout, so genus and fiberedness are delivered by the mod-2
versions of those detection theorems.

Three routes read the homology.  Genus, fiberedness and unknot detection
rank only the top Alexander levels (``top_alexander_level``).  The knot
Floer table of a knot, its Alexander polynomial and the knot report rank
the levels with A >= 0 (``knot_hfk_ranks``).  A link's table ranks every
level and divides out the V factors (``homology_ranks`` and ``peel_v``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAKnot
from .grid import GridDiagram, link_summary
from .homology import (
    BigradedRanks,
    homology_ranks,
    knot_hfk_ranks,
    peel_v,
    top_alexander_level,
)
from .laurent import symmetric_normalized

__all__ = [
    "hfk_hat",
    "genus",
    "is_unknot",
    "is_fibered",
    "alexander_polynomial",
    "KnotReport",
    "build_report",
]


def _require_knot(G: GridDiagram, what: str) -> None:
    count = link_summary(G).component_count
    if count != 1:
        raise NotAKnot(f"{what} needs a knot; this grid has {count} components")


def hfk_hat(G: GridDiagram) -> BigradedRanks:
    """Hat-flavor knot (or link) Floer homology ranks, V factors divided out.

    A knot's table comes from its levels A >= 0 alone; a link's from the
    whole collapsed complex.
    """
    components = link_summary(G).component_count
    if components == 1:
        return knot_hfk_ranks(G)
    return peel_v(homology_ranks(G), G.n - components)


def genus(G: GridDiagram) -> int:
    """Seifert genus of a knot: the top Alexander grading carrying homology.

    The V factors never raise A, so the top level of the collapsed homology
    is the top level of the hat homology; only the levels above it are ranked.
    """
    _require_knot(G, "genus")
    top, _ = top_alexander_level(G)
    assert top.denominator == 1, "knot gradings are integers"
    return int(top)


def is_unknot(G: GridDiagram) -> bool:
    """Unknot detection: the knot has genus 0.

    Reads the top Alexander level carrying homology and checks that it is
    A = 0, so it ranks only the levels from the top generator level down to
    that one, not the whole complex.
    """
    _require_knot(G, "unknot detection")
    top, _ = top_alexander_level(G)
    return top == 0


def is_fibered(G: GridDiagram) -> bool:
    """Fiberedness of a knot: rank one at the top Alexander grading.

    Each V factor contributes exactly one generator at the top level, so
    the collapsed rank there equals the hat rank.  This is the mod-2 rank
    statement; it is the standard detection criterion for the coefficients
    used by this package.
    """
    _require_knot(G, "fiberedness")
    _, ranks = top_alexander_level(G)
    return sum(ranks.values()) == 1


def alexander_polynomial(G: GridDiagram) -> dict[int, int]:
    """Alexander polynomial of a knot as exponent -> coefficient.

    Graded Euler characteristic of the knot Floer homology, normalized to
    the palindromic representative with positive value at 1.
    """
    _require_knot(G, "the Alexander polynomial")
    return _alexander_from_ranks(knot_hfk_ranks(G))


def _alexander_from_ranks(ranks: BigradedRanks) -> dict[int, int]:
    chi: dict[int, int] = {}
    for m, s, r in ranks.entries:
        assert s.denominator == 1, "knot gradings are integers"
        e = int(s)
        chi[e] = chi.get(e, 0) + (r if m % 2 == 0 else -r)
    return symmetric_normalized(chi)


@dataclass(frozen=True)
class KnotReport:
    """Every knot invariant this package computes, from one homology run.

    ``alexander`` is the polynomial as sorted (exponent, coefficient) pairs;
    ``total_rank`` is the collapsed homology rank before V peeling, which
    is the knot Floer rank times 2^(n-1).
    """

    n: int
    components: int
    total_rank: int
    poincare: BigradedRanks
    genus: int
    is_unknot: bool
    is_fibered: bool
    alexander: tuple[tuple[int, int], ...]

    def to_record(self) -> dict:
        """JSON-ready dict with every field in plain types."""
        return {
            "n": self.n,
            "components": self.components,
            "total_rank": self.total_rank,
            "genus": self.genus,
            "is_unknot": self.is_unknot,
            "is_fibered": self.is_fibered,
            "alexander": [[e, c] for e, c in self.alexander],
            "poincare": [[m, str(s), c] for m, s, c in self.poincare.entries],
        }


def build_report(G: GridDiagram) -> KnotReport:
    """Compute the knot Floer homology once and derive all knot invariants from it."""
    _require_knot(G, "the knot report")
    hat = knot_hfk_ranks(G)
    top = hat.max_alexander()
    assert top.denominator == 1, "knot gradings are integers"
    alex = _alexander_from_ranks(hat)
    return KnotReport(
        n=G.n,
        components=1,
        total_rank=hat.total_rank() * 2 ** (G.n - 1),
        poincare=hat,
        genus=int(top),
        is_unknot=hat.total_rank() == 1,
        is_fibered=hat.rank_at_alexander(top) == 1,
        alexander=tuple(sorted(alex.items())),
    )
