"""Knot and link Floer homology from grid diagrams, entirely combinatorially.

The pipeline: a validated grid diagram (``grid``), its n! generators with
Maslov and Alexander gradings and empty-rectangle differentials (``chain``),
bigraded GF(2) homology with the extra tensor factors peeled off
(``homology``), and the topology read off the result (``invariants``):
unknot detection, Seifert genus, fiberedness, and the Alexander polynomial.
``winding`` recomputes the Alexander polynomial by a determinant that never
touches the complex, ``domains`` carries the Lipshitz index theory behind
the differential, and ``moves`` provides the equivalences every invariant
must survive.
"""

from .chain import (
    Generator,
    MinusTerm,
    Rectangle,
    alexander,
    bigrading,
    empty_rectangles,
    generator_count,
    generators,
    maslov,
    minus_differential,
    rectangles,
    rectangles_from,
    tilde_targets,
)
from .domains import (
    GridDomain,
    add_domains,
    euler_measure,
    from_rectangle,
    maslov_index,
    point_multiplicity,
    total_N,
    vertex_multiplicity,
)
from .errors import (
    BoundaryMismatch,
    GridError,
    GridSyntaxError,
    GridTooLarge,
    IllegalMove,
    NotAKnot,
    NotAPermutation,
    NotDivisible,
    PointNotCorner,
    SharedCell,
    TooSmall,
)
from .grid import (
    GridDiagram,
    LinkSummary,
    link_summary,
    new_grid,
    parse_grid,
    parse_grids,
    random_grid,
    serialize_grid,
    successor_permutation,
)
from .homology import (
    BigradedRanks,
    homology_ranks,
    knot_hfk_ranks,
    peel_v,
    top_alexander_level,
)
from .invariants import (
    KnotReport,
    alexander_polynomial,
    build_report,
    genus,
    hfk_hat,
    is_fibered,
    is_unknot,
)
from .laurent import laurent_string
from .moves import GridMove, MoveKind, apply_move, legal_moves
from .verify import CheckResult, run_checks
from .winding import alexander_via_determinant, winding_matrix

__version__ = "0.1.0"

__all__ = [
    "Generator",
    "MinusTerm",
    "Rectangle",
    "alexander",
    "bigrading",
    "empty_rectangles",
    "generator_count",
    "generators",
    "maslov",
    "minus_differential",
    "rectangles",
    "rectangles_from",
    "tilde_targets",
    "GridDomain",
    "add_domains",
    "euler_measure",
    "from_rectangle",
    "maslov_index",
    "point_multiplicity",
    "total_N",
    "vertex_multiplicity",
    "BoundaryMismatch",
    "GridError",
    "GridSyntaxError",
    "GridTooLarge",
    "IllegalMove",
    "NotAKnot",
    "NotAPermutation",
    "NotDivisible",
    "PointNotCorner",
    "SharedCell",
    "TooSmall",
    "GridDiagram",
    "LinkSummary",
    "link_summary",
    "new_grid",
    "parse_grid",
    "parse_grids",
    "random_grid",
    "serialize_grid",
    "successor_permutation",
    "BigradedRanks",
    "homology_ranks",
    "knot_hfk_ranks",
    "peel_v",
    "top_alexander_level",
    "KnotReport",
    "alexander_polynomial",
    "build_report",
    "genus",
    "hfk_hat",
    "is_fibered",
    "is_unknot",
    "laurent_string",
    "GridMove",
    "MoveKind",
    "apply_move",
    "legal_moves",
    "CheckResult",
    "run_checks",
    "alexander_via_determinant",
    "winding_matrix",
    "__version__",
]
