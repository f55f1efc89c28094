"""Knot and link invariants derived from the homology."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gridfloer import (
    alexander_polynomial,
    alexander_via_determinant,
    build_report,
    genus,
    hfk_hat,
    homology_ranks,
    is_fibered,
    is_unknot,
    link_summary,
    parse_grids,
    top_alexander_level,
)
from gridfloer.chain import iter_alexander_levels
from gridfloer.errors import NotAKnot

from .helpers import (
    DEEP6,
    FIG8_6,
    HOPF4,
    KNOWN_KNOTS,
    N7_KNOTS,
    TORUS25_7,
    TREFOIL5,
    TWIST7,
    UNKNOT2,
    UNKNOT4,
    connected_sum,
    d_squared_suite,
    mirror,
    oracle_torus_hfk,
    random_knot_grid,
    stabilized,
    torus_grid,
)

GRIDS_DIR = Path(__file__).resolve().parent.parent / "grids"


def test_unknot_grids():
    for G in (UNKNOT2, UNKNOT4):
        assert is_unknot(G)
        assert genus(G) == 0
        assert is_fibered(G)
        assert alexander_polynomial(G) == {0: 1}


def test_trefoil_invariants():
    assert not is_unknot(TREFOIL5)
    assert genus(TREFOIL5) == 1
    assert is_fibered(TREFOIL5)
    assert alexander_polynomial(TREFOIL5) == {1: 1, 0: -1, -1: 1}
    assert hfk_hat(TREFOIL5).as_dict() == {
        (0, Fraction(-1)): 1,
        (1, Fraction(0)): 1,
        (2, Fraction(1)): 1,
    }


def test_figure_eight_invariants():
    assert not is_unknot(FIG8_6)
    assert genus(FIG8_6) == 1
    assert is_fibered(FIG8_6)
    assert alexander_polynomial(FIG8_6) == {1: -1, 0: 3, -1: -1}
    assert hfk_hat(FIG8_6).as_dict() == {
        (-1, Fraction(-1)): 1,
        (0, Fraction(0)): 3,
        (1, Fraction(1)): 1,
    }


def test_torus_2_5_invariants():
    assert genus(TORUS25_7) == 2
    assert is_fibered(TORUS25_7)
    assert alexander_polynomial(TORUS25_7) == {2: 1, 1: -1, 0: 1, -1: -1, -2: 1}
    assert hfk_hat(TORUS25_7).as_dict() == {
        (0, Fraction(-2)): 1,
        (1, Fraction(-1)): 1,
        (2, Fraction(0)): 1,
        (3, Fraction(1)): 1,
        (4, Fraction(2)): 1,
    }


def test_torus_knot_hfk_matches_staircase_oracle():
    # The oracle's mirror convention, pinned on the trefoil without the program.
    assert oracle_torus_hfk(2, 3) == {
        (0, Fraction(-1)): 1,
        (1, Fraction(0)): 1,
        (2, Fraction(1)): 1,
    }
    for p, q in ((2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5)):
        assert hfk_hat(torus_grid(p, q)).as_dict() == oracle_torus_hfk(p, q), (p, q)


def test_twist_knot_is_not_fibered():
    assert genus(TWIST7) == 1
    assert not is_fibered(TWIST7)
    assert alexander_polynomial(TWIST7) == {1: 2, 0: -3, -1: 2}
    assert hfk_hat(TWIST7).as_dict() == {
        (0, Fraction(-1)): 2,
        (1, Fraction(0)): 3,
        (2, Fraction(1)): 2,
    }


def test_hopf_link_peeled_homology():
    ranks = hfk_hat(HOPF4)
    assert ranks.as_dict() == {
        (-1, Fraction(-3, 2)): 1,
        (0, Fraction(-1, 2)): 2,
        (1, Fraction(1, 2)): 1,
    }


def test_knot_only_invariants_reject_links():
    for fn in (genus, is_unknot, is_fibered, alexander_polynomial, build_report):
        with pytest.raises(NotAKnot) as err:
            fn(HOPF4)
        assert "2 components" in str(err.value)


def test_unknot_detection_routes_agree():
    rng = random.Random(61)
    grids = list(KNOWN_KNOTS) + [random_knot_grid(rng.randint(2, 5), rng) for _ in range(25)]
    for G in grids:
        # Total rank 2^(n-1) reads the whole complex, independently of
        # is_unknot, which reads only the top Alexander level.
        by_rank = homology_ranks(G).total_rank() == 2 ** (G.n - 1)
        by_genus = genus(G) == 0
        by_alexander = alexander_polynomial(G) == {0: 1}
        assert is_unknot(G) == by_rank == by_genus
        # Genus zero forces the trivial polynomial; the converse is the
        # classical failure mode of the Alexander polynomial alone.
        if by_genus:
            assert by_alexander


def test_alexander_degree_is_bounded_by_genus():
    rng = random.Random(62)
    grids = list(KNOWN_KNOTS) + [random_knot_grid(rng.randint(3, 6), rng) for _ in range(10)]
    for G in grids:
        poly = alexander_polynomial(G)
        assert max(abs(e) for e in poly) <= genus(G) or poly == {0: 1}


def test_chain_route_matches_determinant_route():
    rng = random.Random(63)
    grids = list(KNOWN_KNOTS) + [random_knot_grid(rng.randint(2, 6), rng) for _ in range(10)]
    for G in grids:
        assert alexander_polynomial(G) == alexander_via_determinant(G)


def test_chain_route_matches_determinant_route_at_n_10_to_12():
    # Stabilization keeps the knot type, and so the polynomial of the base.
    cases = [(TREFOIL5, (10, 11, 12)), (TWIST7, (10, 11, 12)), (FIG8_6, (10, 11))]
    for base, sizes in cases:
        grids = stabilized(base, sizes, random.Random(0xC9))
        assert sorted(grids) == list(sizes)
        want = alexander_via_determinant(base)
        for G in grids.values():
            assert alexander_polynomial(G) == alexander_via_determinant(G) == want, G


def test_build_report_agrees_with_field_functions():
    for G in (TREFOIL5, FIG8_6, TWIST7):
        report = build_report(G)
        assert report.n == G.n
        assert report.components == 1
        assert report.total_rank == homology_ranks(G).total_rank()
        assert report.genus == genus(G)
        assert report.is_unknot == is_unknot(G)
        assert report.is_fibered == is_fibered(G)
        assert dict(report.alexander) == alexander_polynomial(G)
        assert report.poincare.as_dict() == hfk_hat(G).as_dict()


def test_top_down_detection_matches_the_full_report():
    # The field functions rank only the top Alexander levels; build_report
    # ranks every level with A >= 0.  The n = 6 knot has generators up to
    # 2A = 2 but homology only up to A = 0, so its walk must go past empty
    # levels.
    small, big = d_squared_suite()
    corpus = parse_grids((GRIDS_DIR / "corpus.grids").read_text(encoding="utf-8"))
    assert max(two_a for two_a, _ in iter_alexander_levels(DEEP6)) == 2
    grids = [G for G in small + big + tuple(corpus) if link_summary(G).component_count == 1]
    assert len(grids) > 100
    for G in grids + [DEEP6]:
        report = build_report(G)
        assert (genus(G), is_fibered(G), is_unknot(G)) == (
            report.genus,
            report.is_fibered,
            report.is_unknot,
        ), G
    assert top_alexander_level(DEEP6) == (Fraction(0), {0: 1})


def test_report_record_is_json_ready():
    record = build_report(TREFOIL5).to_record()
    rendered = json.loads(json.dumps(record, sort_keys=True))
    assert rendered["n"] == 5
    assert rendered["genus"] == 1
    assert rendered["is_fibered"] is True
    assert rendered["alexander"] == [[-1, 1], [0, -1], [1, 1]]
    assert ["0", "-1"] not in rendered["poincare"]
    assert all(len(term) == 3 for term in rendered["poincare"])


# Connected sums whose hat tables follow from the summands' (math/0209056);
# the two with T(3,4) are not thin, at n = 12.
T34 = torus_grid(3, 4)
SUMS = {
    "trefoil # trefoil": (TREFOIL5, TREFOIL5),
    "trefoil # mirror trefoil": (TREFOIL5, mirror(TREFOIL5)),
    "trefoil # unknot": (TREFOIL5, UNKNOT2),
    "T(3,4) # trefoil": (T34, TREFOIL5),
    "T(3,4) # mirror trefoil": (T34, mirror(TREFOIL5)),
}


def _poly_product(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e, c in a.items():
        for f, d in b.items():
            out[e + f] = out.get(e + f, 0) + c * d
    return {e: c for e, c in out.items() if c}


@pytest.mark.parametrize("A,B", SUMS.values(), ids=SUMS.keys())
def test_hfk_hat_of_a_connected_sum_is_the_product_of_the_summands(A, B):
    S = connected_sum(A, B)
    assert S.n == A.n + B.n
    assert link_summary(S).component_count == 1
    want = alexander_via_determinant(A), alexander_via_determinant(B)
    assert alexander_via_determinant(S) == _poly_product(*want)
    ranks = hfk_hat(S)
    assert ranks == hfk_hat(A) * hfk_hat(B)
    if A == T34:
        assert len({m - s for m, s, _ in ranks.entries}) > 1, "thin"


def test_hfk_hat_of_a_mirror_negates_both_gradings():
    _, big = d_squared_suite()
    suite_n7 = [G for G in big if G.n >= 7 and link_summary(G).component_count == 1]
    assert len(suite_n7) >= 10
    for G in N7_KNOTS + (torus_grid(3, 5),) + tuple(suite_n7):
        want = {(-m, -s): r for m, s, r in hfk_hat(G).entries}
        assert hfk_hat(mirror(G)).as_dict() == want, G
