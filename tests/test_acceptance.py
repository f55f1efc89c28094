"""The ten acceptance checks: exact small-instance values plus property sweeps.

One criterion per test, so `pytest -v` reports one pass or fail line for
each.  Stated runtime budgets are asserted with wall-clock measurements.
"""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from gridfloer import (
    GridMove,
    MoveKind,
    alexander_polynomial,
    alexander_via_determinant,
    apply_move,
    bigrading,
    from_rectangle,
    genus,
    hfk_hat,
    homology_ranks,
    is_fibered,
    is_unknot,
    legal_moves,
    maslov_index,
    minus_differential,
    random_grid,
    rectangles,
    tilde_targets,
)

from .helpers import (
    FIG8_6,
    TREFOIL5,
    UNKNOT2,
    cli_env,
    d_squared_suite,
    oracle_empty_rectangles,
    random_knot_grid,
    rect_key,
)

GRIDS_DIR = Path(__file__).resolve().parent.parent / "grids"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "gridfloer", *args],
        capture_output=True,
        env=cli_env(),
        timeout=540,
    )


def _minus_by_source(G) -> dict:
    outs = defaultdict(list)
    for t in minus_differential(G):
        outs[t.source].append((t.target, t.exponents))
    return outs


def _tilde_d_squared_vanishes(G) -> bool:
    targets = {}
    for x in itertools.permutations(range(G.n)):
        targets[x] = tilde_targets(G, x)
    for x, ys in targets.items():
        odd: set = set()
        for y in ys:
            for z in targets[y]:
                odd ^= {z}
        if odd:
            return False
    return True


def _minus_d_squared_vanishes(G) -> bool:
    outs = _minus_by_source(G)
    for terms in outs.values():
        odd: set = set()
        for y, e1 in terms:
            for z, e2 in outs.get(y, ()):
                odd ^= {(z, tuple(a + b for a, b in zip(e1, e2)))}
        if odd:
            return False
    return True


def test_criterion_01_unknot_baseline():
    start = time.monotonic()
    ranks = homology_ranks(UNKNOT2)
    assert ranks.total_rank() == 2
    assert ranks.as_dict() == {(0, Fraction(0)): 1, (-1, Fraction(-1)): 1}
    done = run_cli("unknot", str(GRIDS_DIR / "unknot2.grid"))
    assert done.returncode == 0
    assert done.stdout == b"unknot: true\n"
    assert time.monotonic() - start < 1.0


def test_criterion_02_trefoil_exact_values():
    start = time.monotonic()
    assert homology_ranks(TREFOIL5).total_rank() == 48
    ranks = hfk_hat(TREFOIL5)
    assert ranks.alexander_support() == (Fraction(-1), Fraction(0), Fraction(1))
    for s in (-1, 0, 1):
        assert ranks.rank_at_alexander(s) == 1
    assert genus(TREFOIL5) == 1
    assert is_fibered(TREFOIL5)
    poly = alexander_polynomial(TREFOIL5)
    assert poly == {1: 1, 0: -1, -1: 1}
    assert poly == alexander_via_determinant(TREFOIL5)
    assert time.monotonic() - start < 5.0


def test_criterion_03_figure_eight_exact_values():
    start = time.monotonic()
    poly = alexander_polynomial(FIG8_6)
    assert poly == {1: -1, 0: 3, -1: -1}
    assert poly == alexander_via_determinant(FIG8_6)
    assert genus(FIG8_6) == 1
    assert is_fibered(FIG8_6)
    assert time.monotonic() - start < 30.0


def test_criterion_04_d_squared_vanishes():
    small, big = d_squared_suite()
    assert len(small) == 2 + 12 + 216
    assert len(big) == 200
    for G in small + big:
        assert _tilde_d_squared_vanishes(G), f"tilde d^2 != 0 on {G}"
        assert _minus_d_squared_vanishes(G), f"minus d^2 != 0 on {G}"


def test_criterion_05_index_one_iff_empty_and_corner_oracle():
    rng = random.Random(0xC5)
    for _ in range(100):
        n = rng.randint(2, 6)
        G = random_grid(n, rng)
        if n <= 4:
            pairs = [
                (x, cols)
                for x in itertools.permutations(range(n))
                for cols in itertools.combinations(range(n), 2)
            ]
        else:
            pairs = [
                (tuple(rng.sample(range(n), n)), tuple(rng.sample(range(n), 2)))
                for _ in range(400)
            ]
        for x, (c1, c2) in pairs:
            y = list(x)
            y[c1], y[c2] = y[c2], y[c1]
            y = tuple(y)
            rects = rectangles(G, x, y)
            for r in rects:
                assert (maslov_index(from_rectangle(r)) == 1) == r.empty
            got = {rect_key(r) for r in rects if r.empty}
            assert got == oracle_empty_rectangles(G, x, y)


def test_criterion_06_grading_drop_laws():
    small, big = d_squared_suite()
    for G in small + big:
        grading: dict = {}

        def graded(gen):
            if gen not in grading:
                grading[gen] = bigrading(G, gen)
            return grading[gen]

        for term in minus_differential(G):
            swept = sum(term.exponents)
            m_x, a_x = graded(term.source)
            m_y, a_y = graded(term.target)
            assert m_x - m_y == 1 - 2 * swept
            assert a_x - a_y == -swept


def test_criterion_07_hfk_is_move_invariant():
    start = time.monotonic()
    rng = random.Random(0xC7)
    for _ in range(50):
        G = random_knot_grid(rng.randint(2, 6), rng)
        table = hfk_hat(G).as_dict()
        H = G
        for _ in range(3):
            H = apply_move(H, rng.choice(legal_moves(H)))
            assert hfk_hat(H).as_dict() == table, f"{G} lost its table at {H}"
    assert time.monotonic() - start < 600.0


def test_criterion_08_peeling_never_fails_on_genuine_homology():
    # hfk_hat peels one V factor per extra grid column; NotDivisible in
    # there would mean the computed homology is not of the guaranteed shape.
    small, big = d_squared_suite()
    for G in small + big:
        hfk_hat(G)


def test_criterion_09_unknot_stabilization_ladder():
    rng = random.Random(0xC9)
    ladder = {2: UNKNOT2}
    G = UNKNOT2
    while G.n < 8:
        G = apply_move(G, GridMove(MoveKind.STABILIZE, rng.randrange(G.n)))
        ladder[G.n] = G
    assert sorted(ladder) == list(range(2, 9))
    for n, H in ladder.items():
        start = time.monotonic()
        assert homology_ranks(H).total_rank() == 2 ** (n - 1)
        assert is_unknot(H)
        if n == 8:
            assert time.monotonic() - start < 120.0


def test_criterion_10_output_is_independent_of_worker_count():
    corpus = str(GRIDS_DIR / "corpus.grids")
    verbs = ("validate", "info", "homology", "hfk", "unknot", "alexander", "verify")
    for verb in verbs:
        for fmt in ("text", "records"):
            one = run_cli(verb, "--format", fmt, "--jobs", "1", corpus)
            eight = run_cli(verb, "--format", fmt, "--jobs", "8", corpus)
            assert one.stdout == eight.stdout, f"{verb} --format {fmt} diverged"
            assert one.returncode == eight.returncode
