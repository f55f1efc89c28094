"""Structural self-checks exposed by the verify module."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from gridfloer import cli, random_grid, run_checks, verify

from .helpers import KNOWN_GRIDS, TREFOIL5

GRIDS_DIR = Path(__file__).resolve().parent.parent / "grids"

EXPECTED_NAMES = [
    "minus_d_squared",
    "tilde_matches_minus",
    "grading_laws",
    "index_one_iff_empty",
    "peel_exact",
]


def test_check_names_and_order_are_stable():
    results = run_checks(KNOWN_GRIDS[0])
    assert [r.name for r in results] == EXPECTED_NAMES


def test_all_checks_pass_on_known_grids():
    # The two n=7 grids exercise the sampled-generator path.
    for G in KNOWN_GRIDS:
        for result in run_checks(G):
            assert result.passed, f"{result.name} on n={G.n}: {result.detail}"


def test_all_checks_pass_on_random_grids():
    rng = random.Random(71)
    for _ in range(6):
        G = random_grid(rng.randint(2, 5), rng)
        for result in run_checks(G):
            assert result.passed, f"{result.name} on {G}: {result.detail}"


def test_pass_details_describe_the_scope():
    for result in run_checks(KNOWN_GRIDS[0]):
        assert result.detail


def _index_three_on_one_empty_rectangle(monkeypatch) -> list:
    """Make ``verify`` read index 3 on the first empty rectangle it checks.

    Returns the list that receives that rectangle's (source, target).
    """
    real = verify.maslov_index
    wrong = []

    def maslov_index(D):
        mu = real(D)
        if mu == 1 and not wrong:
            wrong.append((D.source, D.target))
            return Fraction(3)
        return mu

    monkeypatch.setattr(verify, "maslov_index", maslov_index)
    return wrong


def test_a_wrong_index_fails_only_the_index_check(monkeypatch):
    wrong = _index_three_on_one_empty_rectangle(monkeypatch)
    results = run_checks(TREFOIL5)
    assert [r.name for r in results] == EXPECTED_NAMES
    (x, y), = wrong
    failed = [r for r in results if not r.passed]
    assert [(r.name, r.detail) for r in failed] == [
        ("index_one_iff_empty", f"rectangle {x} -> {y} has index 3, empty=True")
    ]


def test_a_wrong_index_is_reported_in_stream_with_exit_two(monkeypatch, capsys):
    wrong = _index_three_on_one_empty_rectangle(monkeypatch)
    code = cli.run(["verify", str(GRIDS_DIR / "trefoil5.grid")])
    out, err = capsys.readouterr()
    (x, y), = wrong
    assert code == 2
    assert err == ""
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"check {name}" for name in EXPECTED_NAMES]
    for line in lines:
        if line.startswith("check index_one_iff_empty:"):
            assert line == (
                f"check index_one_iff_empty: FAIL (rectangle {x} -> {y} has index 3, empty=True)"
            )
        else:
            assert ": ok (" in line
