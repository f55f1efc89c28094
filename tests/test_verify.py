"""Structural self-checks exposed by the verify module."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

from gridfloer import chain, cli, random_grid, rectangles_from, run_checks, verify

from .helpers import KNOWN_GRIDS, TREFOIL5, TWIST7

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


def _spy(monkeypatch, name: str) -> list:
    """Record the arguments of every call ``verify`` makes to ``name``."""
    real = getattr(verify, name)
    seen = []

    def spy(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(verify, name, spy)
    return seen


def test_one_run_builds_each_source_and_term_list_once(monkeypatch):
    rects = _spy(monkeypatch, "rectangles_from")
    terms = _spy(monkeypatch, "_minus_terms_from")
    domains = _spy(monkeypatch, "from_rectangle")
    indexed = _spy(monkeypatch, "maslov_index")
    results = run_checks(TREFOIL5)
    assert all(r.passed for r in results)
    gens = Counter(itertools.permutations(range(5)))
    assert Counter(x for _, x in rects) == gens
    assert Counter(x for x, _ in terms) == gens
    # Every (generator, rectangle) pair is still validated and indexed.
    assert len(domains) == len(indexed) == 120 * 20
    # Sampled sources are swept and built once each too; a middle generator
    # that is not a source is swept each time it is met.
    rects.clear()
    terms.clear()
    sources, _ = verify._sources(TWIST7)
    assert all(r.passed for r in run_checks(TWIST7))
    assert Counter(x for _, x in rects) == Counter(sources)
    swept = Counter(x for x, _ in terms)
    assert {x: swept[x] for x in sources} == dict.fromkeys(sources, 1)
    assert swept.keys() > set(sources)


def test_an_odd_composite_is_reported_first_in_sorted_order():
    # Drop one term of one source: the composites through it lose their
    # partners.  The reported one is the least (x, z, exponents) whose
    # count is odd, counted here independently of the check's set.
    table = chain._SweepTable(TREFOIL5)
    terms = {
        x: chain._minus_terms_from(x, table)
        for x in itertools.permutations(range(5))
    }
    x0 = next(x for x, x_terms in terms.items() if len(x_terms) > 1)
    terms[x0] = terms[x0][1:]
    counts = Counter(
        (x, z, tuple(a + b for a, b in zip(e1, e2)))
        for x, x_terms in terms.items()
        for y, e1 in x_terms
        for z, e2 in terms[y]
    )
    x, z, exps = min(key for key, k in counts.items() if k % 2)
    result = verify._check_minus_d_squared(terms, table, "all generators")
    assert result == verify.CheckResult(
        "minus_d_squared",
        False,
        f"odd composite count from {x} to {z} with exponents {exps}",
    )


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


def test_an_extra_o_in_the_shared_marking_memo_fails_the_grading_laws(monkeypatch):
    # The terms and the rectangles take their O markings from one memo, so
    # tilde_matches_minus cannot see a wrong count there; the gradings can.
    x, rect = next(
        (x, r)
        for x in itertools.permutations(range(5))
        for r in rectangles_from(TREFOIL5, x)
        if r.empty and r.x_total == 0
    )
    shape = (rect.c1, rect.r1, rect.width, rect.height)
    extra = rect.o_count.index(0)
    real = chain._marking_counts

    def marking_counts(o_rows, x_rows, c1, r1, w, h):
        o_in, x_in = real(o_rows, x_rows, c1, r1, w, h)
        if (c1, r1, w, h) == shape:
            o_in = tuple(int(k or c == extra) for c, k in enumerate(o_in))
        return o_in, x_in

    monkeypatch.setattr(chain, "_marking_counts", marking_counts)
    results = {r.name: r for r in run_checks(TREFOIL5)}
    swept = rect.o_total
    assert not results["grading_laws"].passed
    assert results["grading_laws"].detail == (
        f"term {x} -> {rect.target} drops (M, 2A) by ({1 - 2 * swept}, {-2 * swept})"
        f" with {swept + 1} O markings swept"
    )


def test_sampled_sources_are_distinct_and_in_draw_order():
    sources, scope = verify._sources(TWIST7)
    assert len(set(sources)) == len(sources) == verify.SAMPLE_SIZE
    assert scope == f"{verify.SAMPLE_SIZE} sampled generators"
    rng = random.Random(verify.SAMPLE_SEED)
    draws = [tuple(rng.sample(range(7), 7)) for _ in range(2 * verify.SAMPLE_SIZE)]
    assert sources == list(dict.fromkeys(draws))[: verify.SAMPLE_SIZE]


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
