"""Structural self-checks behind the `verify` CLI verb.

These re-derive properties that are theorems for any valid grid: both
differentials square to zero, every differential term drops the gradings by
the amounts its swept O markings dictate, the Lipshitz index is one exactly
on empty rectangles, and V peeling divides exactly.  A failure therefore
means a bug in this package, never bad input, which is why the CLI reports
it with the internal-alarm exit code.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .chain import (
    Rectangle,
    _SweepTable,
    _grade,
    _grading_tables,
    _minus_terms_from,
    _tilde_target_codes,
    rectangles_from,
)
from .domains import from_rectangle, maslov_index
from .errors import NotDivisible
from .grid import GridDiagram, link_summary
from .homology import homology_ranks, peel_v

__all__ = ["CheckResult", "run_checks"]

# Above this size the quadratic-in-n! checks switch to a seeded sample of
# source generators instead of all of them.
EXHAUSTIVE_LIMIT = 6
SAMPLE_SIZE = 500
SAMPLE_SEED = 0x5EED


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _sources(G: GridDiagram) -> tuple[list[tuple[int, ...]], str]:
    if G.n <= EXHAUSTIVE_LIMIT:
        return list(itertools.permutations(range(G.n))), "all generators"
    rng = random.Random(SAMPLE_SEED)
    sample = [
        tuple(rng.sample(range(G.n), G.n)) for _ in range(SAMPLE_SIZE)
    ]
    return sample, f"{SAMPLE_SIZE} sampled generators"


class _Run:
    """The work the checks of one ``run_checks`` share, each piece done once.

    ``terms(x)`` is ``_minus_terms_from`` on one X-only sweep table, kept
    for every source: ``minus_d_squared`` reads it for sources and middle
    generators alike, ``tilde_matches_minus`` and ``grading_laws`` for
    sources.  A middle generator that is not a source (only when sources are
    sampled) is swept each time it is met, not kept.
    ``rectangles(x)`` is the list ``rectangles_from`` builds for source x,
    read by ``tilde_matches_minus`` and ``index_one_iff_empty``; so every
    source's list is held from the first of those checks to the end of the
    second.  The run is dropped before ``peel_exact``.
    """

    def __init__(self, G: GridDiagram):
        self.G = G
        self.sources, self.scope = _sources(G)
        self.table = _SweepTable(G)
        # A source's terms once swept; None until then.
        self._terms: dict[tuple[int, ...], list | None] = dict.fromkeys(self.sources)
        self._rectangles: dict[tuple[int, ...], list[Rectangle]] = {}

    def terms(self, x: tuple[int, ...]) -> list:
        terms = self._terms.get(x)
        if terms is None:
            terms = _minus_terms_from(x, self.table)
            if x in self._terms:
                self._terms[x] = terms
        return terms

    def rectangles(self, x: tuple[int, ...]) -> list[Rectangle]:
        rects = self._rectangles.get(x)
        if rects is None:
            rects = self._rectangles[x] = list(rectangles_from(self.G, x))
        return rects


def _check_minus_d_squared(run: _Run) -> CheckResult:
    """d^2 = 0 over GF(2)[U..]: compositions cancel in pairs, exponents added."""
    odd: set[tuple] = set()
    count = 0
    for x in run.sources:
        for y, e1 in run.terms(x):
            for z, e2 in run.terms(y):
                count += 1
                key = (x, z, tuple(a + b for a, b in zip(e1, e2)))
                odd ^= {key}
    if odd:
        x, z, exps = sorted(odd)[0]
        return CheckResult(
            "minus_d_squared",
            False,
            f"odd composite count from {x} to {z} with exponents {exps}",
        )
    return CheckResult("minus_d_squared", True, f"{count} composites over {run.scope}")


def _check_tilde_matches_minus(run: _Run) -> CheckResult:
    """Both differentials keep exactly the rectangles built one by one.

    The full differential has one term per empty rectangle avoiding every X,
    weighted by the O markings it sweeps, and comes from a table that stops
    at X markings only; setting every U to zero keeps the terms that sweep
    no O, which come from a collapsed table that stops at both kinds.
    ``rectangles_from`` builds each rectangle separately, so it checks the
    sweep kernel both differentials share on both kinds of table.
    """
    collapsed = _SweepTable(run.G, collapsed=True)
    checked = 0
    for x in run.sources:
        minus = [
            (r.target, r.o_count)
            for r in run.rectangles(x)
            if r.empty and r.x_total == 0
        ]
        want = sorted(y for y, exps in minus if not any(exps))
        got = sorted(_tilde_target_codes(x, collapsed))
        if sorted(minus) != sorted(run.terms(x)) or want != got:
            return CheckResult(
                "tilde_matches_minus", False, f"term mismatch at source {x}"
            )
        checked += len(got)
    return CheckResult("tilde_matches_minus", True, f"{checked} terms over {run.scope}")


def _check_grading_laws(run: _Run) -> CheckResult:
    """Generator gradings across each term: M drops by 1 - 2*(O swept) and A
    rises by the O count (the U weights carry degree -2 and -1, restoring the
    drop of the weighted term to exactly one in M and zero in A)."""
    tables = _grading_tables(run.G)
    # Each generator is the target of several terms; grade it once.
    grade = functools.cache(lambda y: _grade(y, tables))
    count = 0
    for x in run.sources:
        m_x, a_x = grade(x)
        for y, exps in run.terms(x):
            m_y, a_y = grade(y)
            swept = sum(exps)
            if m_x - m_y != 1 - 2 * swept or a_x - a_y != -2 * swept:
                return CheckResult(
                    "grading_laws",
                    False,
                    f"term {x} -> {y} drops (M, 2A) by ({m_x - m_y}, {a_x - a_y})"
                    f" with {swept} O markings swept",
                )
            count += 1
    return CheckResult("grading_laws", True, f"{count} terms over {run.scope}")


def _check_index_one_iff_empty(run: _Run) -> CheckResult:
    """Lipshitz index via domains is 1 exactly on empty rectangles."""
    count = 0
    for x in run.sources:
        for rect in run.rectangles(x):
            mu = maslov_index(from_rectangle(rect))
            if (mu == 1) != rect.empty:
                return CheckResult(
                    "index_one_iff_empty",
                    False,
                    f"rectangle {x} -> {rect.target} has index {mu}, empty={rect.empty}",
                )
            count += 1
    return CheckResult("index_one_iff_empty", True, f"{count} rectangles over {run.scope}")


def _check_peel_exact(G: GridDiagram) -> CheckResult:
    """V peeling of the homology succeeds with no remainder."""
    components = link_summary(G).component_count
    try:
        peeled = peel_v(homology_ranks(G), G.n - components)
    except NotDivisible as err:
        return CheckResult("peel_exact", False, str(err))
    return CheckResult(
        "peel_exact", True, f"peeled {G.n - components} factors, rank {peeled.total_rank()}"
    )


def run_checks(G: GridDiagram) -> list[CheckResult]:
    """Run every structural check; order and content are deterministic."""
    run = _Run(G)
    results = [
        _check_minus_d_squared(run),
        _check_tilde_matches_minus(run),
        _check_grading_laws(run),
        _check_index_one_iff_empty(run),
    ]
    del run  # free the held terms and rectangles before the homology walk
    results.append(_check_peel_exact(G))
    return results
