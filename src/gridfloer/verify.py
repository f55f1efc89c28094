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
import random
from dataclasses import dataclass

from .chain import (
    _SweepTable,
    _grade,
    _grading_tables,
    _minus_terms_from,
    _tilde_target_codes,
    generators,
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
        return list(generators(G)), "all generators"
    # Draw until SAMPLE_SIZE are distinct, keeping each at its first draw:
    # a repeated source would count its composites twice in the XOR set of
    # minus_d_squared, and they would cancel.
    rng = random.Random(SAMPLE_SEED)
    sample: dict[tuple[int, ...], None] = {}
    while len(sample) < SAMPLE_SIZE:
        sample[tuple(rng.sample(range(G.n), G.n))] = None
    return list(sample), f"{SAMPLE_SIZE} sampled generators"


def _check_minus_d_squared(terms: dict, table: _SweepTable, scope: str) -> CheckResult:
    """d^2 = 0 over GF(2)[U..]: compositions cancel in pairs, exponents added.

    ``terms`` maps each source to its terms; a middle generator that is not
    a source (only when sources are sampled) is swept on ``table`` each time
    it is met.
    """
    odd: set[tuple] = set()
    count = 0
    for x, x_terms in terms.items():
        for y, e1 in x_terms:
            for z, e2 in terms[y] if y in terms else _minus_terms_from(y, table):
                count += 1
                key = (x, z, tuple(a + b for a, b in zip(e1, e2)))
                # One hash of the key: a membership test and then discard
                # or add hash it twice, which is slower than this set.
                odd ^= {key}
    if odd:
        x, z, exps = sorted(odd)[0]
        return CheckResult(
            "minus_d_squared",
            False,
            f"odd composite count from {x} to {z} with exponents {exps}",
        )
    return CheckResult("minus_d_squared", True, f"{count} composites over {scope}")


def _check_tilde_matches_minus(
    G: GridDiagram, terms: dict, rects: dict, scope: str
) -> CheckResult:
    """Both differentials keep exactly the rectangles built one by one.

    The full differential has one term per empty rectangle avoiding every X,
    weighted by the O markings it sweeps, and comes from a table that stops
    at X markings only; setting every U to zero keeps the terms that sweep
    no O, which come from a collapsed table that stops at both kinds.
    ``rectangles_from`` builds each rectangle separately, so it checks the
    rectangle sets of the sweep kernel both differentials share, on both
    kinds of table.  It does not check the exponents: the terms take them
    from the same per-shape memo, ``chain._marking_counts``, as the
    rectangles do.  ``grading_laws`` checks them against the gradings.
    """
    collapsed = _SweepTable(G, collapsed=True)
    checked = 0
    for x, x_terms in terms.items():
        minus = [
            (r.target, r.o_count)
            for r in rects[x]
            if r.empty and r.x_total == 0
        ]
        want = sorted(y for y, exps in minus if not any(exps))
        got = sorted(_tilde_target_codes(x, collapsed))
        if sorted(minus) != sorted(x_terms) or want != got:
            return CheckResult(
                "tilde_matches_minus", False, f"term mismatch at source {x}"
            )
        checked += len(got)
    return CheckResult("tilde_matches_minus", True, f"{checked} terms over {scope}")


def _check_grading_laws(G: GridDiagram, terms: dict, scope: str) -> CheckResult:
    """Generator gradings across each term: M drops by 1 - 2*(O swept) and A
    rises by the O count (the U weights carry degree -2 and -1, restoring the
    drop of the weighted term to exactly one in M and zero in A)."""
    tables = _grading_tables(G)
    # Each generator is the target of several terms; grade it once.
    grade = functools.cache(lambda y: _grade(y, tables))
    count = 0
    for x, x_terms in terms.items():
        m_x, a_x = grade(x)
        for y, exps in x_terms:
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
    return CheckResult("grading_laws", True, f"{count} terms over {scope}")


def _check_index_one_iff_empty(rects: dict, scope: str) -> CheckResult:
    """Lipshitz index via domains is 1 exactly on empty rectangles."""
    count = 0
    for x, x_rects in rects.items():
        for rect in x_rects:
            mu = maslov_index(from_rectangle(rect))
            if (mu == 1) != rect.empty:
                return CheckResult(
                    "index_one_iff_empty",
                    False,
                    f"rectangle {x} -> {rect.target} has index {mu}, empty={rect.empty}",
                )
            count += 1
    return CheckResult("index_one_iff_empty", True, f"{count} rectangles over {scope}")


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
    """Run every structural check; order and content are deterministic.

    Each source's work is done once: its ``_minus_terms_from`` list, on one
    X-only sweep table, before the first check, and its ``rectangles_from``
    list after it, so the lists are not held during the XOR set of
    ``minus_d_squared``.  Both are freed before the homology walk of
    ``peel_exact``.
    """
    sources, scope = _sources(G)
    table = _SweepTable(G)
    terms = {x: _minus_terms_from(x, table) for x in sources}
    results = [_check_minus_d_squared(terms, table, scope)]
    rects = {x: list(rectangles_from(G, x)) for x in sources}
    results += [
        _check_tilde_matches_minus(G, terms, rects, scope),
        _check_grading_laws(G, terms, scope),
        _check_index_one_iff_empty(rects, scope),
    ]
    del terms, rects
    results.append(_check_peel_exact(G))
    return results
