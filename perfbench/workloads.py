"""Seeded benchmark workloads and their independently derived answers.

Every grid is built from a fixed knot type: a base grid, grown to its
benchmark size by stabilizations at fixed columns, then moved by a cyclic
row move and a cyclic column move whose shifts are drawn from the workload
seed.  Two seeds give different grids with the same expected answers.  The
moves are torus translations, which relabel the complex without changing
its Alexander level sizes, so the work per op does not depend on the seed;
commutations would change the level sizes and with them time and memory.

The answers come from knot theory, not from copies of the program's output:
the Alexander polynomial from a knot table or, for torus knots, from the
closed form (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)); the genus and
fiberedness from the table; and the homology ranks from the fact that every
knot used here is thin or an L-space knot, so its hat knot Floer homology
has rank |a_s| and Euler characteristic a_s in Alexander grading s, and the
collapsed complex adds n - 1 tensor factors V with ranks at (0, 0) and
(-1, -1).  ``check_inputs`` confirms each generated grid against the
determinant route at generation time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

# Columns for the fixed stabilizations are drawn from this seed, as in the
# unknot stabilization ladder of acceptance criterion 09.
GROW_SEED = 0xC9


# -- Laurent polynomials as {exponent: coefficient} -----------------------------


def _poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _poly_div_exact(num: dict[int, int], den: dict[int, int]) -> dict[int, int]:
    """num / den for a monic den, raising if there is a remainder."""
    num = dict(num)
    top = max(den)
    assert den[top] == 1
    out: dict[int, int] = {}
    while num:
        hi = max(num)
        if hi < top:
            raise ArithmeticError("inexact polynomial division")
        q = num[hi]
        out[hi - top] = q
        for e, c in den.items():
            k = e + hi - top
            num[k] = num.get(k, 0) - q * c
            if not num[k]:
                del num[k]
    return out


def torus_alexander(p: int, q: int) -> dict[int, int]:
    """Symmetric Alexander polynomial of T(p, q) from the closed form."""
    num = _poly_mul({p * q: 1, 0: -1}, {1: 1, 0: -1})
    den = _poly_mul({p: 1, 0: -1}, {q: 1, 0: -1})
    delta = _poly_div_exact(num, den)
    shift = max(delta) // 2
    return {e - shift: c for e, c in delta.items()}


def collapsed_ranks(alexander: dict[int, int], n: int) -> dict[int, tuple[int, int]]:
    """{s: (rank, Euler characteristic)} of the collapsed complex of an n-grid.

    Hat knot Floer homology with rank |a_s| and Euler characteristic a_s at
    each s, tensored with n - 1 copies of V; each copy shifts a generator to
    (m - 1, s - 1) or leaves it.
    """
    out: dict[int, tuple[int, int]] = {}
    for s0, a in alexander.items():
        for k in range(n):
            rank, chi = out.get(s0 - k, (0, 0))
            out[s0 - k] = (rank + comb(n - 1, k) * abs(a), chi + comb(n - 1, k) * (-1) ** k * a)
    return out


# -- knot types -----------------------------------------------------------------


@dataclass(frozen=True)
class Knot:
    """A knot type, its base grid, its benchmark size and its known invariants."""

    name: str
    base_o: tuple[int, ...]
    base_x: tuple[int, ...]
    size: int
    alexander: dict[int, int]
    genus: int
    fibered: bool

    @property
    def is_unknot(self) -> bool:
        return self.alexander == {0: 1} and self.genus == 0


def _torus(name: str, p: int, q: int, size: int) -> Knot:
    n = p + q
    o = tuple((i + p) % n for i in range(n))
    return Knot(name, o, tuple(range(n)), size, torus_alexander(p, q), (p - 1) * (q - 1) // 2, True)


_FIG8 = ((0, 2, 1, 4, 3, 5), (4, 5, 3, 2, 0, 1))
_TWIST7 = ((0, 2, 3, 1, 4, 6, 5), (3, 4, 5, 6, 0, 2, 1))
_TREFOIL = ((2, 3, 4, 0, 1), (0, 1, 2, 3, 4))

KNOTS: dict[str, Knot] = {
    k.name: k
    for k in (
        Knot("unknot7", (1, 0), (0, 1), 7, {0: 1}, 0, True),
        Knot("fig8_7", *_FIG8, 7, {-1: -1, 0: 3, 1: -1}, 1, True),
        Knot("twist7", *_TWIST7, 7, {-1: 2, 0: -3, 1: 2}, 1, False),
        _torus("torus25_7", 2, 5, 7),
        _torus("T34_7", 3, 4, 7),
        Knot("unknot5", (1, 0), (0, 1), 5, {0: 1}, 0, True),
        Knot("trefoil5", *_TREFOIL, 5, {-1: 1, 0: -1, 1: 1}, 1, True),
        # The left-right reflection of the trefoil grid: the mirror trefoil.
        Knot("trefoil5_mirror", *(c[::-1] for c in _TREFOIL), 5, {-1: 1, 0: -1, 1: 1}, 1, True),
        Knot("twist7_8", *_TWIST7, 8, {-1: 2, 0: -3, 1: 2}, 1, False),
        _torus("T35_8", 3, 5, 8),
    )
}

N7_KNOTS = ("unknot7", "fig8_7", "twist7", "torus25_7", "T34_7")

# workload -> (knots, verbs); op k of a run takes knot k mod len(knots) and
# verb k mod len(verbs), so successive passes rotate the verbs over the knots.
WORKLOADS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "full-n7": (N7_KNOTS, ("homology", "hfk", "alexander")),
    "detect-n7": (N7_KNOTS, ("unknot", "genus", "fibered")),
    "crosscheck": (
        ("unknot5", "trefoil5", "trefoil5_mirror", "twist7_8", "T35_8"),
        ("verify", "verify", "verify", "determinant", "determinant"),
    ),
}


def pass_ops(workload: str, pass_index: int) -> list[tuple[str, str]]:
    """The (verb, knot) ops of one pass, in the order they run."""
    knots, verbs = WORKLOADS[workload]
    start = pass_index * len(knots)
    return [
        (verbs[k % len(verbs)], knots[k % len(knots)]) for k in range(start, start + len(knots))
    ]


def make_grids(gf, workload: str, seed: int) -> dict:
    """{knot name: GridDiagram} for a workload; the same seed gives the same grids."""
    grids = {}
    for name in WORKLOADS[workload][0]:
        knot = KNOTS[name]
        G = gf.new_grid(len(knot.base_o), knot.base_o, knot.base_x)
        grow = random.Random(GROW_SEED)
        while G.n < knot.size:
            G = gf.apply_move(G, gf.GridMove(gf.MoveKind.STABILIZE, grow.randrange(G.n)))
        rng = random.Random(f"{seed}:{name}")
        for kind in (gf.MoveKind.CYCLIC_ROW, gf.MoveKind.CYCLIC_COLUMN):
            G = gf.apply_move(G, gf.GridMove(kind, rng.randrange(G.n)))
        grids[name] = G
    return grids


def check_inputs(gf, grids: dict) -> list[str]:
    """Problems with the generated grids or the answer table; empty when sound."""
    problems = []
    for name, G in grids.items():
        knot = KNOTS[name]
        a = knot.alexander
        if G.n != knot.size:
            problems.append(f"{name}: size {G.n}, expected {knot.size}")
        if sum(a.values()) != 1 or any(a[e] != a.get(-e) for e in a):
            problems.append(f"{name}: table polynomial is not symmetric with value 1 at 1")
        if max(a) != knot.genus:
            problems.append(f"{name}: genus {knot.genus} but Alexander degree {max(a)}")
        if knot.fibered and abs(a[max(a)]) != 1:
            problems.append(f"{name}: fibered but the polynomial is not monic")
        if knot.is_unknot and sum(r for r, _ in collapsed_ranks(a, G.n).values()) != 2 ** (G.n - 1):
            problems.append(f"{name}: unknot total rank is not 2^(n-1)")
        if gf.alexander_via_determinant(G) != a:
            problems.append(f"{name}: determinant route disagrees with the knot table")
    return problems


# -- per-op answer checks -------------------------------------------------------


def _by_s(entries) -> dict[int, tuple[int, int]]:
    out: dict[int, tuple[int, int]] = {}
    for m, s, r in entries:
        s = Fraction(s)
        if s.denominator != 1:
            raise ValueError(f"half-integer Alexander grading {s} on a knot")
        rank, chi = out.get(int(s), (0, 0))
        out[int(s)] = (rank + r, chi + (r if m % 2 == 0 else -r))
    return out


def check_answer(verb: str, knot_name: str, n: int, code: int, answer) -> str | None:
    """None when the op's answer is right, else a one-line reason.

    ``answer`` is the parsed records line for CLI verbs and the polynomial
    dict for the determinant route.
    """
    if code != 0:
        return f"exit code {code}"
    if answer is None:
        return "no output"
    try:
        return _check(verb, KNOTS[knot_name], n, answer)
    except (KeyError, TypeError, ValueError) as err:
        return f"malformed answer: {type(err).__name__}: {err}"


def _check(verb: str, knot: Knot, n: int, answer) -> str | None:
    if verb == "determinant":
        got = {int(e): c for e, c in answer.items()}
        return None if got == knot.alexander else f"determinant {got}"
    if "error" in answer:
        return f"{answer.get('error_type')}: {answer['error']}"
    if verb in ("homology", "hfk"):
        if verb == "homology":
            want = collapsed_ranks(knot.alexander, n)
        else:
            want = {s: (abs(a), a) for s, a in knot.alexander.items()}
        want = {s: v for s, v in want.items() if v[0]}
        got = _by_s(answer["ranks"])
        if got != want or answer["total_rank"] != sum(r for r, _ in want.values()):
            return f"{verb} ranks per Alexander grading {got}, expected {want}"
        return None
    expected = {
        "alexander": ("coefficients", [[e, knot.alexander[e]] for e in sorted(knot.alexander)]),
        "unknot": ("unknot", knot.is_unknot),
        "genus": ("genus", knot.genus),
        "fibered": ("fibered", knot.fibered),
        "verify": ("passed", True),
    }
    key, value = expected[verb]
    return None if answer.get(key) == value else f"{key} = {answer.get(key)!r}, expected {value!r}"
