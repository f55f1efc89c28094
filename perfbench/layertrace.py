"""Per-layer tracing for the benchmark, with no change to the program.

Each wrap point is a function that one gridfloer module calls in the module
below it.  The tracer replaces the name the caller looks up with a timing
wrapper, so a span opens where one layer hands work to the next.  A layer's
self time is its span time minus the time of the spans it caused.

The hot callees (the empty-rectangle scanners, the domain index) run tens of
thousands of times per op; they get no span per call but are added up per op
and per Alexander level.  A wrap point whose name no longer exists is listed
as missing and its time stays in the caller's self time.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (caller module, name it looks up, layer, kind).  Kinds: "span" records a
# span per call; "hot" adds up time per op and Alexander level; "levels"
# times the level generator and counts its generators; "rank" times the
# GF(2) rank and counts rows; "count" only counts calls.
WRAP_POINTS = (
    ("gridfloer.cli", "run", "cli", "span"),
    ("gridfloer.cli", "parse_grids", "grid.parse", "span"),
    ("gridfloer.cli", "homology_ranks", "homology", "span"),
    ("gridfloer.cli", "hfk_hat", "invariants", "span"),
    ("gridfloer.cli", "build_report", "invariants", "span"),
    ("gridfloer.cli", "run_checks", "verify", "span"),
    ("gridfloer.invariants", "homology_ranks", "homology", "span"),
    ("gridfloer.invariants", "peel_v", "homology.peel", "span"),
    ("gridfloer.homology", "iter_alexander_levels", "chain.enumerate", "levels"),
    ("gridfloer.homology", "_tilde_target_codes", "chain.differential", "hot"),
    ("gridfloer.homology", "gf2_rank", "gf2.rank", "rank"),
    ("gridfloer.verify", "_check_minus_d_squared", "verify.minus_d_squared", "span"),
    ("gridfloer.verify", "_check_tilde_matches_minus", "verify.tilde_matches_minus", "span"),
    ("gridfloer.verify", "_check_grading_laws", "verify.grading_laws", "span"),
    ("gridfloer.verify", "_check_index_one_iff_empty", "verify.index_one_iff_empty", "span"),
    ("gridfloer.verify", "_check_peel_exact", "verify.peel_exact", "span"),
    ("gridfloer.verify", "_minus_terms_from", "chain.differential", "hot"),
    ("gridfloer.verify", "_tilde_target_codes", "chain.differential", "hot"),
    ("gridfloer.verify", "from_rectangle", "domains.index", "hot"),
    ("gridfloer.verify", "maslov_index", "domains.index", "hot"),
    ("gridfloer.verify", "homology_ranks", "homology", "span"),
    ("gridfloer.verify", "peel_v", "homology.peel", "span"),
    ("gridfloer", "alexander_via_determinant", "winding.determinant", "span"),
    ("gridfloer.winding", "_parity", "winding.permutations", "count"),
)

# metric -> (unit, better, layer or wrap point it reads), in print order.
METRICS = {
    "chain.differential_s": ("s", "lower", "chain.differential"),
    "chain.scans": ("count", "lower", "chain.differential"),
    "chain.terms": ("count", "lower", "chain.differential"),
    "chain.terms_per_scan": ("terms/scan", "higher", "chain.differential"),
    "chain.enumerate_s": ("s", "lower", "chain.enumerate"),
    "chain.generators": ("count", "lower", "chain.enumerate"),
    "homology.calls": ("count", "lower", "homology"),
    "homology.levels": ("count", "lower", "chain.enumerate"),
    "homology.max_level_gens": ("count", "lower", "chain.enumerate"),
    "homology.self_s": ("s", "lower", "homology"),
    "homology.peel_s": ("s", "lower", "homology.peel"),
    "invariants.self_s": ("s", "lower", "invariants"),
    "gf2.rank_s": ("s", "lower", "gf2.rank"),
    "gf2.rows": ("count", "lower", "gf2.rank"),
    "gf2.pivot_ratio": ("ratio", "higher", "gf2.rank"),
    "verify.minus_d_squared_s": ("s", "lower", "verify.minus_d_squared"),
    "verify.tilde_matches_minus_s": ("s", "lower", "verify.tilde_matches_minus"),
    "verify.grading_laws_s": ("s", "lower", "verify.grading_laws"),
    "verify.index_one_iff_empty_s": ("s", "lower", "verify.index_one_iff_empty"),
    "verify.peel_exact_s": ("s", "lower", "verify.peel_exact"),
    "domains.index_s": ("s", "lower", "domains.index"),
    "domains.rectangles": ("count", "lower", "gridfloer.verify.from_rectangle"),
    "winding.determinant_s": ("s", "lower", "winding.determinant"),
    "winding.permutations": ("count", "lower", "winding.permutations"),
    "grid.parse_s": ("s", "lower", "grid.parse"),
    "cli.self_s": ("s", "lower", "cli"),
}


class Tracer:
    """Spans and per-layer totals for one process; install once, then run ops."""

    def __init__(self):
        self.stack: list[list] = []  # frames [layer, start, child seconds]
        self.seconds: dict[str, float] = {}
        self.self_seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}  # per layer and per "module.name"
        self.terms = 0
        self.generators = 0
        self.levels = 0
        self.max_level_gens = 0
        self.gf2_rows = 0
        self.gf2_rank = 0
        self.spans: list[tuple] = []  # (op, layer, start, end, parent layer)
        self.level_spans: dict[tuple, list] = {}  # (op, layer, 2A) -> [calls, s, terms]
        self.op = None
        self.level = None
        self.resolved: list[str] = []
        self.missing: list[str] = []
        self._originals: list[tuple] = []

    # -- installation --------------------------------------------------------

    def install(self, wrap_points=WRAP_POINTS) -> None:
        for module_name, attr, layer, kind in wrap_points:
            key = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(key)
                continue
            wrapper = getattr(self, f"_wrap_{kind}")(fn, layer, key)
            self._originals.append((module, attr, fn))
            setattr(module, attr, wrapper)
            self.resolved.append(key)
            self.calls.setdefault(key, 0)
            self.calls.setdefault(layer, 0)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def missing_layers(self) -> set[str]:
        """Layers none of whose wrap points resolved."""
        layers = {layer for _, _, layer, _ in WRAP_POINTS}
        live = {layer for m, a, layer, _ in WRAP_POINTS if f"{m}.{a}" in self.resolved}
        return layers - live

    # -- ops and frames ------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.level = None
        self.stack = [["op", perf_counter(), 0.0]]

    def end_op(self) -> None:
        self.stack = []
        self.op = None

    def _add(self, layer: str, key: str, dt: float, self_dt: float) -> None:
        self.seconds[layer] = self.seconds.get(layer, 0.0) + dt
        self.self_seconds[layer] = self.self_seconds.get(layer, 0.0) + self_dt
        self.calls[layer] += 1
        self.calls[key] += 1
        if self.stack:
            self.stack[-1][2] += dt

    def _wrap_span(self, fn, layer, key):
        def wrapper(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else None
            frame = [layer, perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                dt = end - frame[1]
                self._add(layer, key, dt, dt - frame[2])
                self.spans.append((self.op, layer, frame[1], end, parent))

        return wrapper

    def _leaf(self, layer, key, dt, terms=0):
        self._add(layer, key, dt, dt)
        agg = self.level_spans.setdefault((self.op, layer, self.level), [0, 0.0, 0])
        agg[0] += 1
        agg[1] += dt
        agg[2] += terms

    def _wrap_hot(self, fn, layer, key):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t0
            terms = len(out) if isinstance(out, list) else 0
            self.terms += terms
            self._leaf(layer, key, dt, terms)
            return out

        return wrapper

    def _wrap_levels(self, fn, layer, key):
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        self._leaf(layer, key, perf_counter() - t0)
                        return
                    self._leaf(layer, key, perf_counter() - t0)
                    if isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], dict):
                        two_a, levels = item
                        gens = sum(len(codes) for codes in levels.values())
                        self.level = two_a
                        self.levels += 1
                        self.generators += gens
                        self.max_level_gens = max(self.max_level_gens, gens)
                    yield item
            finally:
                it.close()

        return wrapper

    def _wrap_rank(self, fn, layer, key):
        def wrapper(rows):
            rows = list(rows)
            t0 = perf_counter()
            rank = fn(rows)
            self._leaf(layer, key, perf_counter() - t0)
            self.gf2_rows += len(rows)
            self.gf2_rank += rank
            return rank

        return wrapper

    def _wrap_count(self, fn, layer, key):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric over what ran since install; missing ones read 0."""
        s, own, calls = self.seconds, self.self_seconds, self.calls
        scans = calls.get("chain.differential", 0)
        values = {
            "chain.differential_s": s.get("chain.differential", 0.0),
            "chain.scans": scans,
            "chain.terms": self.terms,
            "chain.terms_per_scan": self.terms / scans if scans else 0.0,
            "chain.enumerate_s": s.get("chain.enumerate", 0.0),
            "chain.generators": self.generators,
            "homology.calls": calls.get("homology", 0),
            "homology.levels": self.levels,
            "homology.max_level_gens": self.max_level_gens,
            "homology.self_s": own.get("homology", 0.0),
            "homology.peel_s": s.get("homology.peel", 0.0),
            "invariants.self_s": own.get("invariants", 0.0),
            "gf2.rank_s": s.get("gf2.rank", 0.0),
            "gf2.rows": self.gf2_rows,
            "gf2.pivot_ratio": self.gf2_rank / self.gf2_rows if self.gf2_rows else 0.0,
            "domains.index_s": s.get("domains.index", 0.0),
            "domains.rectangles": calls.get("gridfloer.verify.from_rectangle", 0),
            "winding.determinant_s": s.get("winding.determinant", 0.0),
            "winding.permutations": calls.get("gridfloer.winding._parity", 0),
            "grid.parse_s": s.get("grid.parse", 0.0),
            "cli.self_s": own.get("cli", 0.0),
        }
        for name in METRICS:
            if name.startswith("verify."):
                values[name] = s.get(name[: -len("_s")], 0.0)
        return {name: values[name] for name in METRICS}

    def missing_metrics(self) -> list[str]:
        gone = self.missing_layers() | set(self.missing)
        return [name for name, (_, _, source) in METRICS.items() if source in gone]

    def report(self) -> dict:
        """Everything recorded, in JSON-ready form."""
        return {
            "metrics": self.metrics(),
            "missing": self.missing_metrics(),
            "missing_wrap_points": list(self.missing),
            "layers": {
                layer: {
                    "seconds": self.seconds[layer],
                    "self_seconds": self.self_seconds[layer],
                    "calls": self.calls[layer],
                }
                for layer in self.seconds
            },
            "spans": [list(span) for span in self.spans],
            "level_spans": [
                [op, layer, level, *agg]
                for (op, layer, level), agg in self.level_spans.items()
            ],
        }
