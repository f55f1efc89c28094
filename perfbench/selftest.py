"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that the workload generator is deterministic per seed, that two
seeds give different grids, on which the determinant route still gives the
expected answers, that the answer checker accepts the program's answers and
rejects a wrong one, that every wrap point of the tracer resolves on this
tree, and that a wrap point that is gone is reported missing, not raised.
"""

from __future__ import annotations

import sys

from checkout import import_gridfloer
from layertrace import WRAP_POINTS, Tracer
from worker import run_op
from workloads import WORKLOADS, check_answer, check_inputs, make_grids, torus_alexander

SMALL_VERBS = ("homology", "hfk", "alexander", "unknot", "genus", "fibered")


def main() -> int:
    gf = import_gridfloer()
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    check(torus_alexander(2, 3) == {-1: 1, 0: -1, 1: 1}, "closed form gives the trefoil polynomial")
    checked_knots: set[tuple[str, ...]] = set()
    for workload, (knots, _) in WORKLOADS.items():
        first, again, other = (make_grids(gf, workload, seed) for seed in (1, 1, 2))
        check(first == again, f"{workload}: the same seed gives the same grids")
        check(first != other, f"{workload}: seeds 1 and 2 give different grids")
        variants = [make_grids(gf, workload, seed) for seed in range(8)]
        check(
            all(len({repr(v[k]) for v in variants}) > 1 for k in knots),
            f"{workload}: every knot gets more than one grid over seeds 0 to 7",
        )
        if knots not in checked_knots:
            checked_knots.add(knots)
            for seed, grids in ((1, first), (2, other)):
                problems = check_inputs(gf, grids)
                check(not problems, f"{workload} seed {seed}: inputs match the knot table {problems}")

    G = make_grids(gf, "crosscheck", 3)["trefoil5"]
    text = gf.serialize_grid(G)
    for verb in SMALL_VERBS:
        code, answer = run_op(gf, verb, text, G)
        check(check_answer(verb, "trefoil5", G.n, code, answer) is None, f"{verb} on trefoil5 is accepted")
    code, answer = run_op(gf, "genus", text, G)
    check(
        check_answer("genus", "trefoil5", G.n, code, dict(answer, genus=2)) is not None,
        "a wrong genus is rejected",
    )
    code, answer = run_op(gf, "hfk", text, G)
    wrong = dict(answer, ranks=answer["ranks"][1:])
    check(check_answer("hfk", "trefoil5", G.n, code, wrong) is not None, "a missing hfk rank is rejected")
    T = make_grids(gf, "crosscheck", 3)["twist7_8"]
    code, answer = run_op(gf, "determinant", "", T)
    check(check_answer("determinant", "twist7_8", T.n, code, answer) is None, "determinant on twist7_8 is accepted")

    tracer = Tracer()
    tracer.install()
    check(not tracer.missing, f"every wrap point resolves {tracer.missing}")
    tracer.begin_op(0)
    run_op(gf, "homology", text, G)
    tracer.end_op()
    tracer.uninstall()
    metrics = tracer.metrics()
    traced_self = metrics["homology.self_s"] + metrics["chain.differential_s"]
    check(
        metrics["chain.scans"] == metrics["chain.generators"] == 120,
        "one homology op on n = 5 scans each of the 120 generators once",
    )
    per_level = {
        level: calls
        for _, layer, level, calls, *_ in tracer.report()["level_spans"]
        if layer == "chain.differential"
    }
    check(
        None not in per_level
        and len(per_level) == metrics["homology.levels"]
        and sum(per_level.values()) == metrics["chain.scans"],
        "scanner calls are added up per Alexander level",
    )

    gone = tuple(p for p in WRAP_POINTS if p[2] != "chain.differential")
    gone += (("gridfloer.homology", "_no_such_scanner", "chain.differential", "hot"),)
    tracer = Tracer()
    tracer.install(gone)
    tracer.begin_op(0)
    run_op(gf, "homology", text, G)
    tracer.end_op()
    tracer.uninstall()
    missing = tracer.missing_metrics()
    check(
        tracer.missing == ["gridfloer.homology._no_such_scanner"]
        and {"chain.differential_s", "chain.scans"} <= set(missing),
        "a wrap point that is gone is reported missing",
    )
    check(
        tracer.metrics()["chain.differential_s"] == 0
        and tracer.metrics()["homology.self_s"] > 0.5 * traced_self,
        "its time stays in the caller's self time",
    )

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
