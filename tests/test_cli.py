"""End-to-end CLI behavior, mostly through real subprocesses."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gridfloer import cli, homology_ranks, parse_grid, random_grid, serialize_grid

from .helpers import HOPF4, TREFOIL5, UNKNOT2

GRIDS_DIR = Path(__file__).resolve().parent.parent / "grids"


def run_cli(*args: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "gridfloer", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_validate_text_output():
    done = run_cli("validate", str(GRIDS_DIR / "unknot2.grid"))
    assert done.returncode == 0
    assert done.stdout == "ok: 2x2 grid, 1 component\n"


def test_info_reports_link_data():
    done = run_cli("info", str(GRIDS_DIR / "hopf4.grid"))
    assert done.returncode == 0
    assert "components: 2" in done.stdout
    assert "crossings: 2" in done.stdout


def test_unknot_verb_prints_true_and_false():
    yes = run_cli("unknot", str(GRIDS_DIR / "unknot2.grid"))
    assert yes.returncode == 0
    assert yes.stdout == "unknot: true\n"
    no = run_cli("unknot", str(GRIDS_DIR / "trefoil5.grid"))
    assert no.returncode == 0
    assert no.stdout == "unknot: false\n"


def test_genus_and_fibered_text():
    g = run_cli("genus", str(GRIDS_DIR / "trefoil5.grid"))
    assert g.stdout == "genus: 1\n" and g.returncode == 0
    f = run_cli("fibered", str(GRIDS_DIR / "twist7.grid"))
    assert f.stdout == "fibered: false\n" and f.returncode == 0


def test_alexander_text_rendering():
    done = run_cli("alexander", str(GRIDS_DIR / "trefoil5.grid"))
    assert done.returncode == 0
    assert done.stdout == "alexander: q - 1 + q^-1\n"


def test_homology_records_match_library():
    done = run_cli("homology", "--format", "records", str(GRIDS_DIR / "trefoil5.grid"))
    assert done.returncode == 0
    record = json.loads(done.stdout)
    ranks = homology_ranks(TREFOIL5)
    assert record["total_rank"] == ranks.total_rank() == 48
    assert record["ranks"] == [[m, str(s), r] for m, s, r in ranks.entries]


def test_stdin_dash_reads_a_grid():
    done = run_cli("unknot", "-", stdin=serialize_grid(UNKNOT2))
    assert done.returncode == 0
    assert done.stdout == "unknot: true\n"


def test_batch_keeps_input_order_and_isolates_errors():
    done = run_cli("genus", str(GRIDS_DIR / "corpus.grids"))
    assert done.returncode == 1
    blocks = done.stdout.strip().split("\n\n")
    assert len(blocks) == 7
    assert blocks[2] == "genus: 1"
    assert blocks[6].startswith("error: NotAKnot:")
    assert "2 components" in blocks[6]


def test_records_mode_emits_one_json_line_per_grid():
    done = run_cli("validate", "--format", "records", str(GRIDS_DIR / "corpus.grids"))
    assert done.returncode == 0
    lines = done.stdout.splitlines()
    assert len(lines) == 7
    for line in lines:
        record = json.loads(line)
        assert record["verb"] == "validate" and record["ok"] is True


def test_max_n_guard_names_the_growth():
    done = run_cli("homology", "--max-n", "6", str(GRIDS_DIR / "torus25_7.grid"))
    assert done.returncode == 1
    assert "error: GridTooLarge:" in done.stdout
    assert "5040" in done.stdout
    assert "--max-n 7" in done.stdout


def test_packing_limit_is_reported_in_stream():
    big = serialize_grid(random_grid(17, random.Random(17)))
    batch = serialize_grid(TREFOIL5) + "\n\n" + big
    done = run_cli("homology", "--max-n", "20", "-", stdin=batch)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    blocks = done.stdout.strip().split("\n\n")
    assert len(blocks) == 2
    assert blocks[0].startswith("n: 5\ntotal rank: 48\n")
    assert blocks[1].startswith("error: GridTooLarge:")
    assert "packing limit 16" in blocks[1]


def test_packing_limit_is_refused_before_any_work(monkeypatch):
    def must_not_run(*args):
        raise AssertionError("work started on a grid past the packing limit")

    for verb in cli.EXPENSIVE_VERBS:
        monkeypatch.setitem(cli._HANDLERS, verb, must_not_run)
    G17 = random_grid(17, random.Random(17))
    for verb in sorted(cli.EXPENSIVE_VERBS):
        for max_n in (10, 17):
            code, lines, record = cli._process_entry((verb, G17, {"max_n": max_n}))
            assert code == 1
            assert lines == ["error: GridTooLarge: grid size 17 exceeds the packing limit 16"]
            assert record["error_type"] == "GridTooLarge"


@pytest.mark.parametrize(
    "jobs,cpus,want", [(5000, 2, 2), (3, 8, 3), (5000, 64, 7), (5000, None, 1)]
)
def test_jobs_pool_is_capped_at_cpu_count(monkeypatch, capsys, jobs, cpus, want):
    sizes = []

    class SequentialPool:
        """Stands in for multiprocessing.Pool: records its size, starts nothing."""

        def __init__(self, processes: int):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(cli, "Pool", SequentialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    corpus = str(GRIDS_DIR / "corpus.grids")
    assert cli.run(["validate", "--jobs", str(jobs), corpus]) == 0
    pooled = capsys.readouterr().out
    assert sizes == [want]
    assert cli.run(["validate", corpus]) == 0
    assert capsys.readouterr().out == pooled


def test_max_n_below_two_exits_one():
    for value in ("1", "0", "-3"):
        done = run_cli("homology", "--max-n", value, str(GRIDS_DIR / "trefoil5.grid"))
        assert done.returncode == 1
        assert done.stdout == ""
        assert "--max-n must be at least 2" in done.stderr


def test_max_n_does_not_gate_cheap_verbs():
    done = run_cli("info", "--max-n", "2", str(GRIDS_DIR / "torus25_7.grid"))
    assert done.returncode == 0


def test_move_verb_prints_the_new_grid():
    done = run_cli(
        "move", "--kind", "stabilize", "--position", "0", str(GRIDS_DIR / "unknot2.grid")
    )
    assert done.returncode == 0
    assert parse_grid(done.stdout).n == 3


def test_move_rejects_illegal_commutation():
    done = run_cli(
        "move", "--kind", "commute_columns", "--position", "0", str(GRIDS_DIR / "trefoil5.grid")
    )
    assert done.returncode == 1
    assert "error: IllegalMove:" in done.stdout


def test_verify_verb_reports_all_checks():
    done = run_cli("verify", str(GRIDS_DIR / "unknot2.grid"))
    assert done.returncode == 0
    lines = done.stdout.splitlines()
    assert len(lines) == 5
    assert all(line.startswith("check ") and ": ok" in line for line in lines)


def test_random_verb_is_seed_deterministic():
    first = run_cli("random", "--size", "6", "--seed", "3")
    second = run_cli("random", "--size", "6", "--seed", "3")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    G = parse_grid(first.stdout)
    assert G.n == 6
    other = run_cli("random", "--size", "6", "--seed", "4")
    assert other.stdout != first.stdout


def test_random_records_form():
    done = run_cli("random", "--size", "5", "--seed", "9", "--format", "records")
    record = json.loads(done.stdout)
    assert record["seed"] == 9
    assert sorted(record["grid"]) == ["O", "X", "n"]


def test_parse_failures_exit_one_with_line_number():
    done = run_cli("validate", "-", stdin="n=2\nO=1,0\nX=zap,1\n")
    assert done.returncode == 1
    assert done.stdout == ""
    assert "line 3" in done.stderr


def test_unknown_flags_exit_one():
    done = run_cli("unknot", "--bogus", str(GRIDS_DIR / "unknot2.grid"))
    assert done.returncode == 1
    assert "error" in done.stderr


def test_missing_file_exits_one():
    done = run_cli("validate", str(GRIDS_DIR / "no_such_file.grid"))
    assert done.returncode == 1
    assert "error" in done.stderr


def test_help_exits_zero():
    done = run_cli("--help")
    assert done.returncode == 0
    assert "VERB" in done.stdout


def test_not_divisible_maps_to_exit_two(monkeypatch):
    # No grid in the suite trips the internal alarm, so drive the mapping
    # directly: NotDivisible must report in-stream and escalate to code 2.
    import gridfloer.cli as cli
    from gridfloer.errors import NotDivisible

    def boom(G, opts):
        raise NotDivisible("synthetic alarm")

    monkeypatch.setitem(cli._HANDLERS, "hfk", boom)
    code, lines, record = cli._process_entry(("hfk", HOPF4, {"max_n": 10}))
    assert code == 2
    assert lines == ["error: NotDivisible: synthetic alarm"]
    assert record["error_type"] == "NotDivisible"


def test_process_entry_happy_path():
    from gridfloer.cli import _process_entry

    code, lines, record = _process_entry(("hfk", HOPF4, {"max_n": 10}))
    assert code == 0
    assert record["verb"] == "hfk"
    assert lines[0] == "n: 4"
