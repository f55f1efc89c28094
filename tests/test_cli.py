"""End-to-end CLI behavior, mostly through real subprocesses."""

from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfloer import (
    alexander_via_determinant,
    cli,
    homology_ranks,
    parse_grid,
    random_grid,
    serialize_grid,
)

from .helpers import HOPF4, TREFOIL5, UNKNOT2, cli_env, stabilized

GRIDS_DIR = Path(__file__).resolve().parent.parent / "grids"


def run_cli(*args: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "gridfloer", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=cli_env(),
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


def test_closed_stdin_is_one_error_line(monkeypatch, capsys):
    # With file descriptor 0 closed, Python sets sys.stdin to None.
    monkeypatch.setattr("sys.stdin", None)
    assert cli.run(["validate", "-"]) == 1
    assert capsys.readouterr() == ("", "error: cannot read stdin: it is closed\n")


def test_batch_keeps_input_order_and_isolates_errors():
    done = run_cli("genus", str(GRIDS_DIR / "corpus.grids"))
    assert done.returncode == 1
    blocks = done.stdout.strip().split("\n\n")
    assert len(blocks) == 7
    assert blocks[2] == "genus: 1"
    assert blocks[6].startswith("error: NotAKnot:")
    assert "2 components" in blocks[6]


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_unexpected_exception_is_reported_in_stream(monkeypatch, capsys, fmt):
    # A bug in one entry must not kill the batch: the entry reports the
    # exception by type, the other entries print, and the exit code is 2.
    genus_handler, cost, help_text = cli._VERBS["genus"]

    def broken_on_hopf(G, opts):
        if G == HOPF4:
            raise ArithmeticError("synthetic negative rank")
        return genus_handler(G, opts)

    monkeypatch.setitem(cli._VERBS, "genus", (broken_on_hopf, cost, help_text))
    batch = serialize_grid(TREFOIL5) + "\n" + serialize_grid(HOPF4)
    monkeypatch.setattr("sys.stdin", io.StringIO(batch))
    code = cli.run(["genus", "--format", fmt, "-"])
    out, err = capsys.readouterr()
    assert code == 2
    assert "Traceback" in err and "synthetic negative rank" in err
    if fmt == "text":
        assert out == "genus: 1\n\nerror: ArithmeticError: synthetic negative rank\n"
    else:
        first, second = [json.loads(line) for line in out.splitlines()]
        assert first == {"verb": "genus", "n": 5, "genus": 1}
        assert second == {
            "verb": "genus",
            "error": "synthetic negative rank",
            "error_type": "ArithmeticError",
        }


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_memory_error_is_refused_in_stream_with_exit_one(monkeypatch, capsys, fmt):
    # Running out of memory means the grid is too large, not a bug: the
    # entry names its size and --max-n, no traceback is printed, the exit
    # code is 1 and the grid after it is still computed.
    genus_handler = cli._VERBS["genus"][0]
    computed = []

    def out_of_memory_on_the_unknot(G, opts):
        computed.append(G.n)
        if G == UNKNOT2:
            raise MemoryError()
        return genus_handler(G, opts)

    _stub_handlers(monkeypatch, ("genus",), out_of_memory_on_the_unknot)
    batch = "\n".join(serialize_grid(G) for G in (TREFOIL5, UNKNOT2, TREFOIL5))
    monkeypatch.setattr("sys.stdin", io.StringIO(batch))
    code = cli.run(["genus", "--max-n", "9", "--format", fmt, "-"])
    out, err = capsys.readouterr()
    assert (code, err, computed) == (1, "", [5, 2, 5])
    message = "out of memory on grid size 2 under --max-n 9"
    if fmt == "text":
        assert out == f"genus: 1\n\nerror: MemoryError: {message}\n\ngenus: 1\n"
    else:
        first, second, third = [json.loads(line) for line in out.splitlines()]
        assert first == third == {"verb": "genus", "n": 5, "genus": 1}
        assert second == {"verb": "genus", "error": message, "error_type": "MemoryError"}


def test_memory_error_while_parsing_is_refused_in_stream(monkeypatch):
    def out_of_memory(block, first_line):
        raise MemoryError()

    monkeypatch.setattr(cli, "parse_grids", out_of_memory)
    code, lines, _ = cli._process_entry(("genus", 1, serialize_grid(TREFOIL5), {"max_n": 10}))
    assert (code, lines) == (1, ["error: MemoryError: out of memory on this grid under --max-n 10"])


def test_memory_error_while_reading_the_input_is_one_error_line(monkeypatch, capsys):
    # Like a file that cannot be read: one line on stderr, exit 1, no traceback.
    def out_of_memory(path):
        raise MemoryError()

    monkeypatch.setattr(cli, "_read_text", out_of_memory)
    assert cli.run(["genus", str(GRIDS_DIR / "trefoil5.grid")]) == 1
    assert capsys.readouterr() == ("", "error: out of memory reading the input\n")


class _FirstWriteRunsOutOfMemory(io.StringIO):
    """A stdout whose first write raises MemoryError and writes nothing."""

    failed = False

    def write(self, text: str) -> int:
        if not self.failed:
            self.failed = True
            raise MemoryError()
        return super().write(text)


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_memory_error_while_writing_is_refused_in_stream(monkeypatch, capsys, fmt):
    stdout = _FirstWriteRunsOutOfMemory()
    monkeypatch.setattr("sys.stdout", stdout)
    batch = "\n".join(serialize_grid(G) for G in (TREFOIL5, UNKNOT2))
    monkeypatch.setattr("sys.stdin", io.StringIO(batch))
    code = cli.run(["genus", "--format", fmt, "-"])
    assert (code, capsys.readouterr().err) == (1, "")
    message = "out of memory on grid size 5 under --max-n 10"
    if fmt == "text":
        assert stdout.getvalue() == f"error: MemoryError: {message}\n\ngenus: 0\n"
    else:
        first, second = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert first == {"verb": "genus", "error": message, "error_type": "MemoryError"}
        assert second == {"verb": "genus", "n": 2, "genus": 0}


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_each_entry_is_written_before_the_next_grid_is_computed(monkeypatch, fmt):
    # A run killed on a late grid must keep the output of the grids before it.
    validate, cost, help_text = cli._VERBS["validate"]
    out = io.StringIO()
    written_before = []

    def recording(G, opts):
        written_before.append(out.getvalue())
        return validate(G, opts)

    monkeypatch.setitem(cli._VERBS, "validate", (recording, cost, help_text))
    batch = "\n".join(serialize_grid(G) for G in (UNKNOT2, TREFOIL5, HOPF4))
    monkeypatch.setattr("sys.stdin", io.StringIO(batch))
    with contextlib.redirect_stdout(out):
        assert cli.run(["validate", "--format", fmt, "-"]) == 0
    if fmt == "text":
        first, second = "ok: 2x2 grid, 1 component\n", "\nok: 5x5 grid, 1 component\n"
    else:
        first = '{"components": 1, "n": 2, "ok": true, "verb": "validate"}\n'
        second = '{"components": 1, "n": 5, "ok": true, "verb": "validate"}\n'
    assert written_before == ["", first, first + second]
    assert out.getvalue().startswith(first + second)


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


def test_max_n_guard_on_knot_verbs_gives_size_and_force():
    # These verbs rank only some Alexander levels of a knot, so the refusal
    # does not quote n!.
    G = parse_grid((GRIDS_DIR / "torus25_7.grid").read_text(encoding="utf-8"))
    for verb in ("hfk", "alexander", "unknot", "genus", "fibered"):
        code, lines, _ = cli._process_entry((verb, 1, serialize_grid(G), {"max_n": 6}))
        assert code == 1
        assert lines == [
            "error: GridTooLarge: grid size 7 exceeds --max-n 6; pass --max-n 7 to force"
        ]


def test_max_n_refuses_n17_in_stream():
    big = serialize_grid(random_grid(17, random.Random(17)))
    batch = serialize_grid(TREFOIL5) + "\n\n" + big
    done = run_cli("homology", "-", stdin=batch)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    blocks = done.stdout.strip().split("\n\n")
    assert len(blocks) == 2
    assert blocks[0].startswith("n: 5\ntotal rank: 48\n")
    assert blocks[1] == (
        "error: GridTooLarge: grid size 17 exceeds --max-n 10"
        " (the complex has n! = 355687428096000 generators); pass --max-n 17 to force"
    )


def _stub_handlers(monkeypatch, verbs, handler) -> None:
    for verb in verbs:
        _, cost, help_text = cli._VERBS[verb]
        monkeypatch.setitem(cli._VERBS, verb, (handler, cost, help_text))


def test_max_n_is_the_only_size_guard_and_refuses_before_any_work(monkeypatch):
    def must_not_run_past_max_n(G, opts):
        if G.n > opts["max_n"]:
            raise AssertionError("work started on a grid past --max-n")
        return 0, ["reached"], {}

    gated = ("homology", "hfk", "unknot", "genus", "fibered", "alexander", "verify")
    ungated = ("validate", "info", "move")
    _stub_handlers(monkeypatch, gated, must_not_run_past_max_n)
    G17 = serialize_grid(random_grid(17, random.Random(17)))
    for verb in gated:
        code, lines, record = cli._process_entry((verb, 1, G17, {"max_n": 10}))
        assert code == 1
        assert lines[0].startswith("error: GridTooLarge: grid size 17 exceeds --max-n 10")
        assert lines[0].endswith("; pass --max-n 17 to force")
        assert record["error_type"] == "GridTooLarge"
        for max_n in (17, 20):
            assert cli._process_entry((verb, 1, G17, {"max_n": max_n})) == (0, ["reached"], {})
    _stub_handlers(monkeypatch, ungated, lambda G, opts: (0, ["reached"], {}))
    for verb in ungated:
        assert cli._process_entry((verb, 1, G17, {"max_n": 10})) == (0, ["reached"], {})
    assert set(cli._VERBS) == {*gated, *ungated}


def test_knot_verbs_run_past_n16_with_max_n():
    G = stabilized(TREFOIL5, (20,), random.Random(0xC9))[20]
    assert alexander_via_determinant(G) == {-1: 1, 0: -1, 1: 1}
    text = serialize_grid(G)
    genus = run_cli("genus", "--max-n", "20", "-", stdin=text)
    alexander = run_cli("alexander", "--max-n", "20", "-", stdin=text)
    assert (genus.returncode, genus.stdout) == (0, "genus: 1\n")
    assert (alexander.returncode, alexander.stdout) == (0, "alexander: q - 1 + q^-1\n")


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_input_that_is_not_utf8_fails_cleanly(tmp_path, source):
    data = b"\xff\xfe\x00n=2\n"
    path = tmp_path / "bad.grid"
    path.write_bytes(data)
    done = subprocess.run(
        [sys.executable, "-m", "gridfloer", "validate", str(path) if source == "file" else "-"],
        input=None if source == "file" else data,
        capture_output=True,
        env=cli_env({**os.environ, "PYTHONIOENCODING": "utf-8"}),
        timeout=300,
    )
    stderr = done.stderr.decode()
    assert done.returncode == 1
    assert done.stdout == b""
    assert stderr.startswith("error: ") and "can't decode byte 0xff" in stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_input_with_utf8_bom_parses(tmp_path, source):
    data = "\ufeff".encode() + (GRIDS_DIR / "trefoil5.grid").read_bytes()
    path = tmp_path / "bom.grid"
    path.write_bytes(data)
    done = subprocess.run(
        [sys.executable, "-m", "gridfloer", "validate", str(path) if source == "file" else "-"],
        input=None if source == "file" else data,
        capture_output=True,
        env=cli_env({**os.environ, "PYTHONIOENCODING": "utf-8"}),
        timeout=300,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, b"ok: 5x5 grid, 1 component\n", b"")


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

        def imap(self, fn, items):
            return map(fn, items)

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


def test_move_rejects_destabilizing_a_whole_unknot_component():
    # Columns 0,1 are a whole 2x2 unknot: collapsing them would share a cell.
    split = "n=4\nO=0,1,2,3\nX=1,0,3,2\n"
    done = run_cli("move", "--kind", "destabilize", "--position", "0", "-", stdin=split)
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


def test_random_size_above_the_cap_is_refused_before_any_work(monkeypatch, capsys):
    def must_not_run(*args):
        raise AssertionError("work started past the size cap")

    monkeypatch.setattr(cli, "random_grid", must_not_run)
    monkeypatch.setattr(cli, "Pool", must_not_run)
    start = time.perf_counter()
    code = cli.run(["random", "--size", "1000000000000"])
    assert time.perf_counter() - start < 0.5
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --size 1000000000000 exceeds the limit {cli.MAX_RANDOM_SIZE}\n"
    assert cli.run(["random", "--size", str(cli.MAX_RANDOM_SIZE + 1)]) == 1


def test_random_size_at_the_cap_is_emitted(capsys):
    assert cli.run(["random", "--size", str(cli.MAX_RANDOM_SIZE), "--seed", "5"]) == 0
    assert parse_grid(capsys.readouterr().out).n == cli.MAX_RANDOM_SIZE


def test_parse_failures_exit_one_with_line_number():
    done = run_cli("validate", "-", stdin="n=2\nO=1,0\nX=zap,1\n")
    assert done.returncode == 1
    assert done.stdout == "error: GridSyntaxError: line 3: X: 'zap' is not an integer\n"
    assert done.stderr == ""


def test_malformed_block_is_reported_in_stream_and_the_rest_still_run():
    # Line numbers count from the start of the batch, comments included.
    stdin = "n=2\nO=1,0\nX=0,1\n\nn=2\nO=1,0\nX=zap,1\n\n# a comment\nn=2\nO=0,0\nX=1,1\n"
    text = run_cli("validate", "-", stdin=stdin)
    assert text.returncode == 1
    assert text.stderr == ""
    assert text.stdout == (
        "ok: 2x2 grid, 1 component\n\n"
        "error: GridSyntaxError: line 7: X: 'zap' is not an integer\n\n"
        "error: NotAPermutation: O uses row 0 twice\n"
    )
    records = run_cli("validate", "--format", "records", "-", stdin=stdin)
    assert records.returncode == 1
    assert records.stderr == ""
    assert [json.loads(line) for line in records.stdout.splitlines()] == [
        {"verb": "validate", "n": 2, "ok": True, "components": 1},
        {
            "verb": "validate",
            "error": "line 7: X: 'zap' is not an integer",
            "error_type": "GridSyntaxError",
        },
        {"verb": "validate", "error": "O uses row 0 twice", "error_type": "NotAPermutation"},
    ]


def test_input_without_a_grid_stays_on_stderr():
    done = run_cli("validate", "-", stdin="# only a comment\n\n")
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "error: line 2: no grid found\n"


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


def _help_rows(text: str, indent: int) -> list[tuple[str, str]]:
    """(invocation, help) per row of an argparse listing indented by ``indent``."""
    rows: list[tuple[str, str]] = []
    open_row = False
    for line in text.splitlines():
        depth = len(line) - len(line.lstrip(" "))
        if depth == indent and line.strip():
            name, _, help_text = line.strip().partition("  ")
            rows.append((name, help_text.strip()))
            open_row = True
        elif depth > indent and open_row:
            name, help_text = rows[-1]
            rows[-1] = (name, " ".join(filter(None, [help_text, line.strip()])))
        else:
            open_row = False
    return rows


_COMMON_OPTION_ROWS = [
    ("-h, --help", "show this help message and exit"),
    ("--format {text,records}", "text blocks (default) or one JSON line per grid"),
    ("--jobs K", "worker processes for batch files; output order and bytes do not depend on K"),
    (
        "--max-n N",
        "refuse the homology verbs above this grid size (default 10); their cost grows"
        " exponentially with n, and homology and verify enumerate all n! generators",
    ),
]


def test_help_lists_every_verb_and_option_in_order(monkeypatch, capsys):
    # A wide terminal, so that no help line wraps.
    monkeypatch.setenv("COLUMNS", "200")

    def help_of(*verb: str) -> str:
        assert cli.run([*verb, "--help"]) == 0
        return capsys.readouterr().out

    assert _help_rows(help_of(), 4) == [
        ("validate", "parse and validate grids, reporting size and components"),
        ("info", "size, component count, crossing count"),
        ("homology", "bigraded homology ranks of the collapsed complex"),
        ("hfk", "homology ranks with the extra V tensor factors divided out"),
        ("unknot", "is the knot trivial?"),
        ("genus", "Seifert genus of a knot"),
        ("fibered", "is the knot fibered?"),
        ("alexander", "Alexander polynomial of a knot"),
        ("verify", "run structural self-checks (d^2 = 0, gradings, index, peeling)"),
        ("move", "apply one grid move and print the resulting grid"),
        ("random", "emit a random valid grid"),
    ]
    kinds = "{cyclic_row,cyclic_column,commute_columns,commute_rows,stabilize,destabilize}"
    move = help_of("move")
    assert move.startswith(
        "usage: gridfloer move [-h] [--format {text,records}] [--jobs K] [--max-n N]"
        f" --kind {kinds} [--position I] path\n"
    )
    assert _help_rows(move, 2) == [
        ("path", "grid file (batch allowed), or - for stdin"),
        *_COMMON_OPTION_ROWS,
        (f"--kind {kinds}", "which move to apply"),
        ("--position I", "shift count (cyclic), pair index (commute), or column (stabilize)"),
    ]
    rnd = help_of("random")
    assert rnd.startswith(
        "usage: gridfloer random [-h] [--format {text,records}] [--jobs K] [--max-n N]"
        " --size N [--seed S]\n"
    )
    assert _help_rows(rnd, 2) == [
        *_COMMON_OPTION_ROWS,
        ("--size N", "grid size, 2 to 1000"),
        ("--seed S", ""),
    ]


class _FailingStdout(io.StringIO):
    """A stdout whose writes raise ``err``, on a file descriptor of its own."""

    def __init__(self, err: OSError, fd: int):
        super().__init__()
        self.err, self.fd = err, fd

    def write(self, s):
        raise self.err

    def fileno(self):
        return self.fd


@pytest.mark.parametrize(
    "err",
    [BrokenPipeError(errno.EPIPE, "Broken pipe"), OSError(errno.ENOSPC, "No space left")],
)
def test_failed_write_to_stdout_is_one_error_line(monkeypatch, capsys, tmp_path, err):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr("sys.stdout", _FailingStdout(err, fd))
        code = cli.run(["validate", str(GRIDS_DIR / "corpus.grids")])
    finally:
        os.close(fd)
    stderr = capsys.readouterr().err
    assert code == 1
    assert stderr.startswith("error:") and stderr.count("\n") == 1, stderr
    assert "Traceback" not in stderr


def _validate_into(stdout) -> subprocess.Popen:
    # Buffered stdout, as by default: Python flushes it once more at exit,
    # and that flush must not fail and print "Exception ignored" either.
    env = cli_env({k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"})
    cmd = [sys.executable, "-m", "gridfloer", "validate", str(GRIDS_DIR / "corpus.grids")]
    return subprocess.Popen(cmd, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_device_on_stdout_exits_one_without_traceback():
    with open("/dev/full", "w") as full, _validate_into(full) as proc:
        stderr = proc.stderr.read()
    assert proc.returncode == 1
    assert stderr.startswith("error:") and stderr.count("\n") == 1, stderr
    assert "Traceback" not in stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("verb", [[], ["homology"]], ids=["top", "homology"])
def test_help_to_a_full_device_exits_one_without_traceback(verb, unbuffered):
    # Buffered, the help fails in the flush; unbuffered, in the write itself.
    env = cli_env({k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"})
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    cmd = [sys.executable, "-m", "gridfloer", *verb, "--help"]
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            cmd, stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60
        )
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1, done.stderr
    assert "Exception ignored" not in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize("verb", [[], ["homology"]], ids=["top", "homology"])
def test_help_to_a_closed_pipe_is_one_error_line(monkeypatch, capsys, tmp_path, verb):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        err = BrokenPipeError(errno.EPIPE, "Broken pipe")
        monkeypatch.setattr("sys.stdout", _FailingStdout(err, fd))
        code = cli.run([*verb, "--help"])
    finally:
        os.close(fd)
    stderr = capsys.readouterr().err
    assert code == 1
    assert stderr.startswith("error:") and stderr.count("\n") == 1, stderr
    assert "Exception ignored" not in stderr and "Traceback" not in stderr


def test_closed_pipe_on_stdout_exits_one_without_traceback():
    # The reader is gone before the first write.
    with _validate_into(subprocess.PIPE) as proc:
        proc.stdout.close()
        stderr = proc.stderr.read()
    assert proc.returncode == 1
    assert stderr.startswith("error:") and stderr.count("\n") == 1, stderr
    assert "Traceback" not in stderr


def test_not_divisible_maps_to_exit_two(monkeypatch):
    # No grid in the suite trips the internal alarm, so drive the mapping
    # directly: NotDivisible must report in-stream and escalate to code 2.
    import gridfloer.cli as cli
    from gridfloer.errors import NotDivisible

    def boom(G, opts):
        raise NotDivisible("synthetic alarm")

    _stub_handlers(monkeypatch, ("hfk",), boom)
    code, lines, record = cli._process_entry(("hfk", 1, serialize_grid(HOPF4), {"max_n": 10}))
    assert code == 2
    assert lines == ["error: NotDivisible: synthetic alarm"]
    assert record["error_type"] == "NotDivisible"


def test_process_entry_happy_path():
    from gridfloer.cli import _process_entry

    code, lines, record = _process_entry(("hfk", 1, serialize_grid(HOPF4), {"max_n": 10}))
    assert code == 0
    assert record["verb"] == "hfk"
    assert lines[0] == "n: 4"


def _run_in_process(argv: list[str], stdin: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


_grid_texts = st.builds(
    lambda n, seed: serialize_grid(random_grid(n, random.Random(seed))),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**32),
)


@st.composite
def _mangled(draw) -> str:
    """A grid text with a few characters inserted, deleted or replaced."""
    text = draw(_grid_texts)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=len(text)))
        ch = draw(st.sampled_from("0123456789,=-nOX# \n"))
        kind = draw(st.sampled_from(("insert", "delete", "replace")))
        if kind == "insert":
            text = text[:i] + ch + text[i:]
        else:
            text = text[:i] + (ch if kind == "replace" else "") + text[i + 1 :]
    return text


@settings(max_examples=120, deadline=None)
@given(
    verb=st.sampled_from(
        ("validate", "info", "homology", "hfk", "alexander", "unknot", "genus", "fibered")
    ),
    fmt=st.sampled_from(("text", "records")),
    stdin=st.one_of(
        st.lists(_grid_texts, min_size=1, max_size=3).map("\n".join),
        _mangled(),
        st.text(max_size=30),
    ),
)
def test_cli_fuzz_never_raises_and_exits_zero_or_one(verb, fmt, stdin):
    code, out, err = _run_in_process([verb, "--format", fmt, "-"], stdin)
    assert "Traceback" not in err
    assert code in (0, 1)
