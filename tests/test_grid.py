"""Grid construction, parsing, serialization, and link summaries."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfloer import (
    GridDiagram,
    link_summary,
    new_grid,
    parse_grid,
    parse_grids,
    random_grid,
    serialize_grid,
    successor_permutation,
)
from gridfloer.grid import _split_grids
from gridfloer.errors import (
    GridSyntaxError,
    NotAPermutation,
    SharedCell,
    TooSmall,
)

from .helpers import (
    FIG8_6,
    HOPF4,
    KNOWN_GRIDS,
    TORUS25_7,
    TREFOIL5,
    TWIST7,
    UNKNOT2,
    UNKNOT4,
    oracle_components,
)


def test_new_grid_accepts_known_diagrams():
    for G in KNOWN_GRIDS:
        assert sorted(G.o_rows) == list(range(G.n))
        assert sorted(G.x_rows) == list(range(G.n))


def test_rejects_size_below_two():
    with pytest.raises(TooSmall):
        new_grid(1, (0,), (0,))


def test_rejects_non_permutation_rows():
    with pytest.raises(NotAPermutation):
        new_grid(3, (0, 0, 1), (1, 2, 0))
    with pytest.raises(NotAPermutation):
        new_grid(3, (0, 1, 2), (1, 2, 3))


def test_rejects_sizes_and_rows_that_are_not_ints():
    # A float, str or bool compares like a row but is none; a bool row would
    # serialize as "False" and fail to parse back.
    with pytest.raises(TooSmall):
        GridDiagram(2.0, (0, 1), (1, 0))
    with pytest.raises(TooSmall):
        GridDiagram(True, (0,), (0,))
    # random_grid refuses a size as the grid does, before drawing rows.
    for n in (2.5, 3.0, True, "3"):
        with pytest.raises(TooSmall) as want:
            GridDiagram(n, (0, 1), (1, 0))
        with pytest.raises(TooSmall, match="must be an integer") as got:
            random_grid(n, random.Random(0))
        assert str(got.value) == str(want.value)
    for rows in [(0, 1.0), (0, "1"), (False, True)]:
        with pytest.raises(NotAPermutation):
            GridDiagram(2, rows, (1, 0))
        with pytest.raises(NotAPermutation):
            GridDiagram(2, (1, 0), rows[::-1])


def test_rejects_shared_cell():
    # Column 1 would put O and X both at row 2.
    with pytest.raises(SharedCell):
        new_grid(3, (0, 2, 1), (1, 2, 0))


def test_marking_columns_invert_rows():
    for G in KNOWN_GRIDS:
        for c in range(G.n):
            assert G.o_cols[G.o_rows[c]] == c
            assert G.x_cols[G.x_rows[c]] == c


def test_serialize_exact_format():
    assert serialize_grid(UNKNOT2) == "n=2\nO=1,0\nX=0,1\n"


def test_serialize_parse_roundtrip():
    for G in KNOWN_GRIDS:
        assert parse_grid(serialize_grid(G)) == G


def test_parse_ignores_comments_and_whitespace():
    text = "# a knot\n n = 5 \nO= 2, 3, 4, 0, 1\nX=0,1,2,3,4\n"
    assert parse_grid(text) == TREFOIL5


def test_parse_batch_blank_line_separated():
    text = (
        "# two diagrams\n"
        "n=2\nO=1,0\nX=0,1\n"
        "\n"
        "n=4\nO=2,3,0,1\nX=0,1,2,3\n"
    )
    assert parse_grids(text) == [UNKNOT2, HOPF4]


def test_parse_rejects_non_permutation_lists():
    with pytest.raises(NotAPermutation):
        parse_grid("n=3\nO=0,0,1\nX=1,2,0")


def test_parse_error_carries_line_number():
    with pytest.raises(GridSyntaxError) as err:
        parse_grid("n=2\nO=1,0\nX=zap,1")
    assert "line 3" in str(err.value)
    assert err.value.line == 3


def test_split_blocks_parse_with_the_batch_line_numbers():
    text = "# two diagrams\nn=2\nO=1,0\nX=0,1\n\n\nn=2\n# inner\nO=1,0\nX=zap,1\n"
    blocks = _split_grids(text)
    assert [first for first, _ in blocks] == [2, 7]
    assert parse_grids(blocks[0][1], blocks[0][0]) == [UNKNOT2]
    with pytest.raises(GridSyntaxError) as err:
        parse_grids(blocks[1][1], blocks[1][0])
    assert err.value.line == 10
    # The batch as a whole still raises at its first bad block.
    with pytest.raises(GridSyntaxError) as err:
        parse_grids(text)
    assert err.value.line == 10


def test_parse_rejects_wrong_line_count():
    with pytest.raises(GridSyntaxError):
        parse_grid("n=2\nO=1,0")


def test_parse_rejects_wrong_key():
    with pytest.raises(GridSyntaxError):
        parse_grid("n=2\nQ=1,0\nX=0,1")


def test_parse_rejects_empty_input():
    with pytest.raises(GridSyntaxError):
        parse_grids("# only a comment\n")


def test_parse_grid_rejects_batches():
    with pytest.raises(GridSyntaxError):
        parse_grid("n=2\nO=1,0\nX=0,1\n\nn=2\nO=1,0\nX=0,1\n")


def test_successor_permutation_trefoil():
    # X on the diagonal makes the successor just the O permutation.
    assert successor_permutation(TREFOIL5) == (2, 3, 4, 0, 1)


def test_component_count_matches_segment_oracle():
    rng = random.Random(11)
    grids = list(KNOWN_GRIDS) + [random_grid(rng.randint(2, 8), rng) for _ in range(40)]
    for G in grids:
        assert link_summary(G).component_count == oracle_components(G)


def test_two_component_example():
    G = new_grid(4, (0, 1, 2, 3), (1, 0, 3, 2))
    s = link_summary(G)
    assert s.component_count == 2
    # Columns 0,1 trace one component, columns 2,3 the other.
    assert s.component_of_column[0] == s.component_of_column[1]
    assert s.component_of_column[2] == s.component_of_column[3]
    assert s.component_of_column[0] != s.component_of_column[2]


def test_crossing_counts_on_known_diagrams():
    expected = {
        UNKNOT2: 0,
        UNKNOT4: 0,
        TREFOIL5: 3,
        FIG8_6: 4,
        TORUS25_7: 5,
        TWIST7: 8,
        HOPF4: 2,
    }
    for G, crossings in expected.items():
        assert link_summary(G).crossing_count == crossings


def test_random_grid_is_deterministic_per_seed():
    a = random_grid(6, random.Random(7))
    b = random_grid(6, random.Random(7))
    assert a == b
    c = random_grid(6, random.Random(8))
    assert isinstance(c, GridDiagram)


def test_random_grid_rejects_tiny_sizes():
    with pytest.raises(TooSmall):
        random_grid(1, random.Random(0))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=2, max_value=12), seed=st.integers(min_value=0, max_value=2**64))
def test_serialize_then_parse_is_the_identity(n, seed):
    G = random_grid(n, random.Random(seed))
    assert parse_grid(serialize_grid(G)) == G
