"""DIMACS parsing: every text either yields a graph or raises ValueError."""

from __future__ import annotations

from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapforge.explicit import ExplicitGraph, read_dimacs, write_dimacs


@pytest.mark.parametrize(
    "text",
    [
        "p edge 2 1\ne 1\n",
        "p edge 2 1\ne\n",
        "p edge 2 1\ne 1 2 3\n",
        "p edge\n",
        "p edge 2\n",
        "p\n",
        "p edge 2 1 7\ne 1 2\n",
    ],
)
def test_wrong_token_counts_raise_value_error(text):
    with pytest.raises(ValueError):
        read_dimacs(StringIO(text))


# lines built from DIMACS keywords and small numbers reach every branch of
# the parser far more often than uniform text would
_token = st.sampled_from(["p", "edge", "e", "c", "#", "col", "x", "-1", "0", "1", "2", "3", "4"])
_line = st.one_of(st.lists(_token, max_size=5).map(" ".join), st.text(max_size=12))


@settings(deadline=None, max_examples=300)
@given(st.lists(_line, max_size=8))
def test_arbitrary_text_parses_or_raises_value_error(lines):
    text = "\n".join(lines)
    try:
        g = read_dimacs(StringIO(text))
    except ValueError:
        return
    assert isinstance(g, ExplicitGraph)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_write_then_read_round_trips(data):
    n = data.draw(st.integers(0, 12))
    vertex = st.integers(0, max(n - 1, 0))
    pairs = data.draw(st.lists(st.tuples(vertex, vertex)))
    g = ExplicitGraph.from_edges(n, [(u, v) for u, v in pairs if u != v])
    out = StringIO()
    write_dimacs(g, out)
    back = read_dimacs(StringIO(out.getvalue()))
    assert back == g
    again = StringIO()
    write_dimacs(back, again)
    assert again.getvalue() == out.getvalue()
