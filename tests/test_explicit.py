"""DIMACS parsing: every text either yields a graph or raises ValueError.
The row codec: bit_indices and mask_bits invert each other."""

from __future__ import annotations

from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapforge.explicit import ExplicitGraph, bit_indices, mask_bits, read_dimacs, write_dimacs


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


def test_second_header_raises_value_error():
    # a later header used to replace the graph, dropping the edges before it
    with pytest.raises(ValueError, match="second 'p' line"):
        read_dimacs(StringIO("p edge 3 1\ne 1 2\np edge 3 0\n"))


def test_comment_is_any_line_whose_first_token_starts_with_hash():
    text = "#x\nc plain DIMACS comment\np edge 2 1\n   # indented note\n#\ne 1 2\n"
    assert read_dimacs(StringIO(text)) == ExplicitGraph.from_edges(2, [(0, 1)])


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
    out = StringIO()
    write_dimacs(g, out)
    assert read_dimacs(StringIO(out.getvalue())) == g


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
    # the edge lines may come in any order after the header
    header, *body = out.getvalue().splitlines(keepends=True)
    assert read_dimacs(StringIO(header + "".join(data.draw(st.permutations(body))))) == g


def test_numpy_integer_vertices_are_stored_as_ints():
    g = ExplicitGraph.from_edges(80, [(np.int64(0), np.int64(70))])
    assert g.is_clique([0, 70])
    assert all(type(row) is int for row in g.adj)


def test_edges_from_nonzero_write_like_python_int_edges():
    m = np.random.default_rng(3).random((60, 60)) < 0.2
    m = np.triu(m, 1)
    m |= m.T
    g = ExplicitGraph.from_edges(60, zip(*np.nonzero(m)))
    want = ExplicitGraph.from_edges(60, [(int(u), int(v)) for u, v in zip(*np.nonzero(m))])
    out, ref = StringIO(), StringIO()
    write_dimacs(g, out)
    write_dimacs(want, ref)
    assert out.getvalue() == ref.getvalue()
    assert read_dimacs(StringIO(out.getvalue())) == want


def test_is_clique_reads_a_set_and_rejects_out_of_range_vertices():
    g = ExplicitGraph.from_edges(3, [(0, 1)])
    assert g.is_clique([2, 2]) and g.is_clique([0, 1, 0]) and g.is_clique([])
    assert not g.is_clique([0, 2])
    for bad in ([7], [-1], [0, 3]):
        with pytest.raises(ValueError):
            g.is_clique(bad)


# masks of every length, all-False ones and ones ending in a run of False
# (which leave the top bytes of the packed row empty) included
_mask = st.one_of(
    st.lists(st.booleans(), max_size=200),
    st.integers(0, 300).map(lambda n: [False] * n),
    st.tuples(st.lists(st.booleans(), max_size=40), st.integers(1, 30)).map(
        lambda t: t[0] + [True] + [False] * t[1]
    ),
).map(lambda m: np.array(m, dtype=bool))


@settings(deadline=None, max_examples=200)
@given(_mask)
def test_bit_indices_reads_back_mask_bits(mask):
    bits = mask_bits(mask)
    got = bit_indices(bits)
    assert got.dtype == np.intp
    assert got.tolist() == np.flatnonzero(mask).tolist()
    assert bits == sum(1 << v for v in np.flatnonzero(mask).tolist())


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 5000).flatmap(lambda w: st.integers(0, (1 << w) - 1)))
def test_mask_bits_inverts_bit_indices(bits):
    idx = bit_indices(bits)
    assert idx.tolist() == [v for v in range(bits.bit_length()) if bits >> v & 1]
    mask = np.zeros(bits.bit_length(), dtype=bool)
    mask[idx] = True
    assert mask_bits(mask) == bits
