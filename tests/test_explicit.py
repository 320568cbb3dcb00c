"""DIMACS parsing: every text either yields a graph or raises ValueError,
the same graph or the same error as the line-at-a-time reference, in
bulk too.  Writing gives the reference's bytes.  The row codec:
bit_indices and mask_bits invert each other."""

from __future__ import annotations

import tracemalloc
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapforge.textio
from gapforge.explicit import ExplicitGraph, bit_indices, mask_bits, read_dimacs, write_dimacs
from gapforge.textio import CHUNK, int_fields
from reference import read_dimacs as reference_read
from reference import write_dimacs as reference_write


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
# whole DIMACS texts: a header, then mostly canonical edge lines (the bulk
# form), some out of range or self loops, mixed with arbitrary lines
_edge = st.tuples(st.integers(0, 6), st.integers(0, 6)).map(lambda e: f"e {e[0]} {e[1]}")
_dimacs = st.tuples(
    st.tuples(st.integers(0, 5), st.integers(0, 8)).map(lambda h: f"p edge {h[0]} {h[1]}"),
    st.lists(st.one_of(_edge, _edge, _edge, _line), max_size=12),
).map(lambda t: "\n".join([t[0], *t[1]]))


def read_outcome(read, text: str):
    """The graph read from text, or the message of the ValueError."""
    try:
        return read(StringIO(text))
    except ValueError as e:
        return f"ValueError: {e}"


@settings(deadline=None, max_examples=500)
@given(
    st.one_of(
        st.tuples(st.lists(_line, max_size=8).map("\n".join), st.sampled_from(["", "\n"])),
        st.tuples(_dimacs, st.sampled_from(["", "\n", "\r\n"])),
        st.tuples(st.text(), st.just("")),
    ).map("".join)
)
def test_arbitrary_text_parses_or_raises_value_error(text):
    # the same graph or the same message as the line-at-a-time reference
    g = read_outcome(read_dimacs, text)
    assert g == read_outcome(reference_read, text)
    if isinstance(g, str):
        return
    out = StringIO()
    write_dimacs(g, out)
    assert read_dimacs(StringIO(out.getvalue())) == g


def _long_body(rng, n: int, size: int) -> list[str]:
    """Canonical edge lines of distinct edges, at least size characters."""
    lines, seen, total = [], set(), 0
    while total < size:
        u, v = sorted(int(x) for x in rng.integers(1, n + 1, 2))
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            lines.append(f"e {u} {v}\n")
            total += len(lines[-1])
    return lines


# lines a bulk chunk must not swallow: each sends its chunk back to the
# line reader, or is an edge the chunk's own check must name
_ODD_LINES = {
    "comment": "c a comment\n",
    "hash": "# note\n",
    "blank": "\n",
    "cr": "e 1 2\r\n",
    "wide": "e  1 2\n",
    "glued": "e1 2 3\n",
    "malformed": "e 1\n",
    "letters": "e 1 x\n",
    "header": "p edge 300 1\n",
    "range": "e 1 301\n",
    "zero": "e 0 2\n",
    "loop": "e 7 7\n",
    "long": "e 1 0000000000000000002\n",
    "huge": "e 1 99999999999999999999\n",
    # whitespace where a file line does not end, and fields int() reads
    "form-feed": "e 1 2\x0ce 2 3\n",
    "vertical-tab": "e 1 2\x0be 2 3\n",
    "file-separator": "e 1 2\x1ce 2 3\n",
    "next-line": "e 1 2\x85e 2 3\n",
    "line-separator": "e 1 2\u2028e 2 3\n",
    "arabic-digit": "e 1 \u0662\n",
    "plus": "e +1 2\n",
    "underscore": "e 1_0 2\n",
    "tabs": "e\t1\t2\n",
    "no-break-space": "e 1\xa02\n",
}


@pytest.mark.parametrize("kind", sorted(_ODD_LINES))
def test_lines_around_a_chunk_boundary_read_as_the_reference_reads_them(kind):
    n = 300
    body = _long_body(np.random.default_rng(21), n, 2 * CHUNK + 500)
    # the line that ends past CHUNK characters ends the first bulk read
    ends = np.cumsum([len(line) for line in body])
    first = int(np.searchsorted(ends, CHUNK, side="right"))
    second = int(np.searchsorted(ends, ends[first] + CHUNK, side="right"))
    for at in (first - 1, first, first + 1, second):
        text = f"p edge {n} {len(body)}\n" + "".join(body[:at] + [_ODD_LINES[kind]] + body[at:])
        assert read_outcome(read_dimacs, text) == read_outcome(reference_read, text), at
    # the file's last line, with no final newline
    text = f"p edge {n} {len(body)}\n" + "".join(body) + _ODD_LINES[kind].removesuffix("\n")
    assert read_outcome(read_dimacs, text) == read_outcome(reference_read, text)
    # two faults on either side of a boundary: the first in file order is named
    for a, b in (("range", "malformed"), ("malformed", "range"), ("loop", kind), (kind, "loop")):
        lines = body[:first] + [_ODD_LINES[a]] + body[first : first + 3] + [_ODD_LINES[b]]
        text = f"p edge {n} {len(body)}\n" + "".join(lines + body[first + 3 :])
        want = read_outcome(reference_read, text)
        assert isinstance(want, str)
        assert read_outcome(read_dimacs, text) == want


@pytest.mark.parametrize("faults", [("loop", "range"), ("range", "loop"), ("zero", "huge")])
def test_the_first_of_two_bad_edges_in_one_chunk_is_named(faults):
    body = _long_body(np.random.default_rng(25), 300, 2000)
    a, b = (_ODD_LINES[f] for f in faults)
    text = f"p edge 300 {len(body)}\n" + "".join(body[:10] + [a] + body[10:20] + [b] + body[20:])
    want = read_outcome(reference_read, text)
    assert want.startswith("ValueError")
    assert read_outcome(read_dimacs, text) == want


def test_a_long_canonical_text_reads_as_the_reference_reads_it(monkeypatch):
    body = _long_body(np.random.default_rng(22), 4000, 3 * CHUNK)
    text = f"c made by a test\np edge 4000 {len(body)}\n" + "".join(body)
    calls = []

    def counted(fields, malformed):
        calls.append(fields)
        return int_fields(fields, malformed)

    monkeypatch.setattr(gapforge.textio, "int_fields", counted)
    g = read_dimacs(StringIO(text))
    assert g == reference_read(StringIO(text))
    assert all(type(row) is int for row in g.adj)
    assert not calls  # every chunk parsed in bulk, none line by line
    # a comment among the edges sends its chunk line by line, which counts
    read_dimacs(StringIO(text.replace("\ne ", "\nc a comment\ne ", 1)))
    assert calls


def test_read_peak_memory_stays_near_the_graph_size():
    """About 4,000 vertices and 61k edges, the size of the exported k=2 NO
    graph: read in bulk chunks, never all endpoints at once."""
    rng = np.random.default_rng(23)
    used = np.sort(rng.choice(4000, size=1050, replace=False)) + 1
    pairs = np.sort(rng.choice(used, (80_000, 2)), axis=1)
    edges = np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)[:61_000]
    text = f"p edge 4000 {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges.tolist())
    fp = StringIO(text)
    tracemalloc.start()
    try:
        g = read_dimacs(fp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.num_edges() == len(edges)
    assert peak < 4 * 2**20


def write_text(write, g: ExplicitGraph) -> str:
    out = StringIO()
    write(g, out)
    return out.getvalue()


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
    assert out.getvalue() == write_text(reference_write, g)
    # the edge lines may come in any order after the header
    header, *body = out.getvalue().splitlines(keepends=True)
    assert read_dimacs(StringIO(header + "".join(data.draw(st.permutations(body))))) == g


def test_write_gives_the_reference_bytes_on_a_large_graph():
    rng = np.random.default_rng(24)
    g = ExplicitGraph.from_edges(
        4160, [(int(u), int(v)) for u, v in rng.integers(0, 4160, (20_000, 2)) if u != v]
    )
    g.adj[4159] = 0  # the last row isolated, and rows with no higher neighbour
    for u in range(4159):
        g.adj[u] &= ~(1 << 4159)
    text = write_text(write_dimacs, g)
    assert text == write_text(reference_write, g)
    assert read_dimacs(StringIO(text)) == g


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
