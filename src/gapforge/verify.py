"""Clique oracles: exact search on small explicit graphs, seeded local
search on larger ones, and the soundness probe over gap graphs.

Every oracle on an explicit graph works on the bitset rows of
`explicit` and lists their bits through its codec, so a neighbourhood
intersection is one big-int AND (the BBMC design of San Segundo et al.).

The exact solver is a branch and bound in the style of Tomita's MCQ: one
greedy coloring routine, `_color_classes`, colors the candidates, which
are expanded in reverse color order, so a branch is cut as soon as
clique size plus color count cannot beat the incumbent.  The color count
of the whole graph is the upper bound reported when the search is
skipped or cut short.  Root branches follow a smallest-last degeneracy
order (Matula-Beck, each removal an argmin over a degree array), which
keeps the first levels of the tree narrow on the dense structured graphs
this package produces.  Every root vertex and every expanded vertex is a
search node, counted against the node budget.

One greedy, `_greedy_by_priority`, grows every clique these oracles
start from: it takes the candidate of least priority (least index
without one) and replaces the candidates by row(v, within), its row
over the current candidates only.  That is one walk over the first
pick's neighbours in that order, so a restart costs time in that
neighbourhood, not in the vertex count.  Local search is that greedy by
a random vertex priority followed by bounded 2-improvement (swap one
clique member for two compatible outsiders), which lists the
lowest-index outsiders of each slot in bulk.  A swap's outcome depends
only on the graph, the clique and the swaps made, so one call remembers
where each post-swap state ends: on sparse exports most restarts start
at an isolated vertex and meet after their first swap.  That leaves the
per-restart draw of a vertex permutation as the largest share of a
local search (31 of 46 ms for 500 restarts at n = 4160); it stays, as
drawing less would change the probe's reports.
Every restart draws its own generator from (seed, restart index), so
reports are reproducible and restarts could run in any order without
changing the outcome.  Both oracles take explicit graphs only; the
soundness probe is the one entry point on gap graphs.  It runs them on
its caller's export or its own, and searches a gap graph too large to
export implicitly: each restart runs the same greedy, least index
first, over a sample of vertex indices, on gap-graph rows built only
for the vertices it takes and only over the candidates still live.
Each such row is one lookup in the graph's code table, or a `_pairs_ok`
call where the code space is past the table's budget, and
`GapGraph._vertices` builds the tuples of a restart's clique only when
it is the largest so far."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import check_budget, int_text
from .explicit import EXPORT_VERTEX_BUDGET, ExplicitGraph, bit_indices
from .gapgraph import GapGraph, Vertex


# largest explicit graph the exact solver searches; bigger ones get bounds only
EXACT_VERTEX_BUDGET = 1_000
# search nodes before the exact solver stops with bounds
EXACT_NODE_BUDGET = 20_000_000
# restarts one local or implicit search may run, far above any count used
RESTART_BUDGET = 1_000_000
# vertices drawn per restart when a gap graph is searched implicitly
IMPLICIT_SAMPLE_SIZE = 512
# 2-improvement swaps per local-search restart, and outsiders scanned per slot
TWO_IMPROVE_ROUNDS = 8
TWO_IMPROVE_SCAN_CAP = 128


@dataclass(frozen=True)
class CliqueReport:
    """lower_bound always carries a witness; upper_bound is None when the
    method proves nothing from above."""

    lower_bound: int
    witness: tuple
    upper_bound: int | None
    exact: bool
    nodes_explored: int
    restarts: int


def _degeneracy_order(adj: list[int], n: int) -> list[int]:
    # repeatedly remove the lowest-index vertex of least remaining degree,
    # an argmin over the degree array.  A removed vertex is raised to 2n,
    # so the at most n - 1 decrements it still gets keep it above every
    # remaining degree.  Removing a vertex of degree 0 lowers no other
    # degree, so all of them leave at once, in index order
    deg = np.array([r.bit_count() for r in adj], dtype=np.int64)
    order: list[int] = []
    while len(order) < n:
        v = int(deg.argmin())
        if deg[v]:
            order.append(v)
            deg[v] = 2 * n
            deg[bit_indices(adj[v])] -= 1
        else:
            zero = np.flatnonzero(deg == 0)
            order.extend(zero.tolist())
            deg[zero] = 2 * n
    return order


def _color_classes(adj: list[int], pool: int) -> tuple[list[int], list[int]]:
    """Greedy coloring of the vertices in pool, lowest index first.

    Returns the vertices grouped by color class and each one's class
    number, which bounds the clique among it and the vertices before it;
    the last class number is the color count."""
    order: list[int] = []
    bound: list[int] = []
    color = 0
    while pool:
        color += 1
        cur = pool
        while cur:
            b = cur & -cur
            v = b.bit_length() - 1
            cur ^= b
            pool ^= b
            cur &= ~adj[v]
            order.append(v)
            bound.append(color)
    return order, bound


def _greedy_by_priority(
    row: Callable[[int, int], int], prio: np.ndarray | None = None
) -> list[int]:
    # repeatedly take the candidate of least priority, or of least index
    # without one; prio is a permutation of range(n) indexed by vertex, so
    # the first pick, over all vertices, is the one of priority 0 (vertex
    # 0 without one).  row(v, within) is v's bitset row ANDed with within,
    # read for members only: the first pick's whole row (within = -1),
    # then each later member's row over the current candidates.
    # The candidates only shrink and stay among the first pick's
    # neighbours, so the greedy is one walk over those neighbours in
    # priority (or index) order that takes each one still a candidate
    v = 0 if prio is None else int(np.argmin(prio))
    clique = [v]
    cand = row(v, -1)
    nbrs = bit_indices(cand)
    if prio is not None:
        nbrs = nbrs[np.argsort(np.take(prio, nbrs))]
    for v in nbrs.tolist():
        if cand >> v & 1:
            clique.append(v)
            cand = row(v, cand)
    return clique


def _explicit_rows(adj: list[int]) -> Callable[[int, int], int]:
    return lambda v, within: adj[v] & within


class _NodeBudget(Exception):
    pass


def max_clique_exact(
    g: ExplicitGraph,
    vertex_budget: int = EXACT_VERTEX_BUDGET,
    node_budget: int = EXACT_NODE_BUDGET,
) -> CliqueReport:
    """Exact maximum clique with witness.

    Graphs above vertex_budget, or searches hitting node_budget, degrade
    to exact=False with the best lower bound found and a greedy-coloring
    upper bound.
    """
    n = g.n
    adj = g.adj
    if n == 0:
        return CliqueReport(0, (), 0, True, 0, 0)
    order = _degeneracy_order(adj, n)
    # incumbent: the better of the greedy cliques along the reversed
    # degeneracy order and along vertex index
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n - 1, -1, -1)
    row = _explicit_rows(adj)
    seed = max((_greedy_by_priority(row, p) for p in (rank, None)), key=len)
    upper = _color_classes(adj, (1 << n) - 1)[1][-1]
    if n > vertex_budget:
        return CliqueReport(len(seed), tuple(sorted(seed)), upper, False, 0, 0)

    best = len(seed)
    best_witness = sorted(seed)
    stack: list[int] = []
    nodes = 0

    def expand(size: int, pool: int) -> None:
        nonlocal best, best_witness, nodes
        col_order, col_bound = _color_classes(adj, pool)
        for i in range(len(col_order) - 1, -1, -1):
            if size + col_bound[i] <= best:
                return
            v = col_order[i]
            if nodes >= node_budget:
                raise _NodeBudget
            nodes += 1
            stack.append(v)
            nxt = pool & adj[v]
            if nxt:
                expand(size + 1, nxt)
            elif size + 1 > best:
                best = size + 1
                best_witness = sorted(stack)
            stack.pop()
            pool ^= 1 << v

    # every clique is enumerated from its earliest member in peel order,
    # whose candidate set (later vertices) has at most degeneracy bits
    later = 0
    exact = True
    try:
        for v in reversed(order):
            if nodes >= node_budget:
                raise _NodeBudget
            nodes += 1
            stack.append(v)
            sub = adj[v] & later
            if sub:
                expand(1, sub)
            stack.pop()
            later |= 1 << v
    except _NodeBudget:
        exact = False
    if exact:
        upper = best
    return CliqueReport(best, tuple(best_witness), upper, exact, nodes, 0)


def _two_improve(adj: list[int], clique: list[int], memo: dict) -> list[int]:
    # swap one member for two outsiders each adjacent to the rest and to
    # each other; keeps the set a clique and grows it by one.  Slots are
    # tried in clique order, and the outsiders missing only that slot's
    # member are scanned for an adjacent pair only up to the
    # TWO_IMPROVE_SCAN_CAP lowest-index ones, for at most TWO_IMPROVE_ROUNDS
    # swaps (heuristic, so completeness is not owed).  What is left to do
    # depends only on the swaps made and the clique, so memo maps each
    # (swaps made, clique) a swap produced to the clique it ends at, and a
    # state found there ends the walk
    full = (1 << len(adj)) - 1
    clique = list(clique)
    path = []
    for swaps in range(TWO_IMPROVE_ROUNDS):
        if swaps:
            state = (swaps, tuple(clique))
            if state in memo:
                clique = memo[state]
                break
            path.append(state)
        # before[i] / after[i]: vertices adjacent to every member before
        # slot i / after slot i
        before = [full]
        for v in clique:
            before.append(before[-1] & adj[v])
        after = [full]
        for v in reversed(clique):
            after.append(after[-1] & adj[v])
        after.reverse()
        for slot, m in enumerate(clique):
            group = before[slot] & after[slot + 1] & ~adj[m] & ~(1 << m)
            if not group & (group - 1):
                # fewer than two outsiders hold no pair
                continue
            scan = bit_indices(group)[:TWO_IMPROVE_SCAN_CAP].tolist()
            capped = group & ((2 << scan[-1]) - 1)
            # the first scanned vertex with a neighbour among the scanned
            # has only later ones there: an earlier one would have come first
            a = next((a for a in scan if adj[a] & capped), None)
            if a is not None:
                hits = adj[a] & capped
                del clique[slot]
                clique.extend([a, (hits & -hits).bit_length() - 1])
                break
        else:
            break
    for state in path:
        memo[state] = clique
    return clique


def _check_restarts(restarts: int) -> None:
    if restarts < 0:
        raise ValueError("restarts must be nonnegative")
    check_budget(restarts, RESTART_BUDGET, "{} restarts")


def clique_local_search(g: ExplicitGraph, restarts: int = 100, seed: int = 0) -> CliqueReport:
    """Restarted randomized greedy clique search; exact=False always.

    The report depends only on (graph, restarts, seed).
    """
    _check_restarts(restarts)
    adj = g.adj
    n = g.n
    row = _explicit_rows(adj)
    best: list[int] = []
    nodes = 0
    # 2-improvement states of this call's restarts, see _two_improve
    memo: dict = {}
    for rr in range(restarts):
        rng = np.random.default_rng([seed, rr])
        clique = _greedy_by_priority(row, rng.permutation(n)) if n else []
        clique = _two_improve(adj, clique, memo)
        nodes += len(clique)
        if len(clique) > len(best):
            best = clique
    return CliqueReport(len(best), tuple(sorted(best)), None, False, nodes, restarts)


def _implicit_search(
    g: GapGraph, restarts: int, seed: int, initial_clique, sample_size: int
) -> CliqueReport:
    # each restart runs the shared greedy, least index first, on rows built
    # on demand over its sample of canonical indices: a sampled vertex
    # joins when it is adjacent to every member before it.  A vertex
    # unsound on its own has an empty row, so it is only ever taken first,
    # and then alone.
    # initial_clique is unused; perfbench/spans.py unpacks these five arguments by position
    _check_restarts(restarts)
    n = g.num_vertices
    if restarts and n > 1 << 63:
        # rng.integers draws int64 vertex indices
        raise ValueError(
            f"gap graph has {int_text(n)} vertices, over the implicit search's limit of 2^63"
        )
    best: list[Vertex] = []
    nodes = 0
    for rr in range(restarts):
        rng = np.random.default_rng([seed, rr])
        idxs = np.unique(rng.integers(0, n, size=sample_size))
        rng.shuffle(idxs)
        if not idxs.size:
            continue
        picks = _greedy_by_priority(g._rows(*g._index_arrays(idxs)))
        nodes += len(picks)
        if len(picks) > len(best):
            at = np.sort(idxs[picks])
            best = g._vertices(at, *g._index_arrays(at))
    return CliqueReport(len(best), tuple(sorted(best)), None, False, nodes, restarts)


@dataclass(frozen=True)
class SoundnessProbe:
    """verdict: 'reached' carries a re-verified witness; 'below' means the
    method proved or observed only cliques under the planted size;
    'inconclusive' means an inexact run whose bounds straddle it."""

    verdict: str
    planted_size: int
    clique: CliqueReport
    witness: tuple | None


def soundness_probe(
    g: GapGraph,
    mode: str = "exact",
    restarts: int = 10_000,
    seed: int = 0,
    exported: tuple[ExplicitGraph, list[Vertex]] | None = None,
) -> SoundnessProbe:
    """Ask whether any clique reaches the planted size.

    exported is the (graph, vertices) pair g.export_explicit() returned,
    when the caller already made it.  Without it, exact mode exports
    here (raising if over budget) and search mode exports only within
    the budget, searching implicitly otherwise.  A reached verdict is
    only ever issued for a witness that passes is_clique.
    """
    if mode not in ("exact", "search"):
        raise ValueError(f"unknown probe mode {mode!r}")
    target = g.planted_size()
    if exported is None and (mode == "exact" or g.num_vertices <= EXPORT_VERTEX_BUDGET):
        exported = g.export_explicit()
    if exported is None:
        rep = _implicit_search(g, restarts, seed, None, IMPLICIT_SAMPLE_SIZE)
    else:
        graph, verts = exported
        if mode == "exact":
            rep = max_clique_exact(graph)
        else:
            rep = clique_local_search(graph, restarts, seed)
        rep = replace(rep, witness=tuple(verts[i] for i in rep.witness))

    if rep.lower_bound >= target:
        if not g.is_clique(list(rep.witness)).ok:
            raise AssertionError("search produced an invalid witness")
        return SoundnessProbe("reached", target, rep, rep.witness)
    below = (
        rep.exact
        or mode == "search"
        or (rep.upper_bound is not None and rep.upper_bound < target)
    )
    return SoundnessProbe("below" if below else "inconclusive", target, rep, None)
