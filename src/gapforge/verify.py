"""Clique oracles: exact search on small explicit graphs, seeded local
search on larger ones, and the soundness probe over gap graphs.

Every oracle on an explicit graph works on one representation, the
bitset rows `ExplicitGraph.adj` (row u is an int whose bit v is set when
{u, v} is an edge), so a neighbourhood intersection is one big-int AND
(the BBMC design of San Segundo et al.).

The exact solver is a branch and bound in the style of Tomita's MCQ: one
greedy coloring routine, `_color_classes`, colors the candidates, which
are expanded in reverse color order, so a branch is cut as soon as
clique size plus color count cannot beat the incumbent.  The color count
of the whole graph is the upper bound reported when the search is
skipped or cut short.  Root branches follow a smallest-last degeneracy
order (Matula-Beck, kept in a bucket queue), which keeps the first
levels of the tree narrow on the dense structured graphs this package
produces.

Local search is restarted greedy insertion by a random vertex priority
followed by bounded 2-improvement (swap one clique member for two
compatible outsiders).  Every restart draws its own generator from
(seed, restart index), so reports are reproducible and restarts could
run in any order without changing the outcome.  Gap graphs too large to
export are searched implicitly, on a vertex sample per restart."""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .explicit import ExplicitGraph, _bits_iter
from .gapgraph import GapGraph, Vertex


# largest explicit graph the exact solver searches; bigger ones get bounds only
EXACT_VERTEX_BUDGET = 1_000


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
    # repeatedly remove the lowest-index vertex of least remaining degree;
    # buckets[d] is the bitset of remaining vertices of remaining degree d,
    # and removing a vertex lowers the least degree by at most one
    deg = [r.bit_count() for r in adj]
    buckets = [0] * n
    for v, d in enumerate(deg):
        buckets[d] |= 1 << v
    remaining = (1 << n) - 1
    order = []
    d = 0
    for _ in range(n):
        while not buckets[d]:
            d += 1
        b = buckets[d] & -buckets[d]
        v = b.bit_length() - 1
        order.append(v)
        buckets[d] ^= b
        remaining ^= b
        for u in _bits_iter(adj[v] & remaining):
            bit = 1 << u
            buckets[deg[u]] ^= bit
            deg[u] -= 1
            buckets[deg[u]] |= bit
        d = max(d - 1, 0)
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


def _greedy_by_priority(adj: list[int], prio: list[int]) -> list[int]:
    # repeatedly take the candidate of least priority; prio is a
    # permutation of range(n) indexed by vertex, so the first pick, over
    # all vertices, is the one of priority 0
    v = prio.index(0)
    clique = [v]
    cand = adj[v]
    while cand:
        v = min(_bits_iter(cand), key=prio.__getitem__)
        clique.append(v)
        cand &= adj[v]
    return clique


class _NodeBudget(Exception):
    pass


def max_clique_exact(
    g: ExplicitGraph,
    vertex_budget: int = EXACT_VERTEX_BUDGET,
    node_budget: int = 20_000_000,
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
    rank = [0] * n
    for i, v in enumerate(reversed(order)):
        rank[v] = i
    seed = max((_greedy_by_priority(adj, p) for p in (rank, list(range(n)))), key=len)
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
            nodes += 1
            if nodes > node_budget:
                raise _NodeBudget
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
            stack.append(v)
            nodes += 1
            sub = adj[v] & later
            if sub:
                expand(1, sub)
            elif best < 1:
                best = 1
                best_witness = [v]
            stack.pop()
            later |= 1 << v
    except _NodeBudget:
        exact = False
    if exact:
        upper = best
    return CliqueReport(best, tuple(best_witness), upper, exact, nodes, 0)


def _two_improve(
    adj: list[int], clique: list[int], rounds: int = 8, scan_cap: int = 128
) -> list[int]:
    # swap one member for two outsiders each adjacent to the rest and to
    # each other; keeps the set a clique and grows it by one.  Slots are
    # tried in clique order, and the outsiders missing only that slot's
    # member are scanned for an adjacent pair only up to the scan_cap
    # lowest-index ones (heuristic, so completeness is not owed)
    full = (1 << len(adj)) - 1
    clique = list(clique)
    for _ in range(rounds):
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
            scan = list(islice(_bits_iter(group), scan_cap))
            capped = sum(1 << a for a in scan)
            # the first scanned vertex with a neighbour among the scanned
            # has only later ones there: an earlier one would have come first
            a = next((a for a in scan if adj[a] & capped), None)
            if a is not None:
                hits = adj[a] & capped
                del clique[slot]
                clique.extend([a, (hits & -hits).bit_length() - 1])
                break
        else:
            return clique
    return clique


def _extend_maximal(adj: list[int], clique: list[int]) -> list[int]:
    # add the lowest-index common neighbour until there is none
    cand = (1 << len(adj)) - 1
    for v in clique:
        cand &= adj[v]
    out = list(clique)
    while cand:
        v = (cand & -cand).bit_length() - 1
        out.append(v)
        cand &= adj[v]
    return out


def clique_local_search(
    g,
    restarts: int = 100,
    seed: int = 0,
    initial_clique=None,
    sample_size: int = 512,
    export_budget: int = 20_000,
) -> CliqueReport:
    """Restarted randomized greedy clique search; exact=False always.

    Accepts an explicit graph or a gap graph.  Gap graphs within the
    export budget are materialized once; larger ones are probed
    implicitly on per-restart vertex samples.  The report depends only
    on (graph, restarts, seed, initial_clique).
    """
    if isinstance(g, GapGraph):
        if g.num_vertices <= export_budget:
            graph, verts = g.export_explicit(budget=export_budget)
            index_of = {v: i for i, v in enumerate(verts)}
            init = None
            if initial_clique is not None:
                init = [index_of[g.validate_vertex(v)] for v in initial_clique]
            rep = clique_local_search(graph, restarts, seed, init)
            return replace(rep, witness=tuple(verts[i] for i in rep.witness))
        return _implicit_search(g, restarts, seed, initial_clique, sample_size)

    adj = g.adj
    n = g.n
    best: list[int] = []
    nodes = 0
    if initial_clique is not None:
        check = g.is_clique(list(initial_clique))
        if not check:
            raise ValueError("warm start is not a clique")
        best = _extend_maximal(adj, list(initial_clique))
    for rr in range(restarts):
        rng = np.random.default_rng([seed, rr])
        clique = _greedy_by_priority(adj, rng.permutation(n).tolist()) if n else []
        clique = _two_improve(adj, clique)
        nodes += len(clique)
        if len(clique) > len(best):
            best = clique
    return CliqueReport(len(best), tuple(sorted(best)), None, False, nodes, restarts)


def _implicit_search(
    g: GapGraph, restarts: int, seed: int, initial_clique, sample_size: int
) -> CliqueReport:
    # a sampled vertex joins when it is adjacent to every member: one
    # pair-rule call against the members' assignments, kept in arrays
    # that grow as vertices join
    warm: list[Vertex] = []
    if initial_clique is not None:
        warm = [g.validate_vertex(v) for v in initial_clique]
        if not g.is_clique(warm).ok:
            raise ValueError("warm start is not a clique")
    warm_set = set(warm)
    warm_var, warm_val = g._vertex_arrays(warm)
    warm_closed = not g._sound(warm_var, warm_val).all()
    best = list(warm)
    nodes = 0
    n = g.num_vertices
    for rr in range(restarts):
        rng = np.random.default_rng([seed, rr])
        idxs = np.unique(rng.integers(0, n, size=sample_size))
        rng.shuffle(idxs)
        sample = [g.vertex_by_index(int(idx)) for idx in idxs]
        var, val = g._vertex_arrays(sample)
        sound = g._sound(var, val)
        clique = list(warm)
        closed = warm_closed
        size = warm_var.size
        member_var = np.concatenate([warm_var.ravel(), np.empty(var.size, dtype=np.int64)])
        member_val = np.concatenate([warm_val.ravel(), np.empty(val.size, dtype=np.int64)])
        for j, v in enumerate(sample):
            if clique:
                if closed or not sound[j] or v in warm_set:
                    continue
                ok = g._pairs_ok(
                    var[j, :, None], val[j, :, None], member_var[:size], member_val[:size]
                )
                if not ok.all():
                    continue
            # a member unsound on its own is adjacent to nothing, but an
            # empty clique takes its first vertex regardless
            closed = not sound[j]
            clique.append(v)
            nodes += 1
            member_var[size : size + 3], member_val[size : size + 3] = var[j], val[j]
            size += 3
        if len(clique) > len(best):
            best = clique
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
    planted_size: int | None = None,
    mode: str = "exact",
    restarts: int = 10_000,
    seed: int = 0,
    export_budget: int = 20_000,
    vertex_budget: int = EXACT_VERTEX_BUDGET,
    node_budget: int = 20_000_000,
) -> SoundnessProbe:
    """Ask whether any clique reaches the planted size.

    Exact mode materializes the graph (raising if over budget) and
    solves; search mode runs seeded restarts.  A reached verdict is
    only ever issued for a witness that passes is_clique.
    """
    target = g.planted_size() if planted_size is None else planted_size
    if mode == "exact":
        graph, verts = g.export_explicit(budget=export_budget)
        rep = max_clique_exact(graph, vertex_budget, node_budget)
        rep = replace(rep, witness=tuple(verts[i] for i in rep.witness))
    elif mode == "search":
        rep = clique_local_search(
            g, restarts=restarts, seed=seed, export_budget=export_budget
        )
    else:
        raise ValueError(f"unknown probe mode {mode!r}")

    if rep.lower_bound >= target:
        if not g.is_clique(list(rep.witness)).ok:
            raise AssertionError("search produced an invalid witness")
        return SoundnessProbe("reached", target, rep, rep.witness)
    if rep.exact or (rep.upper_bound is not None and rep.upper_bound < target):
        return SoundnessProbe("below", target, rep, None)
    if mode == "search":
        return SoundnessProbe("below", target, rep, None)
    return SoundnessProbe("inconclusive", target, rep, None)
