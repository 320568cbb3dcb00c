"""Clique oracles: exact search on small explicit graphs, seeded local
search on larger ones, and the soundness probe over gap graphs.

The exact solver is a bitset branch and bound: candidates are colored
greedily and expanded in reverse color order, so a branch is cut as
soon as clique size plus color count cannot beat the incumbent.  Root
branches follow a degeneracy order, which keeps the first levels of the
tree narrow on the dense structured graphs this package produces.

Local search is restarted greedy insertion along a random vertex
permutation followed by bounded 2-improvement (swap one clique member
for two compatible outsiders).  Every restart draws its own generator
from (seed, restart index), so reports are reproducible and restarts
could run in any order without changing the outcome."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .explicit import ExplicitGraph
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


def _bits(x: int):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def _degeneracy_order(adj: list[int], n: int) -> list[int]:
    remaining = (1 << n) - 1
    deg = [ (adj[v] & remaining).bit_count() for v in range(n) ]
    order = []
    for _ in range(n):
        v = min((u for u in _bits(remaining)), key=lambda u: (deg[u], u))
        order.append(v)
        remaining ^= 1 << v
        for u in _bits(adj[v] & remaining):
            deg[u] -= 1
    return order


def _color_bound(adj: list[int], pool: int) -> int:
    colors = 0
    left = pool
    while left:
        colors += 1
        cur = left
        while cur:
            b = cur & -cur
            v = b.bit_length() - 1
            cur ^= b
            left ^= b
            cur &= ~adj[v]
    return colors


def _greedy_seed(adj: list[int], n: int, order: list[int]) -> list[int]:
    # one maximal clique along the given order; used as the incumbent
    clique: list[int] = []
    cand = (1 << n) - 1
    for v in order:
        if (cand >> v) & 1:
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
    seed = max(
        (_greedy_seed(adj, n, o) for o in (order[::-1], sorted(range(n)))),
        key=len,
    )
    upper = _color_bound(adj, (1 << n) - 1)
    if n > vertex_budget:
        return CliqueReport(len(seed), tuple(sorted(seed)), upper, False, 0, 0)

    best = len(seed)
    best_witness = sorted(seed)
    stack: list[int] = []
    nodes = 0

    def expand(size: int, pool: int) -> None:
        nonlocal best, best_witness, nodes
        # greedy coloring; vertices come out grouped by color class, so
        # the bound for order[i] is its class number
        col_order: list[int] = []
        col_bound: list[int] = []
        left = pool
        color = 0
        while left:
            color += 1
            cur = left
            while cur:
                b = cur & -cur
                v = b.bit_length() - 1
                cur ^= b
                left ^= b
                cur &= ~adj[v]
                col_order.append(v)
                col_bound.append(color)
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


def _greedy_by_priority(adjbool: np.ndarray, prio: np.ndarray) -> list[int]:
    n = adjbool.shape[0]
    cand = np.ones(n, dtype=bool)
    clique: list[int] = []
    sentinel = n
    while True:
        masked = np.where(cand, prio, sentinel)
        v = int(masked.argmin())
        if masked[v] == sentinel:
            return clique
        clique.append(v)
        cand &= adjbool[v]
        cand[v] = False


def _two_improve(
    adjbool: np.ndarray, clique: list[int], rounds: int = 8, scan_cap: int = 128
) -> list[int]:
    # swap one member for two outsiders each adjacent to the rest and to
    # each other; keeps the set a clique and grows it by one.  Outsiders
    # missing the same member are scanned for an adjacent pair only up
    # to scan_cap of them (heuristic, so completeness is not owed)
    clique = list(clique)
    for _ in range(rounds):
        if len(clique) < 1:
            return clique
        members = np.array(clique)
        cnt = adjbool[members].sum(axis=0)
        cnt[members] = -1
        near = np.where(cnt == len(clique) - 1)[0]
        if len(near) < 2:
            return clique
        misses = adjbool[np.ix_(near, members)]
        missing = np.argmin(misses, axis=1)
        improved = False
        for slot in np.unique(missing):
            group = near[missing == slot][:scan_cap]
            if len(group) < 2:
                continue
            sub = adjbool[np.ix_(group, group)]
            pairs = np.argwhere(np.triu(sub, 1))
            if len(pairs):
                a, b = group[pairs[0][0]], group[pairs[0][1]]
                clique.remove(int(members[slot]))
                clique.extend([int(a), int(b)])
                improved = True
                break
        if not improved:
            return clique
    return clique


def _extend_maximal(adjbool: np.ndarray, clique: list[int]) -> list[int]:
    cand = np.ones(adjbool.shape[0], dtype=bool)
    for v in clique:
        cand &= adjbool[v]
    for v in clique:
        cand[v] = False
    out = list(clique)
    while cand.any():
        v = int(np.argmax(cand))
        out.append(v)
        cand &= adjbool[v]
        cand[v] = False
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
            witness = tuple(verts[i] for i in rep.witness)
            return CliqueReport(
                rep.lower_bound, witness, rep.upper_bound, False,
                rep.nodes_explored, rep.restarts,
            )
        return _implicit_search(g, restarts, seed, initial_clique, sample_size)

    adjbool = g.to_bool_matrix()
    n = g.n
    best: list[int] = []
    nodes = 0
    if initial_clique is not None:
        check = g.is_clique(list(initial_clique))
        if not check:
            raise ValueError("warm start is not a clique")
        best = _extend_maximal(adjbool, list(initial_clique))
    for rr in range(restarts):
        rng = np.random.default_rng([seed, rr])
        clique = _greedy_by_priority(adjbool, rng.permutation(n)) if n else []
        clique = _two_improve(adjbool, clique)
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
        witness = tuple(verts[i] for i in rep.witness)
        rep = CliqueReport(
            rep.lower_bound, witness, rep.upper_bound, rep.exact,
            rep.nodes_explored, rep.restarts,
        )
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
