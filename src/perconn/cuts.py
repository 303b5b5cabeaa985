"""Low-level graph algorithm primitives used by the connectivity providers.

All functions take an adjacency dict ``{vertex: set(neighbors)}`` over
sortable vertex ids, or edges over them.  Where several answers are valid they
break ties by vertex id, so results are deterministic;
``biconnected_components`` returns its blocks in no fixed order.

``clique_percolation`` is the one clique kernel.  It sweeps edges in order
and finds each k-clique at its last edge (sequential clique percolation,
Kumpula et al. 2008); the diagram engine feeds its births and merges to the
elder rule, ``connectivity.block_levels`` and ``property_components`` group
its cliques into communities, and ``posets.subobject_poset`` chains them.

``vertex_cut_below`` runs a max-flow probe only where two sweeps leave a
doubt.  From a vertex v0 and its neighbours it grows the set of vertices
that no cut below k separates from v0: a vertex with k neighbours in the
set joins it (a cut below k misses one of them, and that one lies on the
vertex's side), and so does every member of a group, a vertex set known to
stay connected after any fewer than k deletions, once v0 or k of its
members are in it (a cut below k misses one of them, and leaves the rest of
the group connected).  Only vertices outside the set are probed against
v0.  A non-adjacent pair of v0's neighbours that one group holds is not
probed either, since no cut below k splits a group.
"""

from __future__ import annotations

from collections import defaultdict, deque
from heapq import heapify, heappop, heappush
from itertools import combinations


class UnionFind:
    """Index-based union-find with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> int:
        """Join the classes of a and b; return the root of the joined class."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return ra

    def attach(self, a: int, b: int) -> None:
        """Hang the root a directly under b, whatever the sizes, so that the
        root of b's class stays the root of the joined class."""
        rb = self.find(b)
        self.parent[a] = b
        self.size[rb] += self.size[a]

    def roots(self) -> list[int]:
        """One member per class: its root."""
        return [a for a, p in enumerate(self.parent) if a == p]


def connected_vertex_sets(adj: dict[str, set[str]]) -> list[set[str]]:
    """Vertex sets of the connected components, in order of smallest member."""
    seen: set[str] = set()
    comps = []
    for v in sorted(adj):
        if v in seen:
            continue
        comp = {v}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def cliques_within(adj: dict[str, set[str]], cand, r: int) -> list[tuple[str, ...]]:
    """All r-cliques inside the vertex set cand, as sorted tuples.

    Ordered extension on an explicit stack: a partial clique grows only by
    later candidates adjacent to all of its members, so each clique is
    built once.
    """
    out: list[tuple[str, ...]] = []
    stack: list[tuple[tuple[str, ...], list[str]]] = [((), sorted(cand))]
    while stack:
        base, rest = stack.pop()
        if len(base) == r:
            out.append(base)
            continue
        for i, v in enumerate(rest):
            later = [u for u in rest[i + 1 :] if u in adj[v]]
            if len(base) + 1 + len(later) >= r:
                stack.append((base + (v,), later))
    return out


def clique_percolation(edges, k: int) -> tuple[list[tuple], list[float], list[tuple[int, int, float]]]:
    """Sequential clique percolation over (u, v, w) edges in the order given.

    The k-cliques an edge closes are its endpoints plus a (k-2)-clique of
    their common neighbourhood so far, so each k-clique is found once, at its
    last edge.  Returns the cliques as sorted tuples, the weight of the edge
    that closed each, and the merges (q, p, w): clique q shares a
    (k-1)-clique facet with the earlier clique p that first held it, and w is
    q's weight.  Adjacent cliques share a facet, so the merges join the
    cliques into their percolation classes.
    """
    adj: dict = defaultdict(set)
    cliques: list[tuple] = []
    births: list[float] = []
    merges: list[tuple[int, int, float]] = []
    owner: dict[tuple, int] = {}
    for u, v, w in edges:
        for rest in cliques_within(adj, adj[u] & adj[v], k - 2):
            q = len(cliques)
            cliques.append(tuple(sorted((u, v, *rest))))
            births.append(w)
            for facet in combinations(cliques[q], k - 1):
                first = owner.setdefault(facet, q)
                if first != q:
                    merges.append((q, first, w))
        adj[u].add(v)
        adj[v].add(u)
    return cliques, births, merges


def edge_cut_below(adj: dict[str, set[str]], k: int) -> set[str] | None:
    """One side of an edge cut with fewer than k edges, or None if none exists.

    Nagamochi-Ibaraki contraction on unit weights.  Each phase returns a
    super-vertex whose weighted degree is below k, if there is one.  Otherwise
    it runs one maximum-adjacency ordering v1, v2, ... and contracts every
    consecutive pair whose attachment weight w(vi, {v1..vi-1}) is at least k.
    That is exact: in an MA ordering lambda(vi-1, vi) >= w(vi, {v1..vi-1})
    (Nagamochi-Ibaraki 1992), so no cut below k separates a contracted pair.
    The last vertex's attachment is its whole degree, so every phase
    contracts at least one pair.
    """
    w = {v: dict.fromkeys(adj[v], 1) for v in sorted(adj)}
    group = {v: {v} for v in w}
    while len(w) > 1:
        for v, nbrs in w.items():
            if sum(nbrs.values()) < k:
                return group[v]
        attach = dict.fromkeys(w, 0)
        heap = [(0, v) for v in w]
        heapify(heap)
        order: list[tuple[str, int]] = []
        while heap:
            neg, v = heappop(heap)
            if v not in attach or -neg != attach[v]:
                continue  # already ordered, or a stale entry
            order.append((v, attach.pop(v)))
            for u, wt in w[v].items():
                if u in attach:
                    attach[u] += wt
                    heappush(heap, (-attach[u], u))
        rep: dict[str, str] = {}
        for v, a in order:
            if a < k:
                lead = v
            else:
                group[lead] |= group.pop(v)
            rep[v] = lead
        merged: dict[str, dict[str, int]] = {h: {} for h in group}
        for v, nbrs in w.items():
            row = merged[rep[v]]
            for u, wt in nbrs.items():
                if rep[u] != rep[v]:
                    row[rep[u]] = row.get(rep[u], 0) + wt
        w = merged
    return None


def biconnected_components(adj: dict[str, set[str]]) -> list[set[str]]:
    """Vertex sets of the blocks with at least two vertices, in no fixed order.

    Iterative Hopcroft-Tarjan depth-first search.  A bridge is its own block,
    a K2; isolated vertices lie in no block.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    blocks: list[set[str]] = []
    for root in adj:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        path = [root]  # visited vertices not yet assigned to a closed block
        work = [(root, iter(adj[root]))]
        while work:
            v, nbrs = work[-1]
            for u in nbrs:
                if u not in index:
                    index[u] = low[u] = len(index)
                    path.append(u)
                    work.append((u, iter(adj[u])))
                    break
                low[v] = min(low[v], index[u])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                    if low[v] >= index[parent]:
                        block = {parent}
                        while v not in block:
                            block.add(path.pop())
                        blocks.append(block)
    return blocks


def vertex_cut_below(adj: dict[str, set[str]], k: int, groups=()) -> set[str] | None:
    """A vertex cut of size < k in a connected non-complete graph, else None.

    Flow-based (Menger), on a split network built at the first probe.  Take
    a minimum-degree vertex v0.  A cut below k that misses v0 separates it
    from some vertex t; a minimal one that holds v0 separates two
    non-adjacent neighbours of v0.  Before any probe a set ``known`` of
    vertices that no cut below k separates from v0 grows from v0 and its
    neighbours by two sweeps:

    * a vertex with k neighbours in ``known`` joins it: a cut below k misses
      one of them, and that neighbour lies on the vertex's side;
    * every member of a group joins once v0 or k of its members are in
      ``known``: a cut below k leaves the rest of a group connected and
      misses one of those members.

    ``groups`` is a sequence of vertex sets of adj that stay connected
    after deleting any fewer than k of their vertices, such as the blocks of
    a subgraph.  Only vertices outside ``known`` are probed against v0, in
    BFS order from v0, and each that passes joins ``known`` and sweeps
    again.  A non-adjacent pair of v0's neighbours is probed unless one
    group holds both: no cut below k separates two members of a group.
    """
    names = sorted(adj)
    v0 = min(names, key=lambda v: (len(adj[v]), v))
    member_of: dict[str, list[int]] = {}
    for g, members in enumerate(groups):
        for v in members:
            member_of.setdefault(v, []).append(g)
    missing = [k] * len(groups)  # members a group lacks in known before it joins
    count = dict.fromkeys(names, 0)  # neighbours in known
    known: set[str] = set()

    def learn(todo: list[str]) -> None:
        while todo:
            v = todo.pop()
            if v in known:
                continue
            known.add(v)
            for u in adj[v]:
                count[u] += 1
                if count[u] == k:
                    todo.append(u)
            for g in member_of.get(v, ()):
                missing[g] -= 1
                if missing[g] == 0:
                    todo += groups[g]

    learn([v0, *adj[v0], *(v for g in member_of.get(v0, ()) for v in groups[g])])
    net: list = []

    def cut_between(s: str, t: str) -> set[str] | None:
        if not net:
            net.extend(_split_network(adj, names, k))
        idx, head, arcs, cap = net
        reach = _reach_below(head, arcs, cap[:], 2 * idx[s] + 1, 2 * idx[t], k)
        if reach is None:
            return None
        return {v for v in names if 2 * idx[v] in reach and 2 * idx[v] + 1 not in reach}

    order = [v0]
    seen = {v0}
    for u in order:
        for w in sorted(adj[u] - seen):
            seen.add(w)
            order.append(w)
    for t in order:
        if t not in known:
            cut = cut_between(v0, t)
            if cut is not None:
                return cut
            learn([t])
    for x, y in combinations(sorted(adj[v0]), 2):
        if y in adj[x] or not set(member_of.get(x, ())).isdisjoint(member_of.get(y, ())):
            continue
        cut = cut_between(x, y)
        if cut is not None:
            return cut
    return None


def _split_network(adj: dict[str, set[str]], names: list[str], k: int):
    """The split network of adj for vertex cuts below k, as residual arc
    lists: the vertex index, arc heads, each node's arcs and capacities.

    Node 2i enters vertex i and node 2i+1 leaves it.  Arc 2i runs from 2i
    to 2i+1 with capacity 1, arc 2e from 2i+1 to 2j with capacity k for the
    e-th directed edge (i, j), and arc a ^ 1 reverses arc a.  A probe runs
    from 2s+1 to 2t, so the arcs of s and t never bind.
    """
    idx = {v: i for i, v in enumerate(names)}
    dedges = [(i, idx[v]) for i, u in enumerate(names) for v in adj[u]]
    head = [a ^ 1 for a in range(2 * len(names))]
    head += [x for i, j in dedges for x in (2 * j, 2 * i + 1)]
    cap = [1, 0] * len(names) + [k, 0] * len(dedges)
    arcs = [[a] for a in range(2 * len(names))]
    for e, (i, j) in enumerate(dedges, len(names)):
        arcs[2 * i + 1].append(2 * e)
        arcs[2 * j].append(2 * e + 1)
    return idx, head, arcs, cap


def _reach_below(
    head: list[int], arcs: list[list[int]], cap: list[int], src: int, snk: int, k: int
) -> dict[int, int] | None:
    """Nodes reachable from src in the residual network of a maximum flow
    below k, or None if k units reach snk.  Augments along BFS paths."""
    for _ in range(k):
        prev = {src: -1}  # node -> arc it was reached by
        queue = deque([src])
        while queue and snk not in prev:
            a = queue.popleft()
            for e in arcs[a]:
                if cap[e] and head[e] not in prev:
                    prev[head[e]] = e
                    queue.append(head[e])
        if snk not in prev:
            return prev
        b = snk
        while b != src:
            e = prev[b]
            cap[e] -= 1
            cap[e ^ 1] += 1
            b = head[e ^ 1]
    return None
