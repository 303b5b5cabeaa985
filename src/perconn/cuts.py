"""Low-level graph algorithm primitives used by the connectivity providers.

All functions take an adjacency dict ``{vertex: set(neighbors)}`` over string
vertex ids.  Where several answers are valid they break ties by vertex id, so
results are deterministic; ``biconnected_components`` returns its blocks in no
fixed order.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from itertools import combinations


class UnionFind:
    """Index-based union-find with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.count = n

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
        self.count -= 1
        return ra

    def attach(self, a: int, b: int) -> None:
        """Hang the root a directly under b, whatever the sizes, so that the
        root of b's class stays the root of the joined class."""
        rb = self.find(b)
        self.parent[a] = b
        self.size[rb] += self.size[a]
        self.count -= 1

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


def k_cliques(adj: dict[str, set[str]], k: int) -> list[frozenset[str]]:
    """All cliques of exactly k vertices, each grown from its least vertex."""
    found = [
        frozenset((v, *rest))
        for v in adj
        for rest in cliques_within(adj, {u for u in adj[v] if u > v}, k - 1)
    ]
    return sorted(found, key=sorted)


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


def vertex_cut_below(adj: dict[str, set[str]], k: int) -> set[str] | None:
    """A vertex cut of size < k in a connected non-complete graph, else None.

    Flow-based (Menger).  It suffices to probe pairs (v0, t) for t outside
    the closed neighborhood of a minimum-degree vertex v0, plus non-adjacent
    pairs of v0's neighbors: every minimum cut separates one such pair.  The
    split network is built once, as residual arc lists, and every probe
    starts from a fresh copy of its capacities.
    """
    names = sorted(adj)
    idx = {v: i for i, v in enumerate(names)}
    # split network: node 2i enters vertex i and node 2i+1 leaves it.  Arc 2i
    # runs from 2i to 2i+1 with capacity 1, arc 2e from 2i+1 to 2j with
    # capacity k for the e-th directed edge (i, j), and arc a ^ 1 reverses
    # arc a.  A probe runs from 2s+1 to 2t, so the arcs of s and t never bind.
    dedges = [(i, idx[v]) for i, u in enumerate(names) for v in adj[u]]
    head = [a ^ 1 for a in range(2 * len(names))]
    head += [x for i, j in dedges for x in (2 * j, 2 * i + 1)]
    cap = [1, 0] * len(names) + [k, 0] * len(dedges)
    arcs = [[a] for a in range(2 * len(names))]
    for e, (i, j) in enumerate(dedges, len(names)):
        arcs[2 * i + 1].append(2 * e)
        arcs[2 * j].append(2 * e + 1)
    v0 = min(names, key=lambda v: (len(adj[v]), v))
    pairs = [(v0, t) for t in names if t != v0 and t not in adj[v0]]
    for x, y in combinations(sorted(adj[v0]), 2):
        if y not in adj[x]:
            pairs.append((x, y))
    for s, t in pairs:
        reach = _reach_below(head, arcs, cap[:], 2 * idx[s] + 1, 2 * idx[t], k)
        if reach is not None:
            return {v for v in names if 2 * idx[v] in reach and 2 * idx[v] + 1 not in reach}
    return None


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
