"""Low-level graph algorithm primitives used by the connectivity providers.

All functions take an adjacency dict ``{vertex: set(neighbors)}`` over string
vertex ids and iterate in sorted order, so results are deterministic.
"""

from __future__ import annotations

from collections import deque
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

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.count -= 1
        return True


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


def maximal_cliques(adj: dict[str, set[str]]) -> list[frozenset[str]]:
    """All maximal cliques via Bron-Kerbosch with pivoting."""
    out: list[frozenset[str]] = []

    def expand(r: frozenset[str], p: set[str], x: set[str]) -> None:
        if not p and not x:
            out.append(r)
            return
        pivot = max(sorted(p | x), key=lambda u: len(adj[u] & p))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    if adj:
        expand(frozenset(), set(adj), set())
    return sorted(out, key=sorted)


def k_cliques(adj: dict[str, set[str]], k: int) -> list[frozenset[str]]:
    """All cliques of exactly k vertices."""
    if k == 1:
        return [frozenset((v,)) for v in sorted(adj)]
    if k == 2:
        seen = {frozenset((u, v)) for u in adj for v in adj[u]}
        return sorted(seen, key=sorted)
    found: set[frozenset[str]] = set()
    for m in maximal_cliques(adj):
        if len(m) >= k:
            found.update(frozenset(c) for c in combinations(sorted(m), k))
    return sorted(found, key=sorted)


def stoer_wagner(adj: dict[str, set[str]]) -> tuple[int, set[str]]:
    """Global minimum edge cut with unit weights; needs >= 2 vertices.

    Returns (cut size, the vertices on one side of a minimum cut).  On a
    disconnected graph the cut size is 0.
    """
    names = sorted(adj)
    if len(names) < 2:
        raise ValueError("minimum cut needs at least two vertices")
    w: dict[str, dict[str, int]] = {a: {b: 1 for b in adj[a]} for a in names}
    group: dict[str, set[str]] = {a: {a} for a in names}
    best_size: int | None = None
    best_side: set[str] = set()
    while len(w) > 1:
        nodes = sorted(w)
        start = nodes[0]
        in_a = {start}
        conn = {v: w[start].get(v, 0) for v in nodes if v != start}
        order = [start]
        last_weight = 0
        while conn:
            nxt = max(sorted(conn), key=lambda v: conn[v])
            last_weight = conn.pop(nxt)
            order.append(nxt)
            in_a.add(nxt)
            for u, wt in w[nxt].items():
                if u not in in_a:
                    conn[u] = conn.get(u, 0) + wt
        t = order[-1]
        s = order[-2]
        if best_size is None or last_weight < best_size:
            best_size = last_weight
            best_side = set(group[t])
        for u, wt in list(w[t].items()):
            if u == s:
                continue
            w[s][u] = w[s].get(u, 0) + wt
            w[u][s] = w[u].get(s, 0) + wt
        for u in list(w[t]):
            del w[u][t]
        del w[t]
        group[s] |= group[t]
    assert best_size is not None
    return best_size, best_side


def vertex_cut_below(adj: dict[str, set[str]], k: int) -> set[str] | None:
    """A vertex cut of size < k in a connected non-complete graph, else None.

    Flow-based (Menger).  It suffices to probe pairs (v0, t) for t outside
    the closed neighborhood of a minimum-degree vertex v0, plus non-adjacent
    pairs of v0's neighbors: every minimum cut separates one such pair.
    """
    names = sorted(adj)
    v0 = min(names, key=lambda v: (len(adj[v]), v))
    pairs = [(v0, t) for t in names if t != v0 and t not in adj[v0]]
    for x, y in combinations(sorted(adj[v0]), 2):
        if y not in adj[x]:
            pairs.append((x, y))
    for s, t in pairs:
        cut = _st_vertex_cut_below(adj, s, t, k)
        if cut is not None:
            return cut
    return None


def _st_vertex_cut_below(adj: dict[str, set[str]], s: str, t: str, k: int) -> set[str] | None:
    """Minimum s-t vertex cut if smaller than k, else None; s,t non-adjacent."""
    names = sorted(adj)
    idx = {v: i for i, v in enumerate(names)}
    big = len(names) + 1
    # split network: node 2i enters vertex i, node 2i+1 leaves it
    cap: dict[tuple[int, int], int] = {}
    nbrs: list[set[int]] = [set() for _ in range(2 * len(names))]

    def arc(a: int, b: int, c: int) -> None:
        cap[(a, b)] = cap.get((a, b), 0) + c
        nbrs[a].add(b)
        nbrs[b].add(a)

    for v in names:
        i = idx[v]
        arc(2 * i, 2 * i + 1, big if v in (s, t) else 1)
    for u in names:
        for v in adj[u]:
            arc(2 * idx[u] + 1, 2 * idx[v], big)
    src, snk = 2 * idx[s] + 1, 2 * idx[t]
    flow: dict[tuple[int, int], int] = {}

    def residual(a: int, b: int) -> int:
        return cap.get((a, b), 0) - flow.get((a, b), 0)

    value = 0
    while value < k:
        parent = {src: src}
        queue = deque([src])
        while queue and snk not in parent:
            a = queue.popleft()
            for b in nbrs[a]:
                if b not in parent and residual(a, b) > 0:
                    parent[b] = a
                    queue.append(b)
        if snk not in parent:
            break
        b = snk
        while b != src:
            a = parent[b]
            flow[(a, b)] = flow.get((a, b), 0) + 1
            flow[(b, a)] = flow.get((b, a), 0) - 1
            b = a
        value += 1
    if value >= k:
        return None
    reach = {src}
    queue = deque([src])
    while queue:
        a = queue.popleft()
        for b in nbrs[a]:
            if b not in reach and residual(a, b) > 0:
                reach.add(b)
                queue.append(b)
    return {v for v in names if 2 * idx[v] in reach and 2 * idx[v] + 1 not in reach}
