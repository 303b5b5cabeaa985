"""Low-level graph algorithm primitives used by the connectivity sweeps.

All functions take an adjacency dict ``{vertex: set(neighbors)}`` over
sortable vertex ids, or edges over them; ``edge_cut_below`` takes edge
weights, ``{vertex: {neighbor: weight}}``.  Where several answers are valid
they break ties by vertex id, so results are deterministic.

``clique_percolation`` is the one clique kernel.  It sweeps edges in order
and finds each k-clique at its last edge (sequential clique percolation,
Kumpula et al. 2008); the diagram engine feeds its births and merges to the
elder rule, and ``connectivity.block_levels`` groups its cliques into
communities.  ``posets.check_clique_poset`` checks those communities
against the k-cliques that ``cliques_within`` lists, with no sweep.

``bridge_merges`` and ``block_merges`` sweep the edges of a filtered graph
once, in weight order, over one rooted Kruskal forest: they merge the
vertices into 2-edge-connected classes and the edges into biconnected
blocks as the non-tree edges cover tree paths (incremental 2-edge and
2-vertex connectivity, after Westbrook and Tarjan, Algorithmica 7, 1992).
Replayed on a ``Partition`` up to any weight, their merges give that
level's classes, which is how the k >= 3 block sweeps of ``connectivity``
find the part of a level that an entering edge can change.

``edge_cut_below`` finds an edge cut below k by Nagamochi-Ibaraki
contraction on a weighted graph, so a caller may hand it blocks already
known to be k-edge-connected as single super-vertices, weighted by the
number of edges between them (after Chang et al., SIGMOD 2013).

``vertex_cut_below`` runs a max-flow probe only where two sweeps leave a
doubt.  From a vertex v0 and its neighbours it grows the set ``known`` of
vertices that no cut below k missing v0 separates from v0: a vertex with k
neighbours in the set joins it (a cut below k misses one of them, and that
one lies on the vertex's side), and so does every member of a group, a
vertex set known to stay connected after any fewer than k deletions, once
v0 or k of its members are in it (a cut below k misses one of them, and
leaves the rest of the group connected).  A vertex t outside the set is
probed by a fan: a flow from t to the whole set, each path ending at the
first member it reaches, so the probe stays near t (after the local
connectivity tests of Wen et al., ICDE 2016).  It is exact both ways:

* k paths from t, disjoint but for t, end at k distinct members; a cut
  below k that misses v0 and t misses one whole path, whose end is joined
  to v0, so t joins the set;
* a flow below k leaves a residual cut S of fewer than k vertices, without
  t, that separates t from every member outside S; the set holds v0 and
  its k or more neighbours, so some member lies outside S, and S is a cut.

A minimal cut that holds v0 separates two non-adjacent neighbours of v0,
so such pairs are probed last, one flow each, unless one group holds both:
no cut below k splits a group.  So v0 is taken, where one exists, with all
its neighbours inside one group, which leaves no pair to probe.
"""

from __future__ import annotations

from collections import defaultdict, deque
from heapq import heapify, heappop, heappush
from itertools import combinations


class UnionFind:
    """Index-based union-find with path compression, whose classes join by
    ``attach``: the jump pointers of ``bridge_merges`` and ``block_merges``."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        parent = self.parent
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def attach(self, a: int, b: int) -> None:
        """Hang the root a directly under b, so that the root of b's class
        stays the root of the joined class."""
        self.parent[a] = b


class Partition:
    """Classes of 0..n-1 that only merge, each named by a label: one of its
    members.  A join relabels the smaller class, so reading a label is one
    list lookup, and each element is relabelled O(log n) times."""

    def __init__(self, n: int):
        self.label = list(range(n))
        self.members = [[i] for i in range(n)]

    def join(self, x: int, y: int) -> tuple[int, int]:
        """Merge the classes labelled x and y (x != y); return the label
        kept and the label dropped."""
        if len(self.members[x]) < len(self.members[y]):
            x, y = y, x
        for i in self.members[y]:
            self.label[i] = x
        self.members[x] += self.members[y]
        self.members[y] = []
        return x, y


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
    built once.  A partial clique one short of r is closed by each of its
    candidates, last candidate first, with no list of later ones.
    """
    if r == 0:
        return [()]
    out: list[tuple[str, ...]] = []
    stack: list[tuple[tuple[str, ...], list[str]]] = [((), sorted(cand))]
    while stack:
        base, rest = stack.pop()
        if len(base) + 1 == r:
            out += [base + (v,) for v in reversed(rest)]
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
        common = adj[u] & adj[v]
        # every edge is a 2-clique; above k = 2 an edge with no common
        # neighbour closes none
        if common or k == 2:
            for rest in cliques_within(adj, common, k - 2):
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


def _rooted_forest(n: int, edges) -> tuple[list[int], list[int], list[int], list[int]]:
    """Kruskal's spanning forest of ``edges`` over vertices 0..n-1, rooted.

    ``edges`` holds (u, v, weight) in nondecreasing weight.  Returns each
    vertex's parent (itself at a root), the index of the tree edge to its
    parent (-1 at a root), its depth, and the indices of the non-tree edges
    in order.  The tree path between the ends of a non-tree edge uses only
    edges sorted before it, so it is there at the non-tree edge's weight.
    """
    trees = Partition(n)
    label = trees.label
    tree: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    cycles = []
    for i, (u, v, _) in enumerate(edges):
        if label[u] == label[v]:
            cycles.append(i)
        else:
            trees.join(label[u], label[v])
            tree[u].append((v, i))
            tree[v].append((u, i))
    parent = list(range(n))
    up = [-1] * n
    depth = [-1] * n
    for root in range(n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y, i in tree[x]:
                if depth[y] < 0:
                    parent[y], up[y], depth[y] = x, i, depth[x] + 1
                    stack.append(y)
    return parent, up, depth, cycles


def bridge_merges(n: int, edges) -> list[tuple[int, int, float]]:
    """Merges of the vertices into 2-edge-connected classes, in weight order.

    A tree edge stops being a bridge at the first non-tree edge whose path
    covers it, which then merges its two ends.  ``jump`` finds the top of
    the covered subtree above a vertex, so each tree edge is walked once.
    """
    parent, _, depth, cycles = _rooted_forest(n, edges)
    jump = UnionFind(n)
    merges = []
    for i in cycles:
        u, v, w = edges[i]
        x, y = jump.find(u), jump.find(v)
        while x != y:
            if depth[x] < depth[y]:
                x, y = y, x
            merges.append((x, parent[x], w))
            jump.attach(x, parent[x])
            x = jump.find(x)
    return merges


def block_merges(n: int, edges) -> list[tuple[int, int, float]]:
    """Merges of the edges (nodes: edge indices) into biconnected blocks, in
    weight order.

    Each non-tree edge merges with every tree edge on its path.  A walk
    that takes the tree edge above x and then the one above parent(x)
    joins x to parent(x) in ``jump``: a spanning tree meets each block in a
    subtree, so the two edges lie in one block from then on, and later
    walks skip from x to the top of its class.  A jump may pass the
    meeting point of the two ends, but only over edges of the block the
    walk joins anyway.
    """
    parent, up, depth, cycles = _rooted_forest(n, edges)
    jump = UnionFind(n)
    merges = []
    for i in cycles:
        x, y, w = edges[i]
        tx = ty = -1  # top of the class this side took last
        while x != y:
            if depth[x] < depth[y]:
                x, y, tx, ty = y, x, ty, tx
            merges.append((i, up[x], w))
            if tx >= 0:
                jump.attach(tx, x)
            tx = jump.find(x)
            x = parent[tx]
    return merges


def edge_cut_below(weights: dict, k: int) -> set | None:
    """One side of an edge cut of weight below k, or None if none exists.

    ``weights`` maps each vertex to ``{neighbour: weight}``, symmetric, with
    positive integer weights: the number of edges between two vertices, or
    between two groups of vertices contracted beforehand.  Nagamochi-Ibaraki
    contraction.  Each phase returns a super-vertex whose weighted degree is
    below k, if there is one.  Otherwise it runs one maximum-adjacency
    ordering v1, v2, ... and contracts every consecutive pair whose
    attachment weight w(vi, {v1..vi-1}) is at least k.  That is exact: in an
    MA ordering lambda(vi-1, vi) >= w(vi, {v1..vi-1}) (Nagamochi-Ibaraki
    1992), so no cut below k separates a contracted pair.  The last vertex's
    attachment is its whole degree, so every phase contracts at least one
    pair.
    """
    w = {v: weights[v] for v in sorted(weights)}
    group = {v: {v} for v in w}
    while len(w) > 1:
        for v, nbrs in w.items():
            if sum(nbrs.values()) < k:
                return group[v]
        attach = dict.fromkeys(w, 0)
        heap = [(0, v) for v in w]
        heapify(heap)
        order: list[tuple] = []
        while heap:
            neg, v = heappop(heap)
            if v not in attach or -neg != attach[v]:
                continue  # already ordered, or a stale entry
            order.append((v, attach.pop(v)))
            for u, wt in w[v].items():
                if u in attach:
                    attach[u] += wt
                    heappush(heap, (-attach[u], u))
        rep: dict = {}
        for v, a in order:
            if a < k:
                lead = v
            else:
                group[lead] |= group.pop(v)
            rep[v] = lead
        merged: dict = {h: {} for h in group}
        for v, nbrs in w.items():
            row = merged[rep[v]]
            for u, wt in nbrs.items():
                if rep[u] != rep[v]:
                    row[rep[u]] = row.get(rep[u], 0) + wt
        w = merged
    return None


def vertex_cut_below(adj: dict[str, set[str]], k: int, groups=()) -> set[str] | None:
    """A vertex cut of size < k in a connected non-complete graph, else None.

    Flow-based (Menger), on a split network built at the first probe.  Below
    degree k the neighbours of a minimum-degree vertex are a cut.  Else take
    a vertex v0, of least degree among those whose neighbours all lie in
    one group with them, if any, or else in the whole graph.  A cut below k
    that misses v0 separates it from some vertex t; a minimal one that holds
    v0 separates two non-adjacent neighbours of v0.  Before
    any probe a set ``known`` of vertices that no cut below k missing v0
    separates from v0 grows from v0 and its neighbours by two sweeps:

    * a vertex with k neighbours in ``known`` joins it: a cut below k misses
      one of them, and that neighbour lies on the vertex's side;
    * every member of a group joins once v0 or k of its members are in
      ``known``: a cut below k leaves the rest of a group connected and
      misses one of those members.

    ``groups`` is a sequence of vertex sets of adj that stay connected
    after deleting any fewer than k of their vertices, such as the blocks of
    a subgraph.  Each vertex t outside ``known``, in BFS order from v0, is
    probed by a fan, a flow from t to all of ``known`` (see the module
    docstring): below k it gives a cut, else t joins ``known`` and the
    sweeps run again.  Then a non-adjacent pair of v0's neighbours is probed
    unless one group holds both: no cut below k separates two members of a
    group.
    """
    names = sorted(adj)
    v0 = min(names, key=lambda v: (len(adj[v]), v))
    if len(adj[v0]) < k:
        return set(adj[v0])
    # a vertex whose neighbours all lie in one group with it leaves no pair
    # to probe
    inner = [v for g in groups for v in g if adj[v] <= g]
    if inner:
        v0 = min(inner, key=lambda v: (len(adj[v]), v))
    idx = {v: i for i, v in enumerate(names)}
    member_of: dict[str, list[int]] = {}
    for g, members in enumerate(groups):
        for v in members:
            member_of.setdefault(v, []).append(g)
    missing = [k] * len(groups)  # members a group lacks in known before it joins
    count = dict.fromkeys(names, 0)  # neighbours in known
    known: set[str] = set()
    ends: set[int] = set()  # the leaving nodes of known, where fan paths end

    def learn(todo: list[str]) -> None:
        while todo:
            v = todo.pop()
            if v in known:
                continue
            known.add(v)
            ends.add(2 * idx[v] + 1)
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

    def cut_from(s: str, sinks: set[int]) -> set[str] | None:
        if not net:
            net.extend(_split_network(adj, names, idx, k))
        reach = _reach_below(*net, 2 * idx[s] + 1, sinks, k)
        if reach is None:
            return None
        return {names[a >> 1] for a in reach if not a & 1 and a + 1 not in reach}

    order = [v0]
    seen = {v0}
    for t in order:
        if len(known) == len(names):
            break
        for w in sorted(adj[t] - seen):
            seen.add(w)
            order.append(w)
        if t not in known:
            cut = cut_from(t, ends)
            if cut is not None:
                return cut
            learn([t])
    for x, y in combinations(sorted(adj[v0]), 2):
        if y in adj[x] or not set(member_of.get(x, ())).isdisjoint(member_of.get(y, ())):
            continue
        cut = cut_from(x, {2 * idx[y]})
        if cut is not None:
            return cut
    return None


def _split_network(adj: dict[str, set[str]], names: list[str], idx: dict, k: int):
    """The split network of adj for vertex cuts below k, as residual arc
    lists: arc heads, each node's arcs and capacities.

    Node 2i enters vertex i and node 2i+1 leaves it.  Arc 2i runs from 2i
    to 2i+1 with capacity 1, arc 2e from 2i+1 to 2j with capacity k for the
    e-th directed edge (i, j), and arc a ^ 1 reverses arc a.  A probe leaves
    from 2s+1, so the arc of s never binds.
    """
    dedges = [(i, idx[v]) for i, u in enumerate(names) for v in adj[u]]
    head = [a ^ 1 for a in range(2 * len(names))]
    head += [x for i, j in dedges for x in (2 * j, 2 * i + 1)]
    cap = [1, 0] * len(names) + [k, 0] * len(dedges)
    arcs = [[a] for a in range(2 * len(names))]
    for e, (i, j) in enumerate(dedges, len(names)):
        arcs[2 * i + 1].append(2 * e)
        arcs[2 * j].append(2 * e + 1)
    return head, arcs, cap


def _reach_below(
    head: list[int], arcs: list[list[int]], cap: list[int], src: int, sinks: set[int], k: int
) -> dict[int, int] | None:
    """Nodes reachable from src in the residual network of a maximum flow
    below k into ``sinks``, or None if k units reach them.  Augments along
    BFS paths, each ending at the first sink it reaches; ``cap`` is left as
    it was found."""
    used: list[int] = []
    reach = None
    for _ in range(k):
        prev = {src: -1}  # node -> arc it was reached by
        queue = [src]
        end = -1
        for a in queue:
            for e in arcs[a]:
                if cap[e] and head[e] not in prev:
                    end = head[e]
                    prev[end] = e
                    if end in sinks:
                        break
                    queue.append(end)
                    end = -1
            if end >= 0:
                break
        if end < 0:
            reach = prev
            break
        while end != src:
            e = prev[end]
            cap[e] -= 1
            cap[e ^ 1] += 1
            used.append(e)
            end = head[e ^ 1]
    for e in used:
        cap[e] += 1
        cap[e ^ 1] -= 1
    return reach
