"""Connectivity properties of simple graphs and their maximal components.

Four property kinds are supported:

* ``components`` — plain connectedness (the empty graph does not count).
* ``clique`` — the graph is covered by its k-cliques and any two of its
  k-cliques are linked by a chain of adjacent k-cliques (adjacent means
  sharing k-1 vertices).  Maximal components are the classical clique
  percolation communities; they may overlap and are unions of their member
  cliques rather than induced subgraphs.  A graph's communities come from
  ``cuts.clique_percolation``, the sweep the diagram engine runs: the
  classes of its merges group the cliques.  A level of ``block_levels`` is
  a list of communities, each the set of its k-cliques, so inclusion
  between levels is inclusion of clique sets.  For k >= 4 the
  union graph of one community may hold every edge of another (a K4 whose
  six edges each lie in some K4 of one other class), so subgraph inclusion
  may give a community two successors where its cliques give one.
* ``vertex_block`` — deleting any fewer than k vertices (induced) leaves a
  nonempty connected graph.  Complete graphs on at least k vertices pass.
  Maximal components may overlap in fewer than k vertices.  For k = 2 they
  are the biconnected components, bridges included as K2.  For k >= 3 the
  search starts from the biconnected components, peels off vertices of
  degree below k (such a vertex lies in one block at most, its closed
  neighbourhood when that is a k-clique), and splits the rest along vertex
  cuts smaller than k, followed by a maximality filter.  The maximal sets
  are unique, so the result does not depend on which cut a split takes.
  Cuts come from ``cuts.vertex_cut_below``, which settles most vertices by
  sweeps and probes the rest by local flows; a search hands it the blocks
  of a subgraph, the previous level's, as groups no cut splits.
* ``edge_block`` — deleting any fewer than k edges (spanning) leaves a
  connected graph.  A single vertex passes for every k, so maximal
  components partition the vertex set.  For k = 2 they are the
  2-edge-connected classes: the connected components left once the
  bridges are deleted.  For k >= 3 vertices of degree below k are peeled
  off as singletons and the rest is split along any cut of fewer than k
  edges, found by Nagamochi-Ibaraki contraction, until no such cut is
  left.

Every maximal component comes from one sweep of a filtered graph on
integer vertices.  By the union property the maximal components of all
its levels form a forest, and ``merge_forest`` sorts the edges by weight
once and picks the nodes and merges that build it, each from a sweep of
those edges:

* components and blocks at k = 1: the vertices, merged by the edges in
  weight order (Kruskal);
* edge blocks at k = 2: the vertices, merged into 2-edge-connected classes
  by ``cuts.bridge_merges``;
* edge blocks at k >= 3: the vertices, merged at the edge weights by
  ``edge_block_merges``;
* vertex blocks at k = 2: the edges, merged into biconnected blocks by
  ``cuts.block_merges``; a block stands for the ends of its edges;
* vertex blocks at k >= 3: the blocks, born and merged at the edge
  weights by ``vertex_block_merges`` (two blocks may share an edge, so the
  nodes cannot be edges);
* clique communities: the k-cliques, merged by
  ``cuts.clique_percolation``.

The classes of the merges up to c among the nodes born by c are the
maximal components of the level at c.  The diagram engine
(``persistence.index_diagram``) runs the elder rule on these merges, and
every table is counted off that diagram.  ``block_levels`` reads the
classes at any critical values off the same merges, for the tests.  A
single graph is one level, with every vertex and edge at one weight:
``top_components`` reads it, for ``property_components``, the
``components`` command and the quiver components, and reads a clique
community back to the vertices of its cliques.

Blocks at k >= 3 change only where an edge enters: a block of level j
that is neither a block of level j - 1 nor a vertex born at c_j holds both
ends of an edge entering at c_j (else its induced subgraph, and with it
the property, is the same at level j - 1, where it lies in a block that
lies in a block of level j).  So both sweeps take their levels at their
own edge weights, one level for each run of equal weights, and search
only what the edges entering there touch; a vertex born where no edge
enters is a node born there for edge blocks, and no vertex block.

* Edge blocks, ``edge_block_merges``.  A block of level j - 1 keeps its
  property at level j and shares a vertex with some block of level j,
  whose union with it passes too, so every level's blocks are unions of
  the previous level's.  One partition of the vertices holds them.  At
  c_j the 2-edge-connected classes that gained an edge (from the merges of
  ``cuts.bridge_merges``, as a block with k >= 2 lies in one) are searched
  again on their contracted multigraph: each current block is a
  super-vertex, and two are joined by the number of edges between them.
  No cut below k splits a super-vertex, so the cuts of the contracted
  graph are those of the class.  Every block found merges its
  super-vertices at c_j, and the diagram is the elder rule over the
  vertex births and these merges.
* Vertex blocks, ``vertex_block_merges``.  The biconnected blocks of
  every level, with their vertex sets, come from replaying the edge merges
  of ``cuts.block_merges`` on a partition of the edges, so no level runs a
  biconnected search of its own.  A block with k >= 3 vertices lies in one
  biconnected block.  A biconnected block that gained no edge at c_j was a
  biconnected block of level j - 1 with the same induced subgraph, so it
  keeps its blocks.  So each biconnected block holds its own blocks, with
  their nodes, and two that join pass theirs to the one kept.  Only the
  biconnected blocks that gained an edge are searched, each by itself,
  with its previous blocks as groups.  A block found that is not a block
  of level j - 1 is a node born at c_j, into which the blocks of level
  j - 1 inside it, now gone, merge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from operator import itemgetter

from .cuts import (
    Partition,
    block_merges,
    bridge_merges,
    clique_percolation,
    connected_vertex_sets,
    edge_cut_below,
    vertex_cut_below,
)
from .graphs import GraphError, SimpleGraph

PROPERTY_KINDS = ("components", "clique", "vertex_block", "edge_block")


@dataclass(frozen=True)
class PropertySpec:
    """Selector for a connectivity property; k is ignored for components."""

    kind: str
    k: int = 1

    def __post_init__(self):
        if self.kind not in PROPERTY_KINDS:
            raise GraphError(f"unknown property kind {self.kind!r}")
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise GraphError(f"k must be a positive integer, got {self.k!r}")
        if self.kind == "clique" and self.k < 2:
            raise GraphError("clique communities need k >= 2")

    def label(self) -> str:
        if self.kind == "components":
            return "components"
        return f"{self.kind}:{self.k}"


def is_property_connected(g: SimpleGraph, spec: PropertySpec) -> bool:
    """Membership of the whole graph in the property class: g is its own
    only maximal component."""
    return property_components(g, spec) == [g]


def _restrict(adj: dict[str, set[str]], vs) -> dict[str, set[str]]:
    return {v: adj[v] & vs for v in vs}


def _peel(sub: dict[str, set[str]], k: int) -> list[tuple[str, set[str]]]:
    """Delete from sub, one at a time, every vertex whose degree is or falls
    below k; return each with its neighbours at the time it went."""
    gone = []
    low = [v for v, nbrs in sub.items() if len(nbrs) < k]
    while low:
        v = low.pop()
        if v in sub:
            gone.append((v, sub.pop(v)))
            for u in gone[-1][1]:
                sub[u].discard(v)
                if len(sub[u]) < k:
                    low.append(u)
    return gone


def _split_vertex_blocks(adj, block: frozenset, k: int, prior) -> list[frozenset]:
    """The maximal k-vertex-connected sets (k >= 3) of the graph ``adj`` (a
    neighbour set per vertex) inside one biconnected block of it, in no
    fixed order.

    ``prior`` holds such sets of a subgraph of ``adj``, such as the block's
    sets at the previous level: they keep the property in ``adj``, so each
    component's cut search takes those inside it as groups no cut splits.
    """
    prior_at: dict = {}  # each prior set under its least vertex
    for b in prior:
        prior_at.setdefault(min(b), []).append(b)
    found: set[frozenset] = set()
    seen: set[frozenset] = set()
    stack = [block]
    while stack:
        vs = stack.pop()
        if vs in seen:
            continue
        seen.add(vs)
        sub = _restrict(adj, vs)
        # a vertex of degree below k lies in one block at most: its closed
        # neighbourhood, when that is a k-clique
        for v, nbrs in _peel(sub, k):
            if len(nbrs) == k - 1 and all(len(adj[u] & nbrs) == k - 2 for u in nbrs):
                found.add(frozenset(nbrs | {v}))
        for comp_set in connected_vertex_sets(sub):
            comp = {v: sub[v] for v in comp_set}
            complete = all(len(nbrs) == len(comp) - 1 for nbrs in comp.values())
            if complete:
                cut = None
            else:
                inside = [b for v in comp_set for b in prior_at.get(v, ()) if b <= comp_set]
                cut = vertex_cut_below(comp, k, inside)
            if cut is None:
                found.add(frozenset(comp_set))
                continue
            for piece in connected_vertex_sets(_restrict(adj, comp_set - cut)):
                stack.append(frozenset(piece | cut))
    ordered = sorted(found, key=lambda s: (-len(s), tuple(sorted(s))))
    keep: list[frozenset] = []
    for s in ordered:
        if not any(s <= t for t in keep):
            keep.append(s)
    return keep


def _split_edge_blocks(weights: dict, k: int) -> list[set]:
    """Maximal vertex sets of a weighted graph (``{v: {u: weight}}``, which
    this consumes) that edges of total weight below k never disconnect, for
    k >= 3."""
    out: list[set] = []
    stack = [weights]
    while stack:
        sub = stack.pop()
        # a vertex of weighted degree below k is a block of its own
        degree = {v: sum(nbrs.values()) for v, nbrs in sub.items()}
        low = [v for v, d in degree.items() if d < k]
        while low:
            v = low.pop()
            if v in sub:
                out.append({v})
                for u, c in sub.pop(v).items():
                    del sub[u][v]
                    degree[u] -= c
                    if degree[u] < k:
                        low.append(u)
        for comp in connected_vertex_sets(sub):
            side = edge_cut_below({v: sub[v] for v in comp}, k)
            if side is None:
                out.append(comp)
                continue
            for piece in (side, comp - side):
                stack.append({v: {u: c for u, c in sub[v].items() if u in piece} for v in piece})
    return out


def edge_block_merges(n: int, edges, k: int) -> list[tuple[int, int, float]]:
    """Merges (a, b, c) of the vertices 0..n-1 into the edge blocks at
    k >= 3 of the graph of (u, v, w) edges in nondecreasing w, level by
    level: each weight c is a level, where the edges of weight c enter, and
    the blocks of the level at c are the classes of the merges up to c.

    Each block is a super-vertex of one contracted multigraph, which gains
    the entering edges between blocks level by level.  A level searches only
    the 2-edge-connected classes that such an edge lies in (see the module
    docstring), and contracts each block it finds.
    """
    bridges = bridge_merges(n, edges)
    classes = Partition(n)  # 2-edge-connected classes
    tops = [{v} for v in range(n)]  # the blocks of each class, by label
    blocks = Partition(n)
    weights: list[dict[int, int]] = [{} for _ in range(n)]  # between block labels
    merges = []
    b = e = 0
    while e < len(edges):
        c = edges[e][2]
        while b < len(bridges) and bridges[b][2] <= c:
            keep, gone = classes.join(classes.label[bridges[b][0]], classes.label[bridges[b][1]])
            tops[keep] |= tops[gone]
            b += 1
        touched = set()
        while e < len(edges) and edges[e][2] <= c:
            u, v, _ = edges[e]
            e += 1
            x, y = blocks.label[u], blocks.label[v]
            if x != y:
                weights[x][y] = weights[x].get(y, 0) + 1
                weights[y][x] = weights[y].get(x, 0) + 1
                if classes.label[u] == classes.label[v]:
                    touched.add(classes.label[u])
        for root in touched:
            top = tops[root]
            graph = {t: {s: w for s, w in weights[t].items() if s in top} for t in top}
            for found in _split_edge_blocks(graph, k):
                first, *rest = found
                for t in rest:
                    keep, gone = blocks.join(blocks.label[first], t)
                    top.discard(gone)
                    row = weights[keep]
                    for s, w in weights[gone].items():
                        del weights[s][gone]
                        if s != keep:
                            row[s] = row.get(s, 0) + w
                            weights[s][keep] = row[s]
                    weights[gone] = {}
                    merges.append((first, t, c))
    return merges


def merge_forest(births, edges, spec: PropertySpec):
    """The merge forest of ``spec`` over a filtered graph on vertices
    0..n-1 (vertex i born at ``births[i]``, an (u, v, w) edge entering at
    w), from one sort of the edges by weight that every sweep walks.

    Returns the node births, the merges (a, b, w) of nodes in nondecreasing
    w, and what the nodes stand for: a function that reads a class of nodes
    as the set a level lists, its vertices, or its k-cliques for
    ``clique:k``.  The classes of the merges up to c among the nodes born
    by c are the maximal components of the level at c (see the module
    docstring).
    """
    edges = sorted(edges, key=itemgetter(2))
    if spec.kind == "edge_block" and spec.k > 2:
        return births, edge_block_merges(len(births), edges, spec.k), frozenset
    if spec.kind == "vertex_block" and spec.k > 2:
        blocks, node_births, merges = vertex_block_merges(len(births), edges, spec.k)
        return node_births, merges, lambda nodes: frozenset().union(*map(blocks.__getitem__, nodes))
    if spec.kind == "clique":
        cliques, clique_births, merges = clique_percolation(edges, spec.k)
        return clique_births, merges, lambda nodes: frozenset(map(cliques.__getitem__, nodes))
    if spec.kind == "components" or spec.k == 1:
        return births, edges, frozenset
    if spec.kind == "edge_block":
        return births, bridge_merges(len(births), edges), frozenset
    # an edge stands for its two ends, a biconnected block for their union
    return (
        [w for _, _, w in edges],
        block_merges(len(births), edges),
        lambda nodes: frozenset(chain.from_iterable(edges[i][:2] for i in nodes)),
    )


def _merge_levels(criticals, births, merges, read) -> list[list[frozenset]]:
    """The classes of each level of a forest from ``merge_forest``, each
    turned into the level's set by ``read``: a level at c holds the nodes
    born by c, joined by the merges up to c, and a Partition keeps the
    members of every class."""
    order = sorted(range(len(births)), key=births.__getitem__)
    classes = Partition(len(births))
    label, members = classes.label, classes.members
    live: dict[int, None] = {}  # the labels of the classes born so far
    levels = []
    born = e = 0
    for c in criticals:
        while born < len(order) and births[order[born]] <= c:
            live[order[born]] = None
            born += 1
        while e < len(merges) and merges[e][2] <= c:
            x, y = label[merges[e][0]], label[merges[e][1]]
            if x != y:
                del live[classes.join(x, y)[1]]
            e += 1
        levels.append([read(members[x]) for x in live])
    return levels


def vertex_block_merges(n: int, edges, k: int):
    """The blocks at k >= 3 of the graph of (u, v, w) edges on vertices
    0..n-1, in nondecreasing w, as nodes with their births and merges
    (a, b, c), level by level at the weights as in ``edge_block_merges``: a
    block is born where it is first found, and merges into the block that
    holds it where it is gone (see the module docstring)."""
    joins = block_merges(n, edges)
    bicon = Partition(len(edges))  # biconnected blocks, as edge classes
    verts = [{u, v} for u, v, _ in edges]  # the vertices of each, by label
    nodes: list[dict[frozenset, int]] = [{} for _ in edges]  # its blocks, with their nodes
    adj: list[set[int]] = [set() for _ in range(n)]
    blocks: list[frozenset] = []  # the block of each node
    node_births: list[float] = []
    merges = []
    e = m = 0
    while e < len(edges):
        c = edges[e][2]
        entered = e
        while e < len(edges) and edges[e][2] <= c:
            u, v, _ = edges[e]
            adj[u].add(v)
            adj[v].add(u)
            e += 1
        while m < len(joins) and joins[m][2] <= c:
            x, y = bicon.label[joins[m][0]], bicon.label[joins[m][1]]
            if x != y:
                keep, gone = bicon.join(x, y)
                verts[keep] |= verts[gone]
                nodes[keep] |= nodes[gone]
            m += 1
        for r in dict.fromkeys(bicon.label[j] for j in range(entered, e)):
            if len(verts[r]) < k:
                continue
            prior, nodes[r] = nodes[r], {}
            for b in _split_vertex_blocks(adj, frozenset(verts[r]), k, prior):
                a = prior.pop(b, None)
                if a is None:  # not found again: a new node
                    a = len(blocks)
                    blocks.append(b)
                    node_births.append(c)
                nodes[r][b] = a
            for b, a in prior.items():  # gone, so inside one new block
                merges.append((a, next(node for f, node in nodes[r].items() if b < f), c))
    return blocks, node_births, merges


def block_levels(criticals, births, edges, spec: PropertySpec) -> list[list[frozenset]]:
    """Maximal components of each level of a filtered graph, at each of the
    given critical values: vertex i is born at ``births[i]``, an (u, v, w)
    edge enters at w.  They are clique sets for ``clique:k`` and vertex sets
    otherwise, read off the forest of ``merge_forest``.
    """
    return _merge_levels(criticals, *merge_forest(births, edges, spec))


def top_components(births, edges, spec: PropertySpec) -> list[tuple[frozenset, frozenset]]:
    """The maximal components of a whole graph on vertices 0..n-1 (``births``
    and (u, v, w) edges as for ``block_levels``), in no fixed order: the
    single level of the graph with every vertex and edge at one weight, so
    each sweep searches once.  Each comes as its vertex set and the set that
    level lists, which for ``clique:k`` is the set of its k-cliques and
    otherwise the vertex set again."""
    (top,) = block_levels((0.0,), [0.0] * len(births), [(u, v, 0.0) for u, v, _ in edges], spec)
    if spec.kind == "clique":
        return [(frozenset(chain.from_iterable(cliques)), cliques) for cliques in top]
    return [(vs, vs) for vs in top]


def property_components(g: SimpleGraph, spec: PropertySpec) -> list[SimpleGraph]:
    """Maximal subgraphs satisfying the property, sorted by vertex set, and
    clique communities on one vertex set by their sorted cliques.

    They are the ``top_components`` of g on its sorted vertices: a clique
    community is the union of its k-cliques, any other component the
    subgraph its vertices induce.  For components and edge blocks these
    partition (a subset of) the vertices; clique communities and vertex
    blocks may overlap.
    """
    names = sorted(g.vertices)
    index = {v: i for i, v in enumerate(names)}
    adj = g.adjacency()
    found = []
    for vs, members in top_components([0.0] * len(names), [(index[u], index[v], 0.0) for u, v in g.edges], spec):
        vs = frozenset(names[i] for i in vs)
        if spec.kind == "clique":
            es = frozenset((names[a], names[b]) for clique in members for a, b in combinations(clique, 2))
        else:
            es = frozenset((u, v) for u in vs for v in adj[u] & vs if u < v)
        found.append((sorted(vs), sorted(members), SimpleGraph(vs, es)))
    return [h for *_, h in sorted(found, key=itemgetter(0, 1))]


def contains_property_subgraph(g: SimpleGraph, spec: PropertySpec) -> bool:
    """Does g contain any subgraph satisfying the property?

    For components and edge blocks a single vertex qualifies; for cliques a
    k-clique must exist; for vertex blocks a k-vertex-connected subgraph.
    """
    return bool(property_components(g, spec))
