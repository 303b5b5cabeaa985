"""Connectivity properties of simple graphs and their maximal components.

Four property kinds are supported:

* ``components`` — plain connectedness (the empty graph does not count).
* ``clique`` — the graph is covered by its k-cliques and any two of its
  k-cliques are linked by a chain of adjacent k-cliques (adjacent means
  sharing k-1 vertices).  Maximal components are the classical clique
  percolation communities; they may overlap and are unions of their member
  cliques rather than induced subgraphs.  A graph's communities come from
  ``cuts.clique_percolation``, the sweep the diagram engine runs: a
  union-find over its merges groups the cliques.  A level of
  ``block_levels`` is a list of communities, each the set of its k-cliques,
  so inclusion between levels is inclusion of clique sets.  For k >= 4 the
  union graph of one community may hold every edge of another (a K4 whose
  six edges each lie in some K4 of one other class), so subgraph inclusion
  may give a community two successors where its cliques give one.
* ``vertex_block`` — deleting any fewer than k vertices (induced) leaves a
  nonempty connected graph.  Complete graphs on at least k vertices pass.
  Maximal components may overlap in fewer than k vertices.  For k = 2 they
  are the biconnected components, bridges included as K2, from one
  iterative Hopcroft-Tarjan search.  For k >= 3 the search starts from the
  biconnected components, peels off vertices of degree below k (such a
  vertex lies in one block at most, its closed neighbourhood when that is a
  k-clique), and splits the rest along vertex cuts smaller than k, followed
  by a maximality filter.  A cut is found by max-flow on the split network
  (Menger), probing only the vertices that two sweeps leave unsettled
  (after Wen et al., ICDE 2016).  A vertex is settled once no cut below k
  can separate it from a fixed vertex v0; v0 and its neighbours start
  settled, and the rest are probed in BFS order.  A vertex with k settled
  neighbours is settled, as a cut below k misses one of them.  Every member
  of a previous level's block is settled once v0 or k of its members are:
  the block keeps its property at the next level, so a cut below k leaves
  it connected and misses one of those members.  Non-adjacent neighbour
  pairs of v0 inside one such block are not probed, for the same reason.
  ``block_levels`` hands each level's blocks to the next level's search.
* ``edge_block`` — deleting any fewer than k edges (spanning) leaves a
  connected graph.  A single vertex passes for every k, so maximal
  components partition the vertex set.  For k = 2 they are the connected
  components left once the bridges (the K2 blocks of the biconnected
  search) are deleted.  For k >= 3 vertices of degree below k are peeled
  off as singletons and the rest is split along any cut of fewer than k
  edges, found by Nagamochi-Ibaraki contraction, until no such cut is
  left.

``vertex_blocks`` and ``edge_blocks`` search a bare adjacency dict for
vertex sets; ``property_components`` wraps them in induced subgraphs, and
``block_levels`` runs them on every level of a filtered graph on integer
vertices.  The diagram engine (``persistence.index_diagram``) needs those
levels only for blocks at k >= 3, as it sweeps the other properties in one
pass over the edges in weight order; ``verify`` tabulates every property on
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from operator import itemgetter

from .cuts import (
    UnionFind,
    biconnected_components,
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
        if self.k < 1 or int(self.k) != self.k:
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


def vertex_blocks(adj: dict, k: int, prior=()) -> list[frozenset]:
    """Maximal vertex sets of the graph ``adj`` that stay nonempty and
    connected after deleting any fewer than k of their vertices (induced),
    in no fixed order.  Vertices may be any sortable hashables.

    ``prior`` may hold such sets of a subgraph of ``adj``, such as the
    previous level's blocks: they keep the property in ``adj``, so each
    component's cut search takes those inside it as groups no cut splits.
    """
    if k == 1:
        return [frozenset(c) for c in connected_vertex_sets(adj)]
    # a k-vertex-connected subgraph with k >= 2 lies inside one biconnected block
    blocks = [frozenset(b) for b in biconnected_components(adj) if len(b) >= k]
    if k == 2:
        return blocks
    prior_at: dict = {}  # each prior set under its least vertex
    for b in prior:
        prior_at.setdefault(min(b), []).append(b)
    found: set[frozenset] = set()
    seen: set[frozenset] = set()
    stack = blocks
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


def edge_blocks(adj: dict, k: int) -> list[frozenset]:
    """Maximal vertex sets of the graph ``adj`` that stay connected after
    deleting any fewer than k of their edges (spanning), in no fixed order.
    They partition the vertices; vertices may be any sortable hashables."""
    if k == 1:
        return [frozenset(c) for c in connected_vertex_sets(adj)]
    if k == 2:
        # a K2 block is a bridge; without the bridges the classes are the components
        adj = {v: set(nbrs) for v, nbrs in adj.items()}
        for u, v in [b for b in biconnected_components(adj) if len(b) == 2]:
            adj[u].discard(v)
            adj[v].discard(u)
        return [frozenset(c) for c in connected_vertex_sets(adj)]
    out: list[frozenset] = []
    stack = [set(adj)]
    while stack:
        sub = _restrict(adj, stack.pop())
        # a vertex of degree below k is a block of its own
        out += (frozenset((v,)) for v, _ in _peel(sub, k))
        for comp in connected_vertex_sets(sub):
            side = edge_cut_below({v: sub[v] for v in comp}, k)
            if side is None:
                out.append(frozenset(comp))
            else:
                stack += (side, comp - side)
    return out


def _block_search(spec: PropertySpec):
    """The maximal-vertex-set search for components or a block kind, and its k."""
    if spec.kind == "components":
        return vertex_blocks, 1
    return (edge_blocks if spec.kind == "edge_block" else vertex_blocks), spec.k


def _clique_levels(criticals, edges, k: int) -> list[list[frozenset[tuple]]]:
    """Clique communities of each level of a filtered graph, each the set of
    its k-cliques as sorted tuples: one ``clique_percolation`` sweep over the
    (u, v, w) edges, its cliques grouped per level by a union-find that
    takes the merges as the levels grow."""
    cliques, births, merges = clique_percolation(sorted(edges, key=itemgetter(2)), k)
    uf = UnionFind(len(cliques))
    levels = []
    born = e = 0
    for c in criticals:
        while born < len(cliques) and births[born] <= c:
            born += 1
        while e < len(merges) and merges[e][2] <= c:
            uf.union(merges[e][0], merges[e][1])
            e += 1
        classes: dict[int, list[tuple]] = {}
        for i in range(born):
            classes.setdefault(uf.find(i), []).append(cliques[i])
        levels.append([frozenset(cs) for cs in classes.values()])
    return levels


def block_levels(criticals, births, edges, spec: PropertySpec) -> list[list[frozenset]]:
    """Maximal components of each level of a filtered graph: vertex i is
    born at ``births[i]``, an (u, v, w) edge enters at w.  They are clique
    sets for ``clique:k`` and vertex sets otherwise, from one adjacency that
    grows level by level; each level's vertex blocks are the next level's
    ``prior``.
    """
    if spec.kind == "clique":
        return _clique_levels(criticals, edges, spec.k)
    blocks, k = _block_search(spec)
    born = sorted(range(len(births)), key=births.__getitem__)
    edges = sorted(edges, key=itemgetter(2))
    adj: dict[int, set[int]] = {}
    levels = []
    i = e = 0
    for c in criticals:
        while i < len(born) and births[born[i]] <= c:
            adj[born[i]] = set()
            i += 1
        while e < len(edges) and edges[e][2] <= c:
            u, v, _ = edges[e]
            adj[u].add(v)
            adj[v].add(u)
            e += 1
        if spec.kind == "vertex_block":
            levels.append(vertex_blocks(adj, k, levels[-1] if levels else ()))
        else:
            levels.append(blocks(adj, k))
    return levels


def _induced_sorted(adj: dict[str, set[str]], vertex_sets) -> list[SimpleGraph]:
    """Induced subgraphs on the given vertex sets, sorted by vertex set."""
    return [
        SimpleGraph(frozenset(vs), frozenset((u, v) for u in vs for v in adj[u] & vs if u < v))
        for vs in sorted(vertex_sets, key=lambda s: tuple(sorted(s)))
    ]


def property_components(g: SimpleGraph, spec: PropertySpec) -> list[SimpleGraph]:
    """Maximal subgraphs satisfying the property, sorted by vertex set.

    For components and edge blocks these partition (a subset of) the
    vertices; clique communities and vertex blocks may overlap.
    """
    if spec.kind == "clique":
        (classes,) = _clique_levels((0.0,), [(u, v, 0.0) for u, v in sorted(g.edges)], spec.k)
        # sorted by vertex set, ties in the order of the classes' sorted cliques
        comms = [
            SimpleGraph(frozenset(chain(*cs)), frozenset(e for c in cs for e in combinations(c, 2)))
            for cs in sorted(sorted(cs) for cs in classes)
        ]
        return sorted(comms, key=lambda h: sorted(h.vertices))
    blocks, k = _block_search(spec)
    adj = g.adjacency()
    return _induced_sorted(adj, blocks(adj, k))


def contains_property_subgraph(g: SimpleGraph, spec: PropertySpec) -> bool:
    """Does g contain any subgraph satisfying the property?

    For components and edge blocks a single vertex qualifies; for cliques a
    k-clique must exist; for vertex blocks a k-vertex-connected subgraph.
    """
    return bool(property_components(g, spec))
