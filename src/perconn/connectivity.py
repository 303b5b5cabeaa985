"""Connectivity properties of simple graphs and their maximal components.

Four property kinds are supported:

* ``components`` — plain connectedness (the empty graph does not count).
* ``clique`` — the graph is covered by its k-cliques and any two of its
  k-cliques are linked by a chain of adjacent k-cliques (adjacent means
  sharing k-1 vertices).  Maximal components are the classical clique
  percolation communities; they may overlap and are unions of their member
  cliques rather than induced subgraphs.
* ``vertex_block`` — deleting any fewer than k vertices (induced) leaves a
  nonempty connected graph.  Complete graphs on at least k vertices pass;
  otherwise the test is a minimum vertex cut (Menger, by max-flow on the
  split network).  Maximal components may overlap in fewer than k vertices,
  so they are found by recursive separation along small cuts followed by a
  maximality filter.
* ``edge_block`` — deleting any fewer than k edges (spanning) leaves a
  connected graph.  A single vertex passes for every k, so maximal
  components partition the vertex set; they are found by recursively
  splitting along global minimum cuts (Stoer-Wagner) smaller than k.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .cuts import (
    UnionFind,
    connected_vertex_sets,
    k_cliques,
    stoer_wagner,
    vertex_cut_below,
)
from .graphs import CapExceeded, GraphError, SimpleGraph, simple_graph
from .posets import Poset

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


def is_complete(g: SimpleGraph) -> bool:
    n = len(g.vertices)
    return len(g.edges) == n * (n - 1) // 2


def _component_sort_key(g: SimpleGraph):
    return tuple(sorted(g.vertices))


def _plain_components(g: SimpleGraph) -> list[SimpleGraph]:
    return [g.induced(c) for c in connected_vertex_sets(g.adjacency())]


def _clique_classes(g: SimpleGraph, k: int) -> tuple[list[frozenset[str]], list[list[int]]]:
    """k-cliques of g and the index classes of the clique-adjacency relation."""
    cliques = k_cliques(g.adjacency(), k)
    if not cliques:
        return [], []
    uf = UnionFind(len(cliques))
    buckets: dict[tuple[str, ...], list[int]] = {}
    for i, c in enumerate(cliques):
        for sub in combinations(sorted(c), k - 1):
            buckets.setdefault(sub, []).append(i)
    for group in buckets.values():
        for j in group[1:]:
            uf.union(group[0], j)
    classes: dict[int, list[int]] = {}
    for i in range(len(cliques)):
        classes.setdefault(uf.find(i), []).append(i)
    ordered = sorted(classes.values(), key=lambda idxs: sorted(sorted(cliques[i]) for i in idxs))
    return cliques, ordered


def _clique_union(cliques: list[frozenset[str]], idxs) -> SimpleGraph:
    vs: set[str] = set()
    es = []
    for i in idxs:
        members = sorted(cliques[i])
        vs.update(members)
        es.extend(combinations(members, 2))
    return simple_graph(vs, es)


def is_property_connected(g: SimpleGraph, spec: PropertySpec) -> bool:
    """Membership of the whole graph in the property class: g is its own
    only maximal component."""
    return property_components(g, spec) == [g]


def _vertex_block_components(g: SimpleGraph, k: int) -> list[SimpleGraph]:
    found: dict[frozenset[str], SimpleGraph] = {}
    seen: set[frozenset[str]] = set()
    stack: list[frozenset[str]] = [frozenset(g.vertices)]
    while stack:
        vs = stack.pop()
        if vs in seen:
            continue
        seen.add(vs)
        h = g.induced(vs)
        for comp_set in connected_vertex_sets(h.adjacency()):
            if len(comp_set) < k:
                continue
            comp = g.induced(comp_set)
            if is_complete(comp):
                found[frozenset(comp_set)] = comp
                continue
            cut = vertex_cut_below(comp.adjacency(), k)
            if cut is None:
                found[frozenset(comp_set)] = comp
                continue
            rest = g.induced(comp_set - cut)
            for piece in connected_vertex_sets(rest.adjacency()):
                stack.append(frozenset(piece | cut))
    ordered = sorted(found, key=lambda s: (-len(s), tuple(sorted(s))))
    keep: list[frozenset[str]] = []
    for s in ordered:
        if not any(s <= t for t in keep):
            keep.append(s)
    return [g.induced(s) for s in sorted(keep, key=lambda s: tuple(sorted(s)))]


def _edge_block_components(g: SimpleGraph, k: int) -> list[SimpleGraph]:
    out: list[frozenset[str]] = []
    stack = [frozenset(c) for c in connected_vertex_sets(g.adjacency())]
    while stack:
        vs = stack.pop()
        if len(vs) == 1:
            out.append(vs)
            continue
        sub = g.induced(vs)
        size, side = stoer_wagner(sub.adjacency())
        if size >= k:
            out.append(vs)
            continue
        for part in (side, vs - side):
            piece = g.induced(part)
            stack.extend(frozenset(c) for c in connected_vertex_sets(piece.adjacency()))
    return [g.induced(s) for s in sorted(out, key=lambda s: tuple(sorted(s)))]


def property_components(g: SimpleGraph, spec: PropertySpec) -> list[SimpleGraph]:
    """Maximal subgraphs satisfying the property, sorted by vertex set.

    For components and edge blocks these partition (a subset of) the
    vertices; clique communities and vertex blocks may overlap.
    """
    if spec.kind == "components":
        return _plain_components(g)
    if spec.kind == "clique":
        cliques, classes = _clique_classes(g, spec.k)
        comms = [_clique_union(cliques, idxs) for idxs in classes]
        return sorted(comms, key=_component_sort_key)
    if spec.kind == "vertex_block":
        if spec.k == 1:
            return _plain_components(g)
        return _vertex_block_components(g, spec.k)
    if spec.k == 1:
        return _plain_components(g)
    return _edge_block_components(g, spec.k)


def contains_property_subgraph(g: SimpleGraph, spec: PropertySpec) -> bool:
    """Does g contain any subgraph satisfying the property?

    For components and edge blocks a single vertex qualifies; for cliques a
    k-clique must exist; for vertex blocks a k-vertex-connected subgraph.
    """
    return bool(property_components(g, spec))


def _clique_state_graphs(g: SimpleGraph, k: int) -> list[SimpleGraph]:
    """All subgraphs that are unions of chains of adjacent k-cliques."""
    cliques = k_cliques(g.adjacency(), k)
    clique_graphs = [simple_graph(c, combinations(sorted(c), 2)) for c in cliques]
    adjacent: list[list[int]] = [[] for _ in cliques]
    for i, j in combinations(range(len(cliques)), 2):
        if len(cliques[i] & cliques[j]) == k - 1:
            adjacent[i].append(j)
            adjacent[j].append(i)
    states: dict[tuple[frozenset[str], frozenset[tuple[str, str]]], SimpleGraph] = {}
    frontier: list[SimpleGraph] = []
    for cg in clique_graphs:
        key = (cg.vertices, cg.edges)
        if key not in states:
            states[key] = cg
            frontier.append(cg)
    while frontier:
        u = frontier.pop()
        contained = [i for i, c in enumerate(cliques) if c <= u.vertices and clique_graphs[i].edges <= u.edges]
        for i in contained:
            for j in adjacent[i]:
                nxt = u.union(clique_graphs[j])
                key = (nxt.vertices, nxt.edges)
                if key not in states:
                    states[key] = nxt
                    frontier.append(nxt)
    return sorted(states.values(), key=lambda s: (len(s.vertices), len(s.edges), _component_sort_key(s)))


def subobject_poset(g: SimpleGraph, spec: PropertySpec, size_cap: int = 7) -> Poset:
    """Poset of all property-satisfying subgraphs of g, ordered by inclusion.

    Exhaustive enumeration, guarded by a vertex cap.  Induced subgraphs
    suffice for components and blocks (maximal elements agree); clique
    communities need genuine unions of cliques.
    """
    if len(g.vertices) > size_cap:
        raise CapExceeded(
            f"subobject poset limited to {size_cap} vertices, got {len(g.vertices)}"
        )
    elements: list[SimpleGraph]
    if spec.kind == "clique":
        elements = _clique_state_graphs(g, spec.k)
    else:
        vs = g.sorted_vertices()
        elements = []
        for r in range(1, len(vs) + 1):
            for subset in combinations(vs, r):
                h = g.induced(subset)
                if is_property_connected(h, spec):
                    elements.append(h)
    below = []
    for a in elements:
        mask = 0
        for i, b in enumerate(elements):
            if a.includes(b):
                mask |= 1 << i
        below.append(mask)
    return Poset._from_masks(elements, below)

