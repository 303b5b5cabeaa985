"""Brute-force oracles, independent of the library's algorithmic paths.

Connectivity here is plain DFS; property membership is literal deletion
enumeration; components are maximality filtering over exhaustive
candidate enumerations; a vertex cut below k is found by trying every
vertex subset, and by the max-flow search that probes every pair a
minimum cut must separate, without the sweeps that certify pairs; the
bottleneck oracle enumerates every admissible matching, and the dense
bottleneck oracle filters the full cost matrix at every threshold; the
pseudodistance oracle enumerates every vertex bijection, and the poset
isomorphism oracle every element bijection; the thresholded isomorphism
search is the name-keyed one that the index-based search replaced.  The
maximal components of one graph come from the per-graph providers that the
library's sweeps replaced: ``vertex_blocks`` and ``edge_blocks`` search the
whole graph, from the blocks of one Hopcroft-Tarjan search
(``biconnected_components``) and the library's cut searches with no blocks
carried, and clique communities are the classes of all k-cliques joined by
shared facets.  Successor forests are found by scanning every component
pair of adjacent levels, and the blocks of a filtered graph by running a
provider from scratch on every level; the elder rule keeps every class as
an explicit vertex set.  Cliques are listed by ordered extension with every
partial clique's later candidates, and clique percolation lists them on
every edge.  The persistence axioms and the cornerpoints of a table are
read one cell at a time, through a call per cell.  The graph reader is the
record-by-record loop that builds name-keyed dicts and derives the vertex
weights in a second pass over the edges.  The orbit
filtration of a G-quiver is built level by level as validated invariant
subquivers, and its persistence is read from their components.  The
G-quiver reader is the record-by-record loop that builds a Quiver and a
GroupAction and checks each generator map against the whole domain; its
orbits come from a union-find, and its weighted orbit graph from those.
Subobject posets are ordered by a subgraph test of every pair, and a
clique poset is every union of a chain of adjacent k-cliques; weak
directedness is tried on every pair of elements.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from itertools import accumulate, chain, combinations, permutations

import perconn as pc
from perconn.connectivity import _split_edge_blocks, _split_vertex_blocks
from perconn.graphs import format_weight
from perconn.metrics import _climb, _hopcroft_karp


def oracle_parse_weighted_graph(text: str) -> pc.WeightedGraph:
    """The edge-list format read into name-keyed dicts, one record at a time,
    then assembled: vertex weights derived in a second pass over the edges,
    explicit weights checked against them in record order."""
    edges: dict[tuple[str, str], float] = {}
    explicit: dict[str, float] = {}
    lines: dict[str, int] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        record = parts[0]
        if record == "e":
            if len(parts) != 4:
                raise pc.FormatError("edge record must be 'e <u> <v> <weight>'", ln)
            u, v, ws = parts[1], parts[2], parts[3]
            try:
                w = float(ws)
            except ValueError:
                raise pc.FormatError(f"bad weight {ws!r}", ln) from None
            if not math.isfinite(w):
                raise pc.FormatError(f"non-finite weight {ws!r}", ln)
            if u == v:
                raise pc.FormatError(f"self-loop at {u!r}", ln)
            e = (u, v) if u < v else (v, u)
            if e in edges:
                raise pc.FormatError(f"duplicate edge {e[0]} {e[1]}", ln)
            edges[e] = w
        elif record == "v":
            if len(parts) != 3:
                raise pc.FormatError("vertex record must be 'v <u> <weight>'", ln)
            u, ws = parts[1], parts[2]
            try:
                w = float(ws)
            except ValueError:
                raise pc.FormatError(f"bad weight {ws!r}", ln) from None
            if not math.isfinite(w):
                raise pc.FormatError(f"non-finite weight {ws!r}", ln)
            if u in explicit:
                raise pc.FormatError(f"duplicate vertex weight for {u!r}", ln)
            explicit[u] = w
            lines[u] = ln
        else:
            raise pc.FormatError(f"unknown record type {record!r}", ln)
    ew: dict[tuple[str, str], float] = {}
    vw: dict[str, float] = {}
    for e, w in edges.items():
        w += 0.0
        ew[e] = w
        for x in e:
            if w < vw.get(x, math.inf):
                vw[x] = w
    for v, w in explicit.items():
        w += 0.0
        derived = vw.get(v)
        if derived is not None and w > derived:
            raise pc.FormatError(
                f"explicit weight {w!r} of vertex {v!r} exceeds the incident minimum {derived!r}", lines[v]
            )
        vw[v] = w
    return pc.WeightedGraph(pc.SimpleGraph(frozenset(vw), frozenset(ew)), ew, vw, frozenset(explicit))


def oracle_elder_rule(births, merges) -> pc.Diagram:
    """The elder rule with every class kept as an explicit set of nodes: a
    merge of two classes ends the one whose earliest birth is later."""
    classes = [{i} for i in range(len(births))]
    bars = []
    for a, b, w in merges:
        ca = next(c for c in classes if a in c)
        cb = next(c for c in classes if b in c)
        if ca is cb:
            continue
        younger = max(min(births[i] for i in ca), min(births[i] for i in cb))
        if younger < w:
            bars.append(pc.Cornerpoint(younger, w))
        classes.remove(cb)
        ca |= cb
    bars += [pc.Cornerpoint(min(births[i] for i in c), math.inf) for c in classes]
    return pc.diagram(bars)


def dfs_connected(vertices: frozenset[str], edges) -> bool:
    if not vertices:
        return False
    adj = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    start = next(iter(sorted(vertices)))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vertices)


def oracle_is_property(g: pc.SimpleGraph, spec: pc.PropertySpec) -> bool:
    kind, k = spec.kind, spec.k
    if kind == "components":
        return dfs_connected(g.vertices, g.edges)
    if kind == "vertex_block":
        vs = sorted(g.vertices)
        for r in range(0, k):
            for dropped in combinations(vs, r):
                keep = set(vs) - set(dropped)
                kept_edges = [e for e in g.edges if e[0] in keep and e[1] in keep]
                if not dfs_connected(frozenset(keep), kept_edges):
                    return False
        return True
    if kind == "edge_block":
        if not g.vertices:
            return False
        es = sorted(g.edges)
        for r in range(0, k):
            for gone in combinations(es, r):
                if not dfs_connected(g.vertices, set(es) - set(gone)):
                    return False
        return True
    # clique: covered by its k-cliques, all of them chained
    cliques = _all_k_cliques(g, k)
    if not cliques:
        return False
    covered_v = set().union(*cliques)
    covered_e = {e for c in cliques for e in combinations(sorted(c), 2)}
    if covered_v != set(g.vertices) or covered_e != set(g.edges):
        return False
    return _cliques_chained(cliques, k)


def _all_k_cliques(g: pc.SimpleGraph, k: int) -> list[frozenset[str]]:
    out = []
    es = set(g.edges)
    for combo in combinations(sorted(g.vertices), k):
        if all(tuple(sorted((a, b))) in es for a, b in combinations(combo, 2)):
            out.append(frozenset(combo))
    return out


def oracle_cliques_within(adj, cand, r: int) -> list[tuple]:
    """All r-cliques inside the vertex set cand, as sorted tuples, in the
    order the library lists them: ordered extension on an explicit stack,
    where every partial clique, one short of r too, gets its list of later
    candidates adjacent to all of its members."""
    out = []
    stack = [((), sorted(cand))]
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


def oracle_clique_percolation(edges, k: int):
    """Sequential clique percolation as ``cuts.clique_percolation`` runs it,
    with ``oracle_cliques_within`` called on every edge, common neighbours
    or not."""
    adj = defaultdict(set)
    cliques, births, merges, owner = [], [], [], {}
    for u, v, w in edges:
        for rest in oracle_cliques_within(adj, adj[u] & adj[v], k - 2):
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


def _cliques_chained(cliques: list[frozenset[str]], k: int) -> bool:
    n = len(cliques)
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j not in seen and len(cliques[i] & cliques[j]) == k - 1:
                seen.add(j)
                stack.append(j)
    return len(seen) == n


def union(*graphs: pc.SimpleGraph) -> pc.SimpleGraph:
    """The graph of all the graphs' vertices and edges."""
    return pc.SimpleGraph(frozenset().union(*(g.vertices for g in graphs)), frozenset().union(*(g.edges for g in graphs)))


def includes(g: pc.SimpleGraph, h: pc.SimpleGraph) -> bool:
    """h is a subgraph of g."""
    return h.vertices <= g.vertices and h.edges <= g.edges


def oracle_clique_classes(g: pc.SimpleGraph, k: int) -> set[frozenset[frozenset[str]]]:
    """The classes of every k-clique of g, two cliques joined when they
    share a (k-1)-facet, compared pairwise."""
    cliques = _all_k_cliques(g, k)
    links = [(i, j) for i, j in combinations(range(len(cliques)), 2) if len(cliques[i] & cliques[j]) == k - 1]
    return {frozenset(cliques[i] for i in members) for members in _weak_comps(range(len(cliques)), links)}


def clique_state_graphs(g: pc.SimpleGraph, k: int) -> list[pc.SimpleGraph]:
    """Every subgraph that is a union of a chain of adjacent k-cliques, a
    state grown through any k-clique whose edges it holds, by size.  For
    k <= 3 a k-clique whose edges lie in a union of a class's cliques
    shares a facet with one of them, so these union graphs are those of the
    clique sets that ``connectivity`` settles on."""
    clique_graphs = [pc.simple_graph(c, combinations(sorted(c), 2)) for c in _all_k_cliques(g, k)]
    adjacent: list[list[int]] = [[] for _ in clique_graphs]
    for i, j in combinations(range(len(clique_graphs)), 2):
        if len(clique_graphs[i].vertices & clique_graphs[j].vertices) == k - 1:
            adjacent[i].append(j)
            adjacent[j].append(i)
    states = dict.fromkeys(clique_graphs)
    frontier = list(states)
    while frontier:
        u = frontier.pop()
        # with k >= 2 a clique's edges cover its vertices
        for i in [i for i, cg in enumerate(clique_graphs) if cg.edges <= u.edges]:
            for j in adjacent[i]:
                nxt = union(u, clique_graphs[j])
                if nxt not in states:
                    states[nxt] = None
                    frontier.append(nxt)
    return sorted(states, key=lambda s: (len(s.vertices), len(s.edges), s.sorted_vertices()))


def induced_subobjects(g: pc.SimpleGraph, spec: pc.PropertySpec) -> list[pc.SimpleGraph]:
    """The induced subgraphs of g with the property, by literal deletion
    enumeration, by size and then by their sorted vertices."""
    subsets = (g.induced(s) for r in range(1, len(g.vertices) + 1) for s in combinations(g.sorted_vertices(), r))
    return [h for h in subsets if oracle_is_property(h, spec)]


def subobject_poset(g: pc.SimpleGraph, spec: pc.PropertySpec) -> pc.Poset:
    """The subobjects of g with the property, ordered by inclusion through a
    subgraph test of every pair: ``clique_state_graphs`` for ``clique:k``
    and ``induced_subobjects`` otherwise."""
    elements = clique_state_graphs(g, spec.k) if spec.kind == "clique" else induced_subobjects(g, spec)
    return pc.Poset(elements, [(b, a) for a in elements for b in elements if includes(a, b)], closed=True)


def oracle_is_weakly_directed(p: pc.Poset) -> bool:
    """Every two elements with a common lower bound have a common upper
    bound, tried on every pair."""
    els = p.elements
    for a, b in combinations(els, 2):
        if any(p.leq(c, a) and p.leq(c, b) for c in els) and not any(p.leq(a, d) and p.leq(b, d) for d in els):
            return False
    return True


def oracle_components(g: pc.SimpleGraph, spec: pc.PropertySpec) -> list[pc.SimpleGraph]:
    """Maximal property-satisfying subgraphs by exhaustive enumeration."""
    candidates: set[pc.SimpleGraph] = set()
    if spec.kind == "clique":
        cliques = _all_k_cliques(g, spec.k)
        seen_unions = set()
        for r in range(1, len(cliques) + 1):
            for subset in combinations(range(len(cliques)), r):
                vs = frozenset().union(*(cliques[i] for i in subset))
                es = frozenset(
                    tuple(sorted(e))
                    for i in subset
                    for e in combinations(sorted(cliques[i]), 2)
                )
                key = (vs, es)
                if key in seen_unions:
                    continue
                seen_unions.add(key)
                h = pc.SimpleGraph(vs, es)
                if oracle_is_property(h, spec):
                    candidates.add(h)
    else:
        for r in range(1, len(g.vertices) + 1):
            for subset in combinations(g.sorted_vertices(), r):
                h = g.induced(subset)
                if oracle_is_property(h, spec):
                    candidates.add(h)
    # scan by decreasing size: any strict superset was seen before its subsets
    ordered = sorted(
        candidates,
        key=lambda h: (-(len(h.vertices) + len(h.edges)), tuple(sorted(h.vertices))),
    )
    maximal: list[pc.SimpleGraph] = []
    for h in ordered:
        if not any(includes(m, h) for m in maximal):
            maximal.append(h)
    return sorted(maximal, key=lambda c: tuple(sorted(c.vertices)))


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


def _connected_sets(adj: dict) -> list[set]:
    return _weak_comps(adj, [(u, v) for u in adj for v in adj[u]])


def vertex_blocks(adj: dict, k: int) -> list[frozenset]:
    """Maximal vertex sets of the graph ``adj`` that stay nonempty and
    connected after deleting any fewer than k of their vertices (induced),
    in no fixed order: the biconnected blocks, split at k >= 3 by the
    library's cut search with no groups, one biconnected block at a time."""
    if k == 1:
        return [frozenset(c) for c in _connected_sets(adj)]
    # a k-vertex-connected subgraph with k >= 2 lies inside one biconnected block
    blocks = [frozenset(b) for b in biconnected_components(adj) if len(b) >= k]
    if k == 2:
        return blocks
    return [s for block in blocks for s in _split_vertex_blocks(adj, block, k, ())]


def edge_blocks(adj: dict, k: int) -> list[frozenset]:
    """Maximal vertex sets of the graph ``adj`` that stay connected after
    deleting any fewer than k of their edges (spanning), in no fixed order:
    the components once the bridges are deleted at k = 2, split at k >= 3
    by the library's contraction search from single vertices."""
    if k == 1:
        return [frozenset(c) for c in _connected_sets(adj)]
    if k == 2:
        # a K2 block is a bridge; without the bridges the classes are the components
        adj = {v: set(nbrs) for v, nbrs in adj.items()}
        for u, v in [b for b in biconnected_components(adj) if len(b) == 2]:
            adj[u].discard(v)
            adj[v].discard(u)
        return [frozenset(c) for c in _connected_sets(adj)]
    return [frozenset(b) for b in _split_edge_blocks({v: dict.fromkeys(nbrs, 1) for v, nbrs in adj.items()}, k)]


def provider_sets(adj: dict, spec: pc.PropertySpec) -> list[frozenset]:
    """The maximal vertex sets of the graph ``adj`` for any kind but
    ``clique``, from ``vertex_blocks`` or ``edge_blocks``."""
    if spec.kind == "vertex_block":
        return vertex_blocks(adj, spec.k)
    return edge_blocks(adj, 1 if spec.kind == "components" else spec.k)


def oracle_property_components(g: pc.SimpleGraph, spec: pc.PropertySpec) -> list[pc.SimpleGraph]:
    """Maximal components of g as ``property_components`` lists them, from
    the per-graph providers: the induced subgraphs on the sets of
    ``provider_sets``, or for ``clique:k`` the union graphs of the classes
    of the k-cliques that ``oracle_cliques_within`` lists, joined by shared
    (k-1)-facets.  Sorted by vertex set, and clique communities on one
    vertex set by their sorted cliques."""
    adj = g.adjacency()
    if spec.kind != "clique":
        found = sorted(provider_sets(adj, spec), key=lambda s: tuple(sorted(s)))
        return [pc.SimpleGraph(vs, frozenset((u, v) for u in vs for v in adj[u] & vs if u < v)) for vs in found]
    cliques = oracle_cliques_within(adj, g.vertices, spec.k)
    holders = defaultdict(list)
    for i, c in enumerate(cliques):
        for facet in combinations(c, spec.k - 1):
            holders[facet].append(i)
    links = [(held[0], i) for held in holders.values() for i in held[1:]]
    comms = []
    for members in _weak_comps(range(len(cliques)), links):
        cs = sorted(cliques[i] for i in members)
        vs = frozenset(chain.from_iterable(cs))
        comms.append((sorted(vs), cs, pc.SimpleGraph(vs, frozenset(e for c in cs for e in combinations(c, 2)))))
    return [h for *_, h in sorted(comms, key=itemgetter(0, 1))]


def brute_force_cut_below(adj: dict[str, set[str]], k: int) -> set[str] | None:
    """A smallest vertex set below k whose deletion leaves a disconnected
    graph, by trying every subset; None if there is none."""
    for r in range(k):
        for cut in combinations(sorted(adj), r):
            if disconnects(adj, set(cut)):
                return set(cut)
    return None


def disconnects(adj: dict[str, set[str]], cut: set[str]) -> bool:
    """Does deleting cut leave at least two vertices, not all connected?"""
    rest = frozenset(adj) - cut
    edges = [(u, v) for u in rest for v in adj[u] & rest if u < v]
    return len(rest) > 1 and not dfs_connected(rest, edges)


def probe_every_pair_cut_below(adj: dict[str, set[str]], k: int) -> set[str] | None:
    """A vertex cut below k of a connected non-complete graph, else None, by
    a max-flow probe of every pair that a minimum cut must separate: a
    minimum-degree vertex v0 against each non-neighbour, and each
    non-adjacent pair of v0's neighbours (Menger, on the split network)."""
    names = sorted(adj)
    idx = {v: i for i, v in enumerate(names)}
    # node 2i enters vertex i, node 2i+1 leaves it; arc a ^ 1 reverses arc a
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
        reach = _flow_reach_below(head, arcs, cap[:], 2 * idx[s] + 1, 2 * idx[t], k)
        if reach is not None:
            return {v for v in names if 2 * idx[v] in reach and 2 * idx[v] + 1 not in reach}
    return None


def _flow_reach_below(head, arcs, cap, src, snk, k):
    """Nodes reachable from src in the residual network of a maximum flow
    below k, or None if k units reach snk.  Augments along BFS paths."""
    for _ in range(k):
        prev = {src: -1}
        queue = [src]
        for a in queue:
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


def oracle_bottleneck(d1: pc.Diagram, d2: pc.Diagram) -> float:
    """Exhaustive minimum over all admissible matchings."""

    def expand(d):
        fin, infs = [], []
        for p in d.points:
            for _ in range(p.multiplicity):
                (infs if p.is_infinite else fin).append((p.birth, p.death))
        return fin, infs

    f1, i1 = expand(d1)
    f2, i2 = expand(d2)
    if len(i1) != len(i2):
        return math.inf
    best_inf = math.inf
    births2 = [b for b, _ in i2]
    if i1:
        for perm in permutations(range(len(i2))):
            cost = max(abs(i1[idx][0] - births2[j]) for idx, j in enumerate(perm))
            best_inf = min(best_inf, cost)
    else:
        best_inf = 0.0

    best = [math.inf]

    def diag(p):
        return (p[1] - p[0]) / 2.0

    def assign(i: int, used: set[int], cost: float):
        if cost >= best[0]:
            return
        if i == len(f1):
            rest = max((diag(f2[j]) for j in range(len(f2)) if j not in used), default=0.0)
            best[0] = min(best[0], max(cost, rest))
            return
        p = f1[i]
        assign(i + 1, used, max(cost, diag(p)))
        for j in range(len(f2)):
            if j in used:
                continue
            q = f2[j]
            c = max(abs(p[0] - q[0]), abs(p[1] - q[1]))
            assign(i + 1, used | {j}, max(cost, c))

    assign(0, set(), 0.0)
    return max(best_inf, best[0])


def _expand(d: pc.Diagram) -> tuple[list, list[float]]:
    """The finite points of a diagram, one per unit of multiplicity and
    sorted, and its infinite births, read off its Cornerpoints."""
    finite = []
    inf_births = []
    for p in d.points:
        for _ in range(p.multiplicity):
            if p.is_infinite:
                inf_births.append(p.birth)
            else:
                finite.append((p.birth, p.death))
    finite.sort()
    return finite, inf_births


def oracle_dense_bottleneck(d1: pc.Diagram, d2: pc.Diagram) -> tuple[float, list]:
    """``optimal_matching`` by the dense kernel: every threshold's adjacency
    filters the full n1 * n2 cost matrix, the lower bound is read from the
    matrix rows and columns, and each band's candidates from all n1 * n2
    costs.  The same climb, probe sequence and seeds, so the same distance
    and the same pairs."""
    f1, i1 = _expand(d1)
    f2, i2 = _expand(d2)
    if len(i1) != len(i2):
        raise ValueError("no admissible matching: different numbers of infinite cornerpoints")
    inf_pairs = []
    inf_cost = 0.0
    for b1, b2 in zip(sorted(i1), sorted(i2)):
        inf_cost = max(inf_cost, abs(b1 - b2))
        inf_pairs.append(((b1, math.inf), (b2, math.inf)))
    fin_cost, fin_pairs = _dense_finite_bottleneck(f1, f2)
    return max(inf_cost, fin_cost), inf_pairs + fin_pairs


def _dense_finite_bottleneck(f1, f2):
    if not f1 and not f2:
        return 0.0, []
    n1, n2 = len(f1), len(f2)
    rows = [[max(abs(b1 - b2), abs(d1 - d2)) for b2, d2 in f2] for b1, d1 in f1]
    half1 = [(p[1] - p[0]) / 2.0 for p in f1]
    half2 = [(q[1] - q[0]) / 2.0 for q in f2]
    cheapest = [min(row, default=math.inf) for row in rows]
    cheapest += [min(col) for col in zip(*rows)] if rows else [math.inf] * n2
    lb = max(map(min, half1 + half2, cheapest))
    seed = best = [-1] * (n1 + n2)

    def feasible(h):
        nonlocal seed, best
        points = [[j for j, c in enumerate(row) if c <= h] for row in rows]
        slots = [[j] if half2[j] <= h else [] for j in range(n2)]
        for i, cols in enumerate(points):
            for j in cols:
                slots[j].append(n2 + i)
            if half1[i] <= h:
                cols.append(n2 + i)
        match_right = list(seed)
        perfect = _hopcroft_karp(points + slots, match_right)
        if perfect:
            best = match_right
        else:
            seed = match_right
        return perfect

    def band(lo, hi):
        return sorted({c for c in chain(half1, half2, *rows) if lo < c <= hi})

    h = lb
    if not feasible(lb):
        h = _climb(lb, max(chain(half1, half2)), band, feasible)
    pairs = []
    for b, a in enumerate(best):
        left = f1[a] if a < n1 else None
        right = f2[b] if b < n2 else None
        if left is not None or right is not None:
            pairs.append((left, right))
    return h, pairs


def oracle_pseudodistance(w1: pc.WeightedGraph, w2: pc.WeightedGraph) -> float:
    """Minimum over all vertex bijections that are graph isomorphisms."""
    v1 = sorted(w1.graph.vertices)
    v2 = sorted(w2.graph.vertices)
    if len(v1) != len(v2):
        return math.inf
    if not v1:
        return 0.0
    e1 = set(w1.graph.edges)
    e2 = set(w2.graph.edges)
    best = math.inf
    for perm in permutations(v2):
        phi = dict(zip(v1, perm))
        ok = True
        cost = 0.0
        for u, v in combinations(v1, 2):
            a = tuple(sorted((u, v)))
            b = tuple(sorted((phi[u], phi[v])))
            if (a in e1) != (b in e2):
                ok = False
                break
            if a in e1:
                cost = max(cost, abs(w1.edge_weights[a] - w2.edge_weights[b]))
        if not ok:
            continue
        for u in v1:
            cost = max(cost, abs(w1.vertex_weights[u] - w2.vertex_weights[phi[u]]))
        best = min(best, cost)
    return best


def oracle_isomorphism_search(wg1: pc.WeightedGraph, wg2: pc.WeightedGraph):
    """Whether wg1 and wg2 are isomorphic within h, as a function of h, or
    None when the vertex counts, edge counts or degree sequences differ, by the
    name-keyed search that the index-based one replaced: the same visit
    order, candidate slices, twin rule and backtracking over vertex names,
    with name-keyed adjacency sets and edge-weight dicts.

    Everything that does not depend on h is built once: both adjacencies,
    the visit order, g2's vertices by degree and by weight, and the twin
    classes.  Each threshold then slices the candidate lists and runs the
    backtracking search.
    """
    g1, g2 = wg1.graph, wg2.graph
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return None
    adj1, adj2 = g1.adjacency(), g2.adjacency()
    if sorted(map(len, adj1.values())) != sorted(map(len, adj2.values())):
        return None
    vw1, vw2 = wg1.vertex_weights, wg2.vertex_weights
    ew1, ew2 = wg1.edge_weights, wg2.edge_weights

    # visit order: BFS from high-degree seeds so adjacency constraints bind early
    order: list[str] = []
    seen: set[str] = set()
    for seed in sorted(g1.vertices, key=lambda v: (-len(adj1[v]), v)):
        if seed in seen:
            continue
        queue = [seed]
        seen.add(seed)
        for u in queue:
            for w in sorted(adj1[u], key=lambda v: (-len(adj1[v]), v)):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        order += queue

    # g2's vertices by degree, sorted by weight: each candidate list is one
    # bisected slice, widened while the exact test still holds (the float
    # bounds a - h and a + h may round inwards), then sorted by name
    by_degree: dict[int, tuple[list[float], list[str]]] = {}
    for v in sorted(g2.vertices, key=lambda v: (vw2[v], v)):
        ws, names = by_degree.setdefault(len(adj2[v]), ([], []))
        ws.append(vw2[v])
        names.append(v)
    buckets = [(u, vw1[u], *by_degree[len(adj1[u])]) for u in order]
    twin_before = _previous_twins(wg1, adj1, order)

    def within(h: float) -> bool:
        if not order:
            return True
        candidates: dict[str, list[str]] = {}
        for u, a, ws, names in buckets:
            lo, hi = bisect_left(ws, a - h), bisect_right(ws, a + h)
            while lo > 0 and abs(a - ws[lo - 1]) <= h:
                lo -= 1
            while hi < len(ws) and abs(a - ws[hi]) <= h:
                hi += 1
            cands = sorted(names[k] for k in range(lo, hi) if abs(a - ws[k]) <= h)
            if not cands:
                return False
            candidates[u] = cands
        mapping: dict[str, str] = {}
        used: set[str] = set()

        def fits(u: str, v: str) -> bool:
            # u's mapped neighbours go to neighbours of v within h; as the
            # mapping is injective, v then has no other mapped neighbour iff
            # the counts agree
            mapped = 0
            for u2 in adj1[u]:
                v2 = mapping.get(u2)
                if v2 is None:
                    continue
                if v2 not in adj2[v] or abs(_edge_w(ew1, u, u2) - _edge_w(ew2, v, v2)) > h:
                    return False
                mapped += 1
            return mapped == sum(v2 in used for v2 in adj2[v])

        # depth-first over positions of ``order``; resume[pos] is the index
        # of the next candidate to try for order[pos]
        resume = [0] * len(order)
        pos = 0
        while True:
            u = order[pos]
            cands = candidates[u]
            i = resume[pos]
            while i < len(cands) and (cands[i] in used or not fits(u, cands[i])):
                i += 1
            if i == len(cands):
                if pos == 0:
                    return False
                pos -= 1
                used.remove(mapping.pop(order[pos]))
                continue
            resume[pos] = i + 1
            mapping[u] = cands[i]
            used.add(cands[i])
            pos += 1
            if pos == len(order):
                return True
            twin = twin_before.get(order[pos])
            resume[pos] = 0 if twin is None else bisect_right(candidates[order[pos]], mapping[twin])

    return within


def _edge_w(ew: dict[tuple[str, str], float], a: str, b: str) -> float:
    return ew[(a, b) if a < b else (b, a)]


def _previous_twins(wg: pc.WeightedGraph, adj: dict[str, set[str]], order: list[str]) -> dict[str, str]:
    """Map each vertex to the vertex before it in ``order`` of its twin class.

    Twins have equal weight, equal neighbourhoods apart from each other and
    equal edge weights to every shared neighbour.  Swapping the images of two
    twins keeps an isomorphism admissible at the same cost, so the search may
    require the images of a class to increase along ``order``.  Twins share
    either their open neighbourhood (not adjacent) or their closed one
    (adjacent); the relation is transitive, so one member stands for a class.
    """
    vw, ew = wg.vertex_weights, wg.edge_weights
    tails: dict[tuple[float, frozenset[str]], list[str]] = {}
    previous: dict[str, str] = {}
    for u in order:
        nbrs = frozenset(adj[u])
        for key in ((vw[u], nbrs), (vw[u], nbrs | {u})):
            members = tails.setdefault(key, [])
            for k, t in enumerate(members):
                if all(_edge_w(ew, u, x) == _edge_w(ew, t, x) for x in nbrs if x != t):
                    previous[u] = t
                    members[k] = u
                    break
            else:
                members.append(u)
    return previous


def oracle_poset_isomorphic(p: pc.Poset, q: pc.Poset) -> bool:
    """Some bijection of the elements carries the strict order of p onto q's."""
    rp, rq = set(p.relation_pairs()), set(q.relation_pairs())
    if len(p) != len(q) or len(rp) != len(rq):
        return False
    for image in permutations(q.elements):
        to = dict(zip(p.elements, image))
        if {(to[a], to[b]) for a, b in rp} == rq:
            return True
    return False


def oracle_gq_is_connected(gq: pc.GQuiver) -> bool:
    """Literal definition: no splitting into two disjoint nonempty invariant
    subquivers covering the whole."""
    q = gq.quiver
    if not q.vertices:
        return False
    comps = _weak_comps(q.vertices, [(s, t) for _, s, t in q.arrows])
    if len(comps) == 1:
        return True
    # any invariant union of weak components other than all/none gives a split
    for r in range(1, len(comps)):
        for subset in combinations(range(len(comps)), r):
            side = set().union(*(comps[i] for i in subset))
            if _invariant(gq, side):
                return False
    return True


def _weak_comps(vertices, links):
    adj = {v: set() for v in vertices}
    for s, t in links:
        adj[s].add(t)
        adj[t].add(s)
    comps = []
    seen = set()
    for v in sorted(vertices):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def _invariant(gq: pc.GQuiver, vs: set[str]) -> bool:
    for vmap, _ in gq.generator_maps():
        for v in vs:
            if vmap.get(v, v) not in vs:
                return False
    return True


def invariant_subquivers(gq: pc.GQuiver):
    """All invariant subquivers as (vertex set, arrow name set) pairs."""
    vorbs, aorbs = pc.orbits(gq)
    am = gq.quiver.arrow_map()
    out = []
    for r in range(0, len(vorbs) + 1):
        for vsub in combinations(vorbs, r):
            vs = frozenset().union(*vsub) if vsub else frozenset()
            legal = [orb for orb in aorbs if all(am[a][0] in vs and am[a][1] in vs for a in orb)]
            for q in range(0, len(legal) + 1):
                for asub in combinations(legal, q):
                    ar = frozenset().union(*asub) if asub else frozenset()
                    out.append((vs, ar))
    return out


def _invariant_vertex_sets(gq: pc.GQuiver) -> list[set[str]]:
    """Orbits of the weak components under the group, in order of smallest
    vertex: the components of the arrows joined with the generator moves."""
    links = [(src, tgt) for _, src, tgt in gq.quiver.arrows]
    links += [move for vmap, _ in gq.generator_maps() for move in vmap.items()]
    return _weak_comps(gq.quiver.vertices, links)


def _deletion_units(gq: pc.GQuiver, cls: pc.EquivariantClass) -> list[frozenset[str]]:
    vorbs, _ = pc.orbits(gq)
    if cls.kind == "orbit_deletion":
        return vorbs
    return [orb for orb in vorbs if len(orb) == 1]


def oracle_equivariantly_connected(gq: pc.GQuiver, cls: pc.EquivariantClass) -> bool:
    """Every deletion of fewer than k units leaves a connected G-quiver,
    each deletion built as a validated sub-G-quiver and tested against the
    literal splitting definition."""
    if not oracle_gq_is_connected(gq):
        return False
    if cls.kind == "isomorphisms" or cls.k == 1:
        return True
    units = _deletion_units(gq, cls)
    for r in range(1, cls.k):
        for combo in combinations(units, r):
            dropped = set().union(*combo)
            rest = pc.restrict_gquiver(gq, gq.quiver.vertices - dropped)
            if not oracle_gq_is_connected(rest):
                return False
    return True


def oracle_gq_components(gq: pc.GQuiver, cls: pc.EquivariantClass) -> list[pc.GQuiver]:
    """Maximal invariant subquivers connected for the deletion class: every
    union of vertex orbits is restricted to a sub-G-quiver and tested."""
    if gq.quiver.vertices == frozenset():
        return []
    if cls.kind == "isomorphisms" or cls.k == 1:
        return [pc.restrict_gquiver(gq, s) for s in _invariant_vertex_sets(gq)]
    vorbs, _ = pc.orbits(gq)
    candidates: list[frozenset[str]] = []
    for r in range(1, len(vorbs) + 1):
        for combo in combinations(vorbs, r):
            vs = frozenset().union(*combo)
            sub = pc.restrict_gquiver(gq, vs)
            if oracle_equivariantly_connected(sub, cls):
                candidates.append(vs)
    ordered = sorted(candidates, key=lambda s: (-len(s), tuple(sorted(s))))
    keep: list[frozenset[str]] = []
    for s in ordered:
        if not any(s <= t for t in keep):
            keep.append(s)
    return [pc.restrict_gquiver(gq, s) for s in sorted(keep, key=lambda s: tuple(sorted(s)))]


def strict_edge_deletion_connected(g: pc.SimpleGraph, k: int) -> bool:
    """Alternative edge-block reading where a deletion may drop vertices too,
    as long as fewer than k edges are lost.  Under it an isolated vertex is
    never k-edge-connected; the providers use the spanning-subgraph reading."""
    if not g.vertices:
        return False
    vs = g.sorted_vertices()
    for r in range(0, len(vs) + 1):
        for dropped in combinations(vs, r):
            remaining = set(vs) - set(dropped)
            kept_edges = [e for e in g.edges if e[0] in remaining and e[1] in remaining]
            lost_by_vertices = len(g.edges) - len(kept_edges)
            if lost_by_vertices >= k:
                continue
            budget = k - 1 - lost_by_vertices
            for extra in range(0, budget + 1):
                for extra_gone in combinations(sorted(kept_edges), extra):
                    if not dfs_connected(frozenset(remaining), set(kept_edges) - set(extra_gone)):
                        return False
    return True


def oracle_table(criticals, level_components, contains) -> pc.PersistenceFunction:
    """The persistence grid by direct counting: p(c_i, c_j) is the number of
    level-j components that contain some level-i component, where
    ``contains(d, c)`` decides inclusion of a level-i component d in a
    level-j component c for any i <= j."""
    m = len(criticals)
    rows = [[0] * (m - i) for i in range(m)]
    for j in range(m):
        comps_j = level_components[j]
        for i in range(j + 1):
            comps_i = level_components[i]
            rows[i][j - i] = sum(1 for c in comps_j if any(contains(d, c) for d in comps_i))
    inf_column = tuple(rows[i][m - 1 - i] for i in range(m))
    return pc.PersistenceFunction(tuple(criticals), tuple(tuple(r) for r in rows), inf_column)


def oracle_successor_diagram(criticals, level_components, contains) -> pc.Diagram:
    """The diagram of per-level components by the elder rule on their
    successor forest, each successor found by a scan over every component
    of the next level: ``contains(d, c)`` decides inclusion of a level-(j-1)
    component d in a level-j component c.  Each level-j component is born at
    c_j and joins, at c_j, the level-(j-1) components inside it."""
    births: list[float] = []
    merges: list[tuple[int, int, float]] = []
    prev = 0
    for j, comps in enumerate(level_components):
        start = len(births)
        births += [criticals[j]] * len(comps)
        for a, d in enumerate(level_components[j - 1] if j else ()):
            hits = [b for b, c in enumerate(comps) if contains(d, c)]
            if len(hits) != 1:
                raise pc.PersistenceAxiomError(f"component {a} of level {j - 1} lies in {len(hits)} components")
            merges.append((prev + a, start + hits[0], criticals[j]))
        prev = start
    return pc.elder_rule(births, merges)


def oracle_block_levels(criticals, births, edges, spec: pc.PropertySpec) -> list[list[frozenset]]:
    """Blocks of each level of a filtered graph on integer vertices (vertex
    i born at ``births[i]``, an (u, v, w) edge entering at w): one adjacency
    grows level by level, and ``provider_sets`` runs on all of it at every
    level, with no blocks carried from the level before."""
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
        levels.append(provider_sets(adj, spec))
    return levels


def oracle_check_axioms(pf: pc.PersistenceFunction) -> str | None:
    """Every axiom on every admissible cell pair and quadruple of the grid,
    including the infinity column: nonnegativity, p non-decreasing in the
    first and non-increasing in the second argument, and jump
    superadditivity p(u2,v1) - p(u1,v1) >= p(u2,v2) - p(u1,v2)."""
    m = pf.grid_size

    def val(i: int, j: int) -> int:
        return pf.inf_column[i] if j == m else pf.value(i, j)

    for i in range(m):
        for j in range(i, m + 1):
            if val(i, j) < 0:
                return f"negative value at ({i}, {j})"
    for i1 in range(m):
        for i2 in range(i1, m):
            for j1 in range(i2, m + 1):
                a, b = val(i1, j1), val(i2, j1)
                if a > b:
                    return f"first argument at ({i1}, {i2}, {j1})"
                for j2 in range(j1, m + 1):
                    c, d = val(i1, j2), val(i2, j2)
                    if d > b:
                        return f"second argument at ({i2}, {j1}, {j2})"
                    if b - a < d - c:
                        return f"jump superadditivity at ({i1}, {i2}, {j1}, {j2})"
    return None


def cell_check_axioms(pf: pc.PersistenceFunction) -> str | None:
    """``check_axioms`` as one call per cell: the same adjacent-cell checks,
    in the same order and with the same messages, each cell read through
    ``val``."""
    m = pf.grid_size
    cols = [pf.rows[i] + (pf.inf_column[i],) for i in range(m)]

    def val(i: int, j: int) -> int:
        return cols[i][j - i]

    def label(j: int) -> str:
        return "inf" if j == m else format_weight(pf.criticals[j])

    def at(i: int, j: int) -> str:
        return f"p({format_weight(pf.criticals[i])}, {label(j)})"

    for i in range(m):
        for j in range(i, m + 1):
            if val(i, j) < 0:
                return f"negative value {at(i, j)}"
    for i in range(m):
        for j in range(i, m + 1):
            a = val(i, j)
            if j < m and val(i, j + 1) > a:
                return (
                    "non-increasing in the second argument violated: "
                    f"{at(i, j + 1)} = {val(i, j + 1)} > {at(i, j)} = {a}"
                )
            if j == i or i + 1 == m:
                continue
            b = val(i + 1, j)
            if a > b:
                return (
                    "non-decreasing in the first argument violated: "
                    f"{at(i, j)} = {a} > {at(i + 1, j)} = {b}"
                )
            if j < m:
                c, d = val(i, j + 1), val(i + 1, j + 1)
                if b - a < d - c:
                    return (
                        "jump superadditivity violated at "
                        f"u1={format_weight(pf.criticals[i])}, u2={format_weight(pf.criticals[i + 1])}, "
                        f"v1={label(j)}, v2={label(j + 1)}: {b}-{a} < {d}-{c}"
                    )
    return None


def cell_extract_diagram(pf: pc.PersistenceFunction) -> pc.Diagram:
    """``extract_diagram`` as one call per cell: inclusion-exclusion on
    ``pf.value``, with a zero row below the grid, in the same order and
    with the same errors."""

    def at_inf(i: int) -> int:
        return pf.inf_column[i] if i >= 0 else 0

    m = pf.grid_size
    pts: list[pc.Cornerpoint] = []
    for i in range(m):
        for j in range(i + 1, m):
            mu = pf.value(i, j - 1) - pf.value(i - 1, j - 1) - pf.value(i, j) + pf.value(i - 1, j)
            if mu < 0:
                raise pc.PersistenceAxiomError(
                    f"negative multiplicity {mu} at ({pf.criticals[i]!r}, {pf.criticals[j]!r})"
                )
            if mu > 0:
                pts.append(pc.Cornerpoint(pf.criticals[i], pf.criticals[j], mu))
        mu_inf = at_inf(i) - at_inf(i - 1)
        if mu_inf < 0:
            raise pc.PersistenceAxiomError(f"negative multiplicity {mu_inf} at ({pf.criticals[i]!r}, inf)")
        if mu_inf > 0:
            pts.append(pc.Cornerpoint(pf.criticals[i], math.inf, mu_inf))
    return pc.diagram(pts)


def evaluate_diagram(d: pc.Diagram, beta: float, gamma: float) -> int:
    """Sum of multiplicities with birth < beta and death > gamma.

    beta and gamma must avoid the coordinates of the diagram (these are the
    only possible discontinuity lines of the reconstructed function) and
    satisfy beta <= gamma, gamma finite.
    """
    if beta > gamma:
        raise ValueError("evaluation needs beta <= gamma")
    if math.isinf(gamma) or math.isinf(beta):
        raise ValueError("evaluation points must be finite")
    coords = {p.birth for p in d.points} | {p.death for p in d.points if not p.is_infinite}
    if beta in coords or gamma in coords:
        raise ValueError("evaluation at a discontinuity point is not defined")
    return sum(p.multiplicity for p in d.points if p.birth < beta and p.death > gamma)


@dataclass(frozen=True)
class QuiverFiltration:
    """Nested invariant subquivers over integer orbit-cardinality criticals."""

    criticals: tuple[float, ...]
    levels: tuple[pc.GQuiver, ...]


def orbit_filtration(gq: pc.GQuiver) -> QuiverFiltration:
    """Filtration by orbit cardinality: a vertex enters at the size of its
    orbit, an arrow once its own orbit and both endpoint orbits have entered."""
    vorbs, aorbs = pc.orbits(gq)
    ventry: dict[str, int] = {}
    for orb in vorbs:
        for v in orb:
            ventry[v] = len(orb)
    am = gq.quiver.arrow_map()
    aentry: dict[str, int] = {}
    for orb in aorbs:
        for a in orb:
            src, tgt = am[a]
            aentry[a] = max(len(orb), ventry[src], ventry[tgt])
    values = sorted(set(ventry.values()) | set(aentry.values()))
    levels = []
    for c in values:
        keep_v = {v for v, e in ventry.items() if e <= c}
        keep_a = {a for a, e in aentry.items() if e <= c}
        levels.append(pc.restrict_gquiver(gq, keep_v, keep_a))
    return QuiverFiltration(tuple(float(c) for c in values), tuple(levels))


def gq_contains(d: pc.GQuiver, c: pc.GQuiver) -> bool:
    """Subquiver inclusion: vertices and arrows."""
    return d.quiver.vertices <= c.quiver.vertices and d.quiver.arrow_names() <= c.quiver.arrow_names()


def gq_levels(gq: pc.GQuiver, cls: pc.EquivariantClass) -> tuple[tuple[float, ...], list[list[pc.GQuiver]]]:
    """Critical values of the orbit filtration and each level's components."""
    filt = orbit_filtration(gq)
    return filt.criticals, [pc.gq_components(level, cls) for level in filt.levels]


def oracle_gq_persistence_function(gq: pc.GQuiver, cls: pc.EquivariantClass) -> pc.PersistenceFunction | None:
    """The persistence grid of the per-level filtration by direct counting;
    None for the empty quiver."""
    if not gq.quiver.vertices:
        return None
    return oracle_table(*gq_levels(gq, cls), gq_contains)


def oracle_gq_persistence(gq: pc.GQuiver, cls: pc.EquivariantClass) -> pc.Diagram:
    """The diagram of the per-level filtration by the elder rule on the
    successor forest of its components."""
    return oracle_successor_diagram(*gq_levels(gq, cls), gq_contains)


def _oracle_check_permutation(mapping: dict[str, str], domain, what: str) -> None:
    for a, b in mapping.items():
        if a not in domain or b not in domain:
            raise pc.QuiverError(f"{what} map uses unknown name {a!r} -> {b!r}")
    image = {mapping.get(x, x) for x in domain}
    if image != set(domain):
        raise pc.QuiverError(f"{what} map is not a permutation")


def oracle_check_action(q: pc.Quiver, action: pc.GroupAction) -> None:
    """Every generator, its maps in sorted key order, is a pair of
    permutations, and every arrow, in name order, maps onto an arrow between
    its endpoints' images."""
    am = q.arrow_map()
    for vmap, amap in action.maps():
        _oracle_check_permutation(vmap, q.vertices, "vertex")
        _oracle_check_permutation(amap, set(am), "arrow")
        for name, (src, tgt) in am.items():
            image = amap.get(name, name)
            isrc, itgt = am[image]
            if isrc != vmap.get(src, src) or itgt != vmap.get(tgt, tgt):
                raise pc.QuiverError(
                    f"generator is not an automorphism: arrow {name!r} maps to "
                    f"{image!r} but endpoints disagree"
                )


def oracle_parse_gquiver(text: str) -> pc.GQuiver:
    """The G-quiver format read record by record into lists, then built as a
    Quiver and a GroupAction and checked by ``oracle_check_action``."""
    vertices: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    names: set[str] = set()
    generators: list[tuple[dict[str, str], dict[str, str]]] = []
    current: tuple[dict[str, str], dict[str, str]] | None = None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v" and len(parts) == 2:
            vertices.append(parts[1])
        elif parts[0] == "a" and len(parts) == 4:
            if parts[1] in names:
                raise pc.FormatError(f"duplicate arrow name {parts[1]!r}", ln)
            names.add(parts[1])
            arrows.append((parts[1], parts[2], parts[3]))
        elif parts[0] == "g" and len(parts) == 1:
            current = ({}, {})
            generators.append(current)
        elif parts[0] == "map" and len(parts) == 4:
            if current is None:
                raise pc.FormatError("map record before any 'g' generator header", ln)
            kind, x, y = parts[1], parts[2], parts[3]
            if kind not in ("v", "a"):
                raise pc.FormatError(f"map kind must be 'v' or 'a', got {kind!r}", ln)
            what, mapping = ("vertex", current[0]) if kind == "v" else ("arrow", current[1])
            if x in mapping:
                raise pc.FormatError(f"{what} {x!r} is mapped twice in one generator", ln)
            mapping[x] = y
        else:
            raise pc.FormatError(f"bad quiver record {line!r}", ln)
    q = pc.Quiver(frozenset(vertices).union(*((s, t) for _, s, t in arrows)), tuple(sorted(arrows)))
    action = pc.GroupAction.from_maps(generators)
    try:
        oracle_check_action(q, action)
    except pc.QuiverError as exc:
        raise pc.FormatError(str(exc)) from exc
    return pc.GQuiver(q, action)


def oracle_orbit_partition(items: list[str], images) -> list[frozenset[str]]:
    """Orbits as the classes of a union-find that joins each item with its
    image under every map, sorted by least member."""
    idx = {x: i for i, x in enumerate(items)}
    parent = list(range(len(items)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    for mapping in images:
        for x in items:
            parent[find(idx[x])] = find(idx[mapping.get(x, x)])
    classes: dict[int, set[str]] = {}
    for x in items:
        classes.setdefault(find(idx[x]), set()).add(x)
    return sorted((frozenset(c) for c in classes.values()), key=lambda c: min(c))


def oracle_orbits(gq: pc.GQuiver) -> tuple[list[frozenset[str]], list[frozenset[str]]]:
    gens = gq.generator_maps()
    vorbs = oracle_orbit_partition(sorted(gq.quiver.vertices), [v for v, _ in gens])
    aorbs = oracle_orbit_partition(sorted(gq.quiver.arrow_names()), [a for _, a in gens])
    return vorbs, aorbs


def oracle_orbit_graph(gq: pc.GQuiver, cls: pc.EquivariantClass):
    """``(births, edges, spec)`` of the weighted orbit graph, built
    on the GQuiver from its union-find orbits: each orbit born at its size,
    adjacent orbits joined at the least entry of the arrow orbits between
    them, each multi-vertex orbit k twins for ``fixed_vertex_deletion:k``."""
    vorbs, aorbs = oracle_orbits(gq)
    where = {v: i for i, orb in enumerate(vorbs) for v in orb}
    size = [float(len(orb)) for orb in vorbs]
    am = gq.quiver.arrow_map()
    joins: dict[tuple[int, int], float] = {}
    for orb in aorbs:
        a, b = sorted(where[v] for v in am[min(orb)])
        entry = max(float(len(orb)), size[a], size[b])
        if a != b:
            joins[a, b] = min(joins.get((a, b), entry), entry)
    k = 1 if cls.kind == "isomorphisms" else cls.k
    copies = [1] * len(vorbs)
    if cls.kind == "fixed_vertex_deletion":
        k = min(k, size.count(1.0) + 1)
        copies = [1 if n == 1.0 else k for n in size]
    twins = [range(end - c, end) for c, end in zip(copies, accumulate(copies))]
    owner = [i for i, ts in enumerate(twins) for _ in ts]
    edges = [(s, t, size[i]) for i, ts in enumerate(twins) for s, t in combinations(ts, 2)]
    edges += [(s, t, w) for (a, b), w in joins.items() for s in twins[a] for t in twins[b]]
    spec = pc.PropertySpec("components") if k == 1 else pc.PropertySpec("vertex_block", k)
    return [size[i] for i in owner], edges, spec
