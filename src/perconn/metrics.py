"""Bottleneck distance, natural pseudodistance, and perturbation.

The bottleneck distance is exact: candidate values are the finitely many
pairwise L-infinity costs and diagonal costs, and each threshold is decided
by a perfect-matching test on a bipartite graph built as adjacency lists and
matched by an iterative Hopcroft-Karp (Efrat-Itai-Katz 2001;
Kerber-Morozov-Nigmetov 2017).  Two points within h of each other have
births within h, and the points are sorted by birth, so each point's
neighbours at h lie in a window of the other diagram's births that slides
right as its own birth grows (a one-dimensional neighbour search); no
threshold reads all n1 * n2 pairs.  The diagonal slots of two points join
only where the points themselves may pair: the k point pairs of a perfect
matching free exactly the k slots of those points on each side, which pair
along the same k edges, so this sparse slot block loses no matching.  Every
point pays at least the smaller of its half persistence and its cheapest
cost to the other diagram; the largest such value, found by scans outwards
from each birth, is a candidate at or below the distance and is decided
first.  Cornerpoints at infinity may only match each other (at the
difference of births, optimally in sorted order); the distance is infinite
when the counts of infinite points differ.

Diagrams enter as (birth, death) -> multiplicity records: ``distance``
hands over the records that ``persistence.parse_diagram_records`` reads
straight from the text (``bottleneck_of_records``), and
``bottleneck_distance`` reads a Diagram's cornerpoints into the same form.
``POINT_CAP`` is checked on their total multiplicity before any point is
built; the records then expand to sorted points, and the kernel scans
parallel lists of births and deaths.

The natural pseudodistance between two weighted graphs is the minimum over
isomorphisms of their underlying final graphs of the largest weight
difference across matched vertices and edges.  An isomorphism pairs the
vertex weights and the edge weights one to one, and in one dimension the
sorted pairing has the least largest gap, so the larger of the two sorted
gaps is a lower bound; it is tried first, and a success there also proves the
graphs isomorphic.  Each threshold is decided by a backtracking isomorphism
search constrained to it (``indexed_isomorphic_within``), whose set-up is
built once per pair.  It runs on vertex indices: each graph is its vertex
births and (u, v, w) edges, as ``graphs.parse_indexed_graph`` reads them for
``pseudodistance`` (``indexed_pseudodistance``) and ``graphs.indexed_graph``
takes them from a WeightedGraph, with neighbour rows {neighbour: weight}.
The search runs on an explicit stack and requires the images of twin
vertices to increase along its visit order, which loses no isomorphism's
cost.

When a lower bound fails, both searches climb from it (``_climb``): they
probe thresholds at the tops of bands that double in width, and list and
bisect the candidates of the first band whose top is feasible, so the answer
is still the least feasible candidate.  The bottleneck search reads that
band's costs from the birth windows at its top, so it never builds the
n1 * n2 candidate set, and seeds each threshold with the maximum matching of
the last infeasible one.

The same search decides poset isomorphism (``posets.poset_isomorphic``) at
h = 0 on comparability graphs over element indices, each element born at
the size of its down-set.  Of two comparable elements the lower one has the
strictly smaller down-set, so a weight-preserving isomorphism of the
comparability graphs maps each comparable pair in its order: it is exactly
an order isomorphism.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Callable, Iterable, Optional

from .graphs import CapExceeded, WeightedGraph, indexed_graph, weighted_graph
from .persistence import Diagram

Point = tuple[float, float]
MatchPair = tuple[Optional[Point], Optional[Point]]
Records = dict[Point, int]
IndexedGraph = tuple[list[float], list[tuple[int, int, float]]]


# No search builds the n1 * n2 candidate set; each probe holds only the edges
# within its threshold.  On a 2-core Xeon with CPython 3.11 (CPU time, three
# runs), a 2,000 + 2,000 point pair decided at its lower bound takes
# 0.09-0.13 s and peaks at 3.8 MiB (tracemalloc) against a perturbed copy, and
# 0.35-0.40 s and 93 MiB against an independent diagram whose bound is 3.6; at
# the cap, a perturbed 2,500 + 2,500 pair whose lower bound fails takes
# 0.66-0.77 s and 14 MiB.  The edges grow with the distance: an independent
# 2,000 + 2,000 pair whose bound fails takes 3.4-3.6 s and 71 MiB.
# Multiplicities count, since every unit becomes its own point.
POINT_CAP = 5000

# Default vertex cap of the pseudodistance: the backtracking isomorphism
# search is exponential in the worst case.
VERTEX_CAP = 12


def _expand(records: Records) -> tuple[list[Point], list[float]]:
    """The finite points, one per unit of multiplicity and sorted by (birth,
    death), as the birth windows need, and the sorted births at infinity."""
    finite: list[Point] = []
    inf_births: list[float] = []
    for point, mult in sorted(records.items()):
        if point[1] == math.inf:
            inf_births += [point[0]] * mult
        else:
            finite += [point] * mult
    return finite, inf_births


def _hopcroft_karp(adj: list[list[int]], match_right: list[int]) -> bool:
    """Grow ``match_right`` (right node -> left node, -1 when free) into a
    maximum matching of the bipartite graph with left adjacency lists
    ``adj``; True when it is perfect.

    Free left nodes first take a free neighbour greedily.  Each phase then
    layers the left nodes by BFS from the free ones and finds
    vertex-disjoint shortest augmenting paths by DFS with an explicit stack.
    """
    n_left = len(adj)
    match_left = [-1] * n_left
    for b, a in enumerate(match_right):
        if a >= 0:
            match_left[a] = b
    for a, edges in enumerate(adj):
        if match_left[a] < 0:
            for b in edges:
                if match_right[b] < 0:
                    match_left[a] = b
                    match_right[b] = a
                    break
    free = [a for a in range(n_left) if match_left[a] < 0]
    while free:
        layer = [-1] * n_left
        for a in free:
            layer[a] = 0
        queue = list(free)
        limit = n_left
        for a in queue:
            if layer[a] >= limit:
                break
            for b in adj[a]:
                a2 = match_right[b]
                if a2 < 0:
                    limit = layer[a]
                elif layer[a2] < 0:
                    layer[a2] = layer[a] + 1
                    queue.append(a2)
        if limit == n_left:
            return False
        nxt = [0] * n_left
        for root in free:
            stack = [root]
            while stack:
                a = stack[-1]
                edges = adj[a]
                if nxt[a] == len(edges):
                    layer[a] = -1  # dead end for the rest of the phase
                    stack.pop()
                    continue
                b = edges[nxt[a]]
                nxt[a] += 1
                a2 = match_right[b]
                if a2 < 0:
                    if layer[a] == limit:
                        for x in stack:
                            y = adj[x][nxt[x] - 1]
                            match_left[x] = y
                            match_right[y] = x
                        break
                elif layer[a] < limit and layer[a2] == layer[a] + 1:
                    stack.append(a2)
        free = [a for a in free if match_left[a] < 0]
    return True


def _finite_bottleneck(f1: list[Point], f2: list[Point]) -> tuple[float, list[MatchPair]]:
    """Smallest candidate threshold h admitting a perfect matching where
    points pair up at L-inf cost <= h or retire to the diagonal at half
    persistence <= h, with such a matching.  Both point lists are sorted by
    (birth, death).

    Left nodes are the points of f1, then one diagonal slot per point of f2;
    right nodes are symmetric.  The slot of f2[j] joins the slot of f1[i]
    only where f1[i]-f2[j] is a point edge: a perfect matching with k point
    pairs leaves exactly the k slots of those points free on each side, and
    they pair up along the same k point edges, so this sparse slot block
    admits a perfect matching exactly when the complete one does.  An edge
    f1[i]-f2[j] at h needs a birth gap <= h, so point i's edges lie in the
    window of f2's points whose births are within h of its own.  The window
    ends only move right along f1, and are placed by the computed gaps, as
    the float bounds b - h and b + h may round inwards.  Inside a window the
    birth gap is at most h, so cost <= h is the death gap <= h; each window
    is filtered by it in index order, so the adjacency lists, and the
    matchings, are those of the full cost matrix.

    Every point pays at least the smaller of its half persistence and its
    cheapest edge to the other diagram, so the largest such value is a
    candidate at or below the answer; it is found by scans outwards from
    each birth (``_raise_bound``) and decided first, and is the answer unless
    its matching is imperfect.  Otherwise ``_climb`` probes bands above it,
    up to the largest half persistence, where every point may retire; the
    candidates of the first feasible band, its costs and half persistences,
    are read from the same windows at the band's top, so no n1 * n2 set is
    built.  The edges only grow with h, so the maximum matching of the last
    infeasible threshold seeds the next one, and the matching returned is
    that of the last feasible threshold, which has the answer's edges.
    """
    if not f1 and not f2:
        return 0.0, []
    n1, n2 = len(f1), len(f2)
    births1 = [b for b, _ in f1]
    deaths1 = [d for _, d in f1]
    births2 = [b for b, _ in f2]
    deaths2 = [d for _, d in f2]
    # halved before the difference, which then cannot overflow; exact for
    # normal floats, so equal to (d - b) / 2 wherever that is finite
    half1 = [d / 2.0 - b / 2.0 for b, d in f1]
    half2 = [d / 2.0 - b / 2.0 for b, d in f2]
    # the cost is symmetric bit for bit: fl(a - b) == -fl(b - a)
    lb = _raise_bound(-math.inf, births1, deaths1, half1, births2, deaths2)
    lb = _raise_bound(lb, births2, deaths2, half2, births1, deaths1)

    def edges(h: float) -> list[list[int]]:
        # point i's neighbours in f2 at h, in index order; computed gaps are
        # monotone in sorted births, so [lo, hi) holds exactly the births
        # within h of b1, and there cost <= h is the death gap <= h
        points: list[list[int]] = []
        lo = hi = 0
        for b1, d1 in zip(births1, deaths1):
            while lo < n2 and b1 - births2[lo] > h:
                lo += 1
            while hi < n2 and births2[hi] - b1 <= h:
                hi += 1
            points.append([j for j in range(lo, hi) if -h <= d1 - deaths2[j] <= h])
        return points

    def band(lo: float, hi: float) -> list[float]:
        found = {c for c in chain(half1, half2) if lo < c <= hi}
        for b1, d1, cols in zip(births1, deaths1, edges(hi)):
            for j in cols:
                c = abs(b1 - births2[j])
                dc = abs(d1 - deaths2[j])
                if dc > c:
                    c = dc
                if c > lo:
                    found.add(c)
        return sorted(found)

    seed = best = [-1] * (n1 + n2)

    def feasible(h: float) -> bool:
        # left nodes: point i's edges, then its own slot n2 + i; then each
        # slot j of f2, its own point j first
        nonlocal seed, best
        points = edges(h)
        slots: list[list[int]] = [[j] if half2[j] <= h else [] for j in range(n2)]
        for i, cols in enumerate(points):
            slot = n2 + i
            for j in cols:
                slots[j].append(slot)
            if half1[i] <= h:
                cols.append(slot)
        match_right = list(seed)
        perfect = _hopcroft_karp(points + slots, match_right)
        if perfect:
            best = match_right
        else:
            seed = match_right
        return perfect

    h: Optional[float] = lb
    if not feasible(lb):
        h = _climb(lb, max(chain(half1, half2)), band, feasible)
        assert h is not None  # at the largest half persistence every point may retire
    pairs: list[MatchPair] = []
    for b, a in enumerate(best):
        left = f1[a] if a < n1 else None
        right = f2[b] if b < n2 else None
        if left is not None or right is not None:
            pairs.append((left, right))
    return h, pairs


def _climb(
    lb: float, top: float, band: Callable[[float, float], list[float]], feasible: Callable[[float], bool]
) -> Optional[float]:
    """Least candidate above ``lb`` at which ``feasible`` holds, or None when
    it fails at ``top``, the largest candidate that matters.

    ``feasible`` fails at lb, only grows with the threshold and changes only
    at candidates, and ``band(lo, hi)`` lists the candidates in (lo, hi] in
    increasing order.  The thresholds climb in bands that double in width,
    (lb, lb + w], (lb + w, lb + 3w], ..., from w = max(lb, top / 64), since
    answers tend to lie just above their lower bound.  Only the band whose
    top is the first feasible one is listed; its largest candidate decides
    like its top, and the others are bisected.
    """
    lo, width = lb, max(lb, top / 64) or top
    while True:
        hi = min(lo + width, top)
        if feasible(hi):
            break
        if hi == top:
            return None
        lo, width = hi, 2 * width
    cands = band(lo, hi)
    first, last = 0, len(cands) - 1
    while first < last:
        mid = (first + last) // 2
        if feasible(cands[mid]):
            last = mid
        else:
            first = mid + 1
    return cands[first]


def _raise_bound(
    lb: float, births: list[float], deaths: list[float], halves: list[float],
    other_births: list[float], other_deaths: list[float],
) -> float:
    """Raise lb to min(half persistence, cheapest cost to the other diagram)
    of each point where that is larger.

    Both diagrams come as parallel lists, the other one sorted by birth.  A
    point's scan walks out both ways from its bisected birth and stops once
    the birth gap alone reaches its best value so far, since the cost is at
    least the birth gap.  A point whose half persistence is at or below lb
    is skipped.
    """
    n = len(other_births)
    for b, d, best in zip(births, deaths, halves):
        if best <= lb:
            continue
        pos = j = bisect_left(other_births, b)
        while j < n:
            gap = other_births[j] - b
            if gap >= best:
                break
            cost = abs(d - other_deaths[j])
            if cost < best:
                best = cost if cost > gap else gap
            j += 1
        j = pos - 1
        while j >= 0:
            gap = b - other_births[j]
            if gap >= best:
                break
            cost = abs(d - other_deaths[j])
            if cost < best:
                best = cost if cost > gap else gap
            j -= 1
        if best > lb:
            lb = best
    return lb


def bottleneck_distance(d1: Diagram, d2: Diagram) -> float:
    """Min over admissible matchings of the max L-infinity cost; inf when the
    numbers of cornerpoints at infinity differ."""
    dist, _ = _bottleneck(_records(d1), _records(d2))
    return dist


def bottleneck_of_records(r1: Records, r2: Records) -> float:
    """``bottleneck_distance`` of two diagrams given as (birth, death) ->
    multiplicity records, as ``persistence.parse_diagram_records`` reads
    them."""
    dist, _ = _bottleneck(r1, r2)
    return dist


def optimal_matching(d1: Diagram, d2: Diagram) -> tuple[float, list[MatchPair]]:
    """Distance together with a witnessing matching.

    Pairs are ((birth, death) or None, (birth, death) or None); None marks
    the diagonal.  Infinite points appear with death == inf.  Each finite
    point appears once per unit of multiplicity.  Raises ValueError when no
    admissible matching exists.
    """
    dist, pairs = _bottleneck(_records(d1), _records(d2))
    if pairs is None:
        raise ValueError("no admissible matching: different numbers of infinite cornerpoints")
    return dist, pairs


def _records(d: Diagram) -> Records:
    """The (birth, death) -> multiplicity records of a Diagram's cornerpoints."""
    records: Records = {}
    for p in d.points:
        key = (p.birth, p.death)
        records[key] = records.get(key, 0) + p.multiplicity
    return records


def _bottleneck(r1: Records, r2: Records) -> tuple[float, list[MatchPair] | None]:
    """Distance and matching of two record sets.  The total multiplicity is
    checked against POINT_CAP before any point is built."""
    total = sum(r1.values()) + sum(r2.values())
    if total > POINT_CAP:
        raise CapExceeded(f"bottleneck distance limited to {POINT_CAP} points, got {total}")
    f1, i1 = _expand(r1)
    f2, i2 = _expand(r2)
    if len(i1) != len(i2):
        return math.inf, None
    inf_pairs: list[MatchPair] = []
    inf_cost = 0.0
    for b1, b2 in zip(i1, i2):
        inf_cost = max(inf_cost, abs(b1 - b2))
        inf_pairs.append(((b1, math.inf), (b2, math.inf)))
    fin_cost, fin_pairs = _finite_bottleneck(f1, f2)
    return max(inf_cost, fin_cost), inf_pairs + fin_pairs


def _sorted_gap(ws1: Iterable[float], ws2: Iterable[float]) -> float:
    """Largest gap of the sorted pairing of two equal-size multisets: the
    least possible largest gap of any bijection between them."""
    return max((abs(w1 - w2) for w1, w2 in zip(sorted(ws1), sorted(ws2))), default=0.0)


def indexed_isomorphic_within(g1: IndexedGraph, g2: IndexedGraph, h: float) -> bool:
    """Is there an isomorphism with every matched weight difference <= h?
    Both graphs are on vertex indices, each given as its vertex births and
    (u, v, w) edges, as ``graphs.indexed_graph`` takes them from a
    WeightedGraph."""
    search = _isomorphism_search(g1, g2)
    return search is not None and search(h)


def _isomorphism_search(g1: IndexedGraph, g2: IndexedGraph) -> Optional[Callable[[float], bool]]:
    """The test ``indexed_isomorphic_within(g1, g2, h)`` as a function of h,
    or None when the vertex counts, edge counts or degree sequences differ.

    Everything that does not depend on h is built once: both graphs'
    neighbour rows {neighbour: edge weight}, the visit order, g2's vertices
    by degree and by weight, and the twin classes.  Each threshold then
    slices the candidate lists and runs the backtracking search.
    """
    (births1, edges1), (births2, edges2) = g1, g2
    n = len(births1)
    if n != len(births2) or len(edges1) != len(edges2):
        return None
    adj1, adj2 = _rows(n, edges1), _rows(n, edges2)
    deg1 = [len(row) for row in adj1]
    if sorted(deg1) != sorted(map(len, adj2)):
        return None

    # visit order: BFS from high-degree seeds so adjacency constraints bind early
    seeds = sorted(range(n), key=lambda v: (-deg1[v], v))
    rank = [0] * n
    for r, v in enumerate(seeds):
        rank[v] = r
    order: list[int] = []
    seen = [False] * n
    for seed in seeds:
        if seen[seed]:
            continue
        queue = [seed]
        seen[seed] = True
        for u in queue:
            for w in sorted(adj1[u], key=rank.__getitem__):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        order += queue

    # g2's vertices by degree, sorted by weight: each candidate list is one
    # bisected slice, widened while the exact test still holds and narrowed
    # while it fails (the float bounds a - h and a + h may round either
    # way), then sorted by index
    by_degree: dict[int, tuple[list[float], list[int]]] = {}
    for v in sorted(range(n), key=lambda v: (births2[v], v)):
        ws, ids = by_degree.setdefault(len(adj2[v]), ([], []))
        ws.append(births2[v])
        ids.append(v)
    buckets = [(u, births1[u], *by_degree[deg1[u]]) for u in order]
    twin_before = _previous_twins(births1, adj1, order)

    def within(h: float) -> bool:
        if not order:
            return True
        candidates: list[list[int]] = [[] for _ in range(n)]
        for u, a, ws, ids in buckets:
            lo, hi = bisect_left(ws, a - h), bisect_right(ws, a + h)
            while lo > 0 and abs(a - ws[lo - 1]) <= h:
                lo -= 1
            while hi < len(ws) and abs(a - ws[hi]) <= h:
                hi += 1
            # fl(a - w) is monotone in w, so the weights within h are one run
            while lo < hi and abs(a - ws[lo]) > h:
                lo += 1
            while lo < hi and abs(a - ws[hi - 1]) > h:
                hi -= 1
            if lo >= hi:
                return False
            candidates[u] = sorted(ids[lo:hi])
        mapping = [-1] * n  # each vertex's image, -1 while unmapped
        used = [False] * n

        def fits(u: int, v: int) -> bool:
            # u's mapped neighbours go to neighbours of v within h; as the
            # mapping is injective, v then has no other used neighbour iff
            # the counts agree
            mapped = 0
            row = adj2[v]
            for u2, w in adj1[u].items():
                v2 = mapping[u2]
                if v2 >= 0:
                    w2 = row.get(v2)
                    if w2 is None or not -h <= w - w2 <= h:
                        return False
                    mapped += 1
            return mapped == sum(used[v2] for v2 in row)

        # depth-first over positions of ``order``; resume[pos] is the index
        # of the next candidate to try for order[pos]
        resume = [0] * n
        pos = 0
        while True:
            u = order[pos]
            cands = candidates[u]
            i = resume[pos]
            while i < len(cands) and (used[cands[i]] or not fits(u, cands[i])):
                i += 1
            if i == len(cands):
                if pos == 0:
                    return False
                pos -= 1
                u = order[pos]
                used[mapping[u]] = False
                mapping[u] = -1
                continue
            resume[pos] = i + 1
            mapping[u] = cands[i]
            used[cands[i]] = True
            pos += 1
            if pos == n:
                return True
            twin = twin_before[order[pos]]
            resume[pos] = 0 if twin < 0 else bisect_right(candidates[order[pos]], mapping[twin])

    return within


def _rows(n: int, edges: list[tuple[int, int, float]]) -> list[dict[int, float]]:
    """Neighbour rows {neighbour: edge weight} of a graph on 0..n-1."""
    rows: list[dict[int, float]] = [{} for _ in range(n)]
    for u, v, w in edges:
        rows[u][v] = w
        rows[v][u] = w
    return rows


def _previous_twins(births: list[float], adj: list[dict[int, float]], order: list[int]) -> list[int]:
    """The vertex before each vertex in ``order`` of its twin class, or -1.

    Twins have equal weight, equal neighbourhoods apart from each other and
    equal edge weights to every shared neighbour.  Swapping the images of two
    twins keeps an isomorphism admissible at the same cost, so the search may
    require the images of a class to increase along ``order``.  Twins share
    either their open neighbourhood (not adjacent) or their closed one
    (adjacent); the relation is transitive, so one member stands for a class.
    """
    tails: dict[tuple[float, frozenset[int]], list[int]] = {}
    previous = [-1] * len(births)
    for u in order:
        row = adj[u]
        nbrs = frozenset(row)
        for key in ((births[u], nbrs), (births[u], nbrs | {u})):
            members = tails.setdefault(key, [])
            for k, t in enumerate(members):
                other = adj[t]
                if all(w == other[x] for x, w in row.items() if x != t):
                    previous[u] = t
                    members[k] = u
                    break
            else:
                members.append(u)
    return previous


def natural_pseudodistance(wg1: WeightedGraph, wg2: WeightedGraph, vertex_cap: int = VERTEX_CAP) -> float:
    """Exact min over final-graph isomorphisms of the max weight difference.

    Returns inf when the underlying graphs are not isomorphic.  Raises
    CapExceeded when either graph has more than ``vertex_cap`` vertices.
    """
    return indexed_pseudodistance(indexed_graph(wg1), indexed_graph(wg2), vertex_cap)


def indexed_pseudodistance(g1: IndexedGraph, g2: IndexedGraph, vertex_cap: int = VERTEX_CAP) -> float:
    """``natural_pseudodistance`` of two graphs on vertex indices, each given
    as its vertex births and (u, v, w) edges, as ``graphs.parse_indexed_graph``
    reads them.

    The isomorphism search is set up once for the pair.  The larger sorted
    weight gap is decided first; when it fails, ``_climb`` probes bands of
    the weight differences above it, and the largest difference failing
    too means no isomorphism exists.
    """
    (births1, edges1), (births2, edges2) = g1, g2
    n1, n2 = len(births1), len(births2)
    if n1 > vertex_cap or n2 > vertex_cap:
        raise CapExceeded(
            f"pseudodistance limited to {vertex_cap} vertices, got {max(n1, n2)}"
        )
    search = _isomorphism_search(g1, g2)
    if search is None:
        return math.inf
    # an isomorphism pairs the vertex weights and the edge weights one to one
    pools = ((births1, births2), ([w for _, _, w in edges1], [w for _, _, w in edges2]))
    lb = max(_sorted_gap(ws1, ws2) for ws1, ws2 in pools)
    if search(lb):
        return lb
    # weights repeat, so the differences are taken between distinct values
    diffs = sorted({d for ws1, ws2 in pools for w1 in set(ws1) for w2 in set(ws2) if (d := abs(w1 - w2)) > lb})
    if not diffs:
        return math.inf
    h = _climb(lb, diffs[-1], lambda lo, hi: diffs[bisect_right(diffs, lo) : bisect_right(diffs, hi)], search)
    return math.inf if h is None else h


def perturb(wg: WeightedGraph, epsilon: float, seed: int) -> WeightedGraph:
    """Same graph with every weight moved by an independent uniform offset in
    [-epsilon, epsilon]; derived vertex weights are recomputed, explicit ones
    are clamped so they stay below the new incident minimum."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    rng = random.Random(seed)
    new_edges = {e: wg.edge_weights[e] + rng.uniform(-epsilon, epsilon) for e in sorted(wg.edge_weights)}
    new_explicit: dict[str, float] = {}
    adj_min: dict[str, float] = {}
    for (u, v), w in new_edges.items():
        for x in (u, v):
            if x not in adj_min or w < adj_min[x]:
                adj_min[x] = w
    for v in sorted(wg.explicit):
        w = wg.vertex_weights[v] + rng.uniform(-epsilon, epsilon)
        if v in adj_min:
            w = min(w, adj_min[v])
        new_explicit[v] = w
    return weighted_graph(new_edges, new_explicit)
