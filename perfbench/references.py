"""Independent references for a sample of the benchmark's job outputs.

None of these call perconn: the components diagram comes from a union-find
elder rule, edge blocks from networkx, and bottleneck distances from an
exhaustive search over matchings (small pairs) or from networkx's
Hopcroft-Karp matching inside a threshold search (larger pairs).
"""

from __future__ import annotations

import math
from itertools import permutations

from workloads import weight_text


def components_diagram(edges: dict[tuple[str, str], float]) -> str:
    """0-dimensional sublevel persistence of a graph whose vertices enter
    with their lightest edge, in perconn's 'birth death multiplicity' text."""
    birth: dict[str, float] = {}
    for (u, v), w in edges.items():
        for x in (u, v):
            birth[x] = min(birth.get(x, w), w)
    parent = {v: v for v in birth}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    points: dict[tuple[float, float], int] = {}
    for (u, v), w in sorted(edges.items(), key=lambda item: item[1]):
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        elder, younger = (ru, rv) if birth[ru] <= birth[rv] else (rv, ru)
        parent[younger] = elder
        if birth[younger] < w:
            key = (birth[younger], w)
            points[key] = points.get(key, 0) + 1
    for v in birth:
        if find(v) == v:
            key = (birth[v], math.inf)
            points[key] = points.get(key, 0) + 1
    lines = []
    for (b, d), mult in sorted(points.items()):
        death = "inf" if math.isinf(d) else weight_text(d)
        lines.append(f"{weight_text(b)} {death} {mult}\n")
    return "".join(lines)


def edge_blocks(edges: dict[tuple[str, str], float], k: int) -> set[frozenset[str]]:
    """Maximal k-edge-connected vertex sets of the final graph."""
    import networkx as nx

    g = nx.Graph()
    g.add_edges_from(edges)
    return {frozenset(c) for c in nx.k_edge_subgraphs(g, k)}


def _split(points):
    finite = [p for p in points if not math.isinf(p[1])]
    births = sorted(p[0] for p in points if math.isinf(p[1]))
    return finite, births


def _pair_cost(p, q) -> float:
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]))


def _diag_cost(p) -> float:
    return (p[1] - p[0]) / 2.0


def _slots(f1, f2):
    """Both sides padded with diagonal slots: (point, owner-index) pairs,
    where a slot owned by a point of the other side may only take that
    point or another slot."""
    left = [(p, None) for p in f1] + [(None, j) for j in range(len(f2))]
    right = [(q, None) for q in f2] + [(None, i) for i in range(len(f1))]
    return left, right


def _cost(a, b, ai: int, bi: int) -> float:
    (p, owner_a), (q, owner_b) = a, b
    if p is not None and q is not None:
        return _pair_cost(p, q)
    if p is not None:
        return _diag_cost(p) if owner_b == ai else math.inf
    if q is not None:
        return _diag_cost(q) if owner_a == bi else math.inf
    return 0.0


def bottleneck(points1, points2, brute_force_limit: int = 8) -> float:
    """Bottleneck distance of two multisets of (birth, death) points.

    Half-lines match half-lines only; their counts must agree.  Up to
    ``brute_force_limit`` slots per side every matching is tried; beyond
    that the smallest feasible candidate cost is found by bisection with
    a maximum bipartite matching as the feasibility test."""
    f1, b1 = _split(points1)
    f2, b2 = _split(points2)
    if len(b1) != len(b2):
        return math.inf
    inf_cost = max((abs(x - y) for x, y in zip(b1, b2)), default=0.0)
    left, right = _slots(f1, f2)
    costs = [[_cost(a, b, ai, bi) for bi, b in enumerate(right)] for ai, a in enumerate(left)]
    size = len(left)
    if size == 0:
        return inf_cost
    if size <= brute_force_limit:
        best = min(max(costs[a][b] for a, b in enumerate(perm)) for perm in permutations(range(size)))
        return max(inf_cost, best)
    import networkx as nx

    def feasible(h: float) -> bool:
        g = nx.Graph()
        top = [("L", a) for a in range(size)]
        g.add_nodes_from(top)
        g.add_nodes_from(("R", b) for b in range(size))
        g.add_edges_from(
            (("L", a), ("R", b)) for a in range(size) for b in range(size) if costs[a][b] <= h
        )
        matching = nx.bipartite.hopcroft_karp_matching(g, top_nodes=top)
        return len(matching) == 2 * size

    cands = sorted({c for row in costs for c in row if not math.isinf(c)})
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(cands[mid]):
            hi = mid
        else:
            lo = mid + 1
    return max(inf_cost, cands[lo])
