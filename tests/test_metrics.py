import math
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

import pytest

import perconn as pc
import oracles
from corpus import random_diagram, random_weighted_graph, relabeled_copy
from perconn import graphs, metrics


def test_identity_matching_is_zero():
    d = pc.diagram([pc.Cornerpoint(1.0, 2.0), pc.Cornerpoint(0.0, math.inf)])
    assert pc.bottleneck_distance(d, d) == 0.0


def test_diagonal_matching():
    d1 = pc.diagram([pc.Cornerpoint(1.0, 2.0)])
    assert pc.bottleneck_distance(d1, pc.diagram([])) == 0.5


def test_direct_match_beats_diagonal():
    d1 = pc.diagram([pc.Cornerpoint(1.0, 2.0)])
    d2 = pc.diagram([pc.Cornerpoint(1.0, 2.5)])
    assert pc.bottleneck_distance(d1, d2) == 0.5


def test_mismatched_infinite_points_is_infinite():
    d1 = pc.diagram([pc.Cornerpoint(1.0, math.inf)])
    d2 = pc.diagram([pc.Cornerpoint(1.0, math.inf, 2)])
    assert math.isinf(pc.bottleneck_distance(d1, d2))
    with pytest.raises(ValueError):
        pc.optimal_matching(d1, d2)


def test_infinite_points_match_on_births():
    d1 = pc.diagram([pc.Cornerpoint(0.0, math.inf), pc.Cornerpoint(5.0, math.inf)])
    d2 = pc.diagram([pc.Cornerpoint(0.25, math.inf), pc.Cornerpoint(5.5, math.inf)])
    assert pc.bottleneck_distance(d1, d2) == 0.5


def test_bottleneck_oracle_equivalence(seed=61):
    rng = random.Random(seed)
    for _ in range(40):
        d1 = random_diagram(rng, max_proper=3, one_infinite=rng.random() < 0.7)
        d2 = random_diagram(rng, max_proper=3, one_infinite=rng.random() < 0.7)
        assert pc.bottleneck_distance(d1, d2) == oracles.oracle_bottleneck(d1, d2)


def test_bottleneck_metric_axioms(seed=67):
    rng = random.Random(seed)
    for _ in range(20):
        ds = [random_diagram(rng, max_proper=3) for _ in range(3)]
        d01 = pc.bottleneck_distance(ds[0], ds[1])
        d10 = pc.bottleneck_distance(ds[1], ds[0])
        assert d01 == d10
        d12 = pc.bottleneck_distance(ds[1], ds[2])
        d02 = pc.bottleneck_distance(ds[0], ds[2])
        assert d02 <= d01 + d12 + 1e-12
        assert pc.bottleneck_distance(ds[0], ds[0]) == 0.0


def test_optimal_matching_structure():
    d1 = pc.diagram([pc.Cornerpoint(0.0, math.inf), pc.Cornerpoint(1.0, 2.0)])
    d2 = pc.diagram([pc.Cornerpoint(0.0, math.inf)])
    dist, pairs = pc.optimal_matching(d1, d2)
    assert dist == 0.5
    diagonal = [p for p, q in pairs if q is None]
    assert diagonal == [(1.0, 2.0)]


def _reference_bottleneck(d1, d2, nx) -> float:
    """Threshold search over the same candidates with networkx's
    Hopcroft-Karp as the feasibility test."""
    fin1 = [(p.birth, p.death) for p in d1.points for _ in range(p.multiplicity)]
    fin2 = [(p.birth, p.death) for p in d2.points for _ in range(p.multiplicity)]

    def cost(p, q):
        return max(abs(p[0] - q[0]), abs(p[1] - q[1]))

    def half(p):
        return (p[1] - p[0]) / 2.0

    def feasible(h):
        g = nx.Graph()
        left = [("p1", i) for i in range(len(fin1))] + [("d2", j) for j in range(len(fin2))]
        g.add_nodes_from(left)
        g.add_nodes_from([("p2", j) for j in range(len(fin2))] + [("d1", i) for i in range(len(fin1))])
        for i, p in enumerate(fin1):
            g.add_edges_from((("p1", i), ("p2", j)) for j, q in enumerate(fin2) if cost(p, q) <= h)
            if half(p) <= h:
                g.add_edge(("p1", i), ("d1", i))
        for j, q in enumerate(fin2):
            if half(q) <= h:
                g.add_edge(("d2", j), ("p2", j))
            g.add_edges_from((("d2", j), ("d1", i)) for i in range(len(fin1)))
        matching = nx.bipartite.hopcroft_karp_matching(g, top_nodes=left)
        return len(matching) == 2 * len(left)

    cands = sorted(
        {0.0}
        | {half(p) for p in fin1 + fin2}
        | {cost(p, q) for p in fin1 for q in fin2}
    )
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(cands[mid]):
            hi = mid
        else:
            lo = mid + 1
    return cands[lo]


def _spread_diagram(rng, n, max_multiplicity=1):
    points = []
    while len(points) < n:
        birth = round(rng.uniform(0.0, 10.0), rng.choice([1, 3]))
        death = birth + round(rng.uniform(0.1, 4.0), rng.choice([1, 3]))
        points.append(pc.Cornerpoint(birth, death, rng.randint(1, max_multiplicity)))
    return pc.diagram(points)


def test_bottleneck_matches_networkx_threshold_search(seed=83):
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    for trial in range(9):
        kind = ("perturbed", "independent", "multiplicities")[trial % 3]
        if kind == "perturbed":
            d1 = _spread_diagram(rng, rng.randint(20, 80))
            d2 = pc.diagram(
                [
                    pc.Cornerpoint(p.birth + rng.uniform(-0.3, 0.3), p.death + rng.uniform(0.3, 0.6))
                    for p in d1.points
                ]
            )
        elif kind == "independent":
            d1 = _spread_diagram(rng, rng.randint(20, 80))
            d2 = _spread_diagram(rng, rng.randint(20, 80))
        else:
            d1 = _spread_diagram(rng, rng.randint(10, 25), max_multiplicity=3)
            d2 = _spread_diagram(rng, rng.randint(10, 25), max_multiplicity=3)
        assert pc.bottleneck_distance(d1, d2) == _reference_bottleneck(d1, d2, nx), (trial, kind)


def _staircase(offset):
    return pc.diagram([pc.Cornerpoint(float(i + offset), float(i + offset + 2)) for i in range(600)])


def test_bottleneck_staircase_beyond_recursion_limit(tmp_path):
    d1, d2 = _staircase(0), _staircase(1)
    assert pc.bottleneck_distance(d1, d2) == 1.0
    first, second = tmp_path / "d1.txt", tmp_path / "d2.txt"
    first.write_text(pc.serialize_diagram(d1))
    second.write_text(pc.serialize_diagram(d2))
    res = subprocess.run(
        [sys.executable, "-m", "perconn", "distance", str(first), str(second)],
        capture_output=True,
        text=True,
    )
    assert (res.returncode, res.stdout, res.stderr) == (0, "1\n", "")


def test_bottleneck_above_the_lower_bound():
    # every point's cheapest option is at most 0.1, but one of the two close
    # points must retire to the diagonal at half persistence 2
    d1 = pc.diagram([pc.Cornerpoint(0.0, 4.0), pc.Cornerpoint(0.1, 4.1)])
    d2 = pc.diagram([pc.Cornerpoint(0.0, 4.0)])
    assert pc.bottleneck_distance(d1, d2) == oracles.oracle_bottleneck(d1, d2) == 1.9999999999999998
    dist, pairs = pc.optimal_matching(d2, d1)
    assert dist == 1.9999999999999998
    _check_witness(d2, d1, dist, pairs)


def _perturbed_pair(rng, n):
    points = []
    for _ in range(n):
        birth = round(rng.uniform(0.0, 10.0), 3)
        points.append((birth, round(birth + rng.expovariate(1.0) + 0.01, 3)))
    moved = []
    for b, d in points:
        nb = round(max(0.0, b + rng.uniform(-0.3, 0.3)), 3)
        moved.append((nb, round(max(nb + 0.01, d + rng.uniform(-0.3, 0.3)), 3)))
    d1 = pc.diagram(pc.Cornerpoint(b, d) for b, d in points)
    d2 = pc.diagram(pc.Cornerpoint(b, d) for b, d in moved)
    return d1, d2


def test_bottleneck_perturbed_600_point_pair_is_fast(seed=101):
    d1, d2 = _perturbed_pair(random.Random(seed), 600)
    start = time.perf_counter()
    dist, pairs = pc.optimal_matching(d1, d2)
    assert time.perf_counter() - start < 1.5
    assert dist <= 0.3 + 1e-3
    _check_witness(d1, d2, dist, pairs)


def test_bottleneck_at_the_lower_bound_builds_no_cost_matrix(monkeypatch, seed=1):
    # the n1 * n2 costs of this pair are 6.25M floats, about 200 MiB as lists
    d1, d2 = _perturbed_pair(random.Random(seed), 2500)
    probes = []
    real = metrics._hopcroft_karp

    def counted(adj, match_right):
        probes.append(len(adj))
        return real(adj, match_right)

    monkeypatch.setattr(metrics, "_hopcroft_karp", counted)
    tracemalloc.start()
    try:
        dist, pairs = pc.optimal_matching(d1, d2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probes == [5000]  # the first probe, at the lower bound, is perfect
    assert peak < 16 * 2**20  # measured at 7.9 MiB
    assert dist <= 0.3 + 1e-3
    _check_witness(d1, d2, dist, pairs)


def test_bottleneck_above_the_lower_bound_builds_no_candidate_set(monkeypatch, seed=3):
    # the lower bound of this pair fails, and its n1 * n2 candidate costs,
    # 1M floats, peaked at 41 MiB when they were collected into one set
    d1, d2 = _perturbed_pair(random.Random(seed), 1000)
    probes = []
    real = metrics._hopcroft_karp

    def counted(adj, match_right):
        perfect = real(adj, match_right)
        probes.append(perfect)
        return perfect

    monkeypatch.setattr(metrics, "_hopcroft_karp", counted)
    tracemalloc.start()
    try:
        dist, pairs = pc.optimal_matching(d1, d2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probes[0] is False  # the first probe, at the lower bound, is imperfect
    assert peak < 8 * 2**20  # measured at 3.9 MiB
    assert dist <= 0.3 + 1e-3
    _check_witness(d1, d2, dist, pairs)


def test_bottleneck_climbs_from_a_zero_lower_bound():
    # every point has a free twin in the other diagram, so the bound is 0,
    # but one of the two copies of (0, 4) must retire at half persistence 2
    d1 = pc.diagram([pc.Cornerpoint(0.0, 4.0, 2)])
    d2 = pc.diagram([pc.Cornerpoint(0.0, 4.0)])
    assert pc.bottleneck_distance(d1, d2) == oracles.oracle_bottleneck(d1, d2) == 2.0
    for first, second in ((d1, d2), (d2, d1)):
        dist, pairs = pc.optimal_matching(first, second)
        assert dist == 2.0
        _check_witness(first, second, dist, pairs)
        assert oracles.oracle_dense_bottleneck(first, second) == (dist, pairs)


def _differential_diagram(rng, digits, infinite):
    max_multiplicity = rng.choice((1, 1, 3))
    points = []
    for _ in range(rng.randint(0, 30)):
        birth = rng.uniform(0.0, 10.0)
        death = birth + rng.expovariate(0.7) + 0.01
        if digits is not None:
            birth, death = round(birth, digits), round(death, digits)
        if death <= birth:
            death = birth + 1.0
        points.append(pc.Cornerpoint(birth, death, rng.randint(1, max_multiplicity)))
    if infinite:
        points.append(pc.Cornerpoint(round(rng.uniform(0.0, 1.0), 3), math.inf))
    return pc.diagram(points)


def _moved(rng, d, eps, digits):
    points = []
    for p in d.points:
        birth = p.birth + rng.uniform(-eps, eps)
        death = p.death if p.is_infinite else p.death + rng.uniform(-eps, eps)
        if digits is not None:
            birth, death = round(birth, digits), round(death, digits)
        if death <= birth:
            death = birth + 0.5
        points.append(pc.Cornerpoint(birth, death, p.multiplicity))
    return pc.diagram(points)


def test_optimal_matching_equals_the_dense_kernel(seed=157):
    # same distance and same pairs: the birth windows must give every probe
    # the adjacency lists of the full cost matrix.  Digits 0 give integer
    # coordinates, so ties and equal births; None leaves them unrounded.
    rng = random.Random(seed)
    kinds = [("perturbed", eps) for eps in (0.0, 0.1, 0.3, 1.0, 5.0)]
    kinds += [("independent", 0.0), ("empty", 0.0)]
    for trial in range(3150):
        kind, eps = kinds[trial % len(kinds)]
        digits = (0, 1, 3, None)[trial // len(kinds) % 4]
        infinite = rng.random() < 0.5
        d1 = _differential_diagram(rng, digits, infinite)
        if kind == "perturbed":
            d2 = _moved(rng, d1, eps, digits)
        elif kind == "independent":
            d2 = _differential_diagram(rng, digits, infinite)
        else:
            d2 = pc.diagram(p for p in d1.points if p.is_infinite)
        if trial % 2:
            d1, d2 = d2, d1
        expected = oracles.oracle_dense_bottleneck(d1, d2)
        assert pc.optimal_matching(d1, d2) == expected, (trial, kind, eps, digits)


def test_bottleneck_of_records_in_file_order(seed=163):
    # records come in file order; the kernel's birth windows need them sorted
    rng = random.Random(seed)
    for trial in range(300):
        d1 = _differential_diagram(rng, (0, 1, None)[trial % 3], rng.random() < 0.5)
        d2 = _moved(rng, d1, 0.3, None) if trial % 2 else _differential_diagram(rng, 1, rng.random() < 0.5)
        records = []
        for d in (d1, d2):
            points = [((p.birth, p.death), p.multiplicity) for p in d.points]
            rng.shuffle(points)
            records.append(dict(points))
        assert metrics.bottleneck_of_records(*records) == pc.bottleneck_distance(d1, d2), trial


def test_bottleneck_where_birth_windows_round_inwards():
    # at h = 8 - 3.4, 8 - h rounds to 3.4000000000000004, and at
    # h = 7.3 - 2.6, 2.6 + h rounds to 7.299999999999999: a window placed by
    # the float bounds b - h and b + h would miss the only point pair within h
    for b1, b2 in ((8.0, 3.4), (2.6, 7.3)):
        d1 = pc.diagram([pc.Cornerpoint(b1, 30.0)])
        d2 = pc.diagram([pc.Cornerpoint(b2, 29.0)])
        for first, second in ((d1, d2), (d2, d1)):
            (p,), (q,) = first.points, second.points
            expected = (abs(b1 - b2), [((p.birth, p.death), (q.birth, q.death))])
            assert pc.optimal_matching(first, second) == expected
            assert oracles.oracle_dense_bottleneck(first, second) == expected


def _check_witness(d1, d2, dist, pairs):
    for side, d in ((0, d1), (1, d2)):
        for p in d.points:
            if not p.is_infinite:
                point = (p.birth, p.death)
                assert sum(pair[side] == point for pair in pairs) == p.multiplicity
    for left, right in pairs:
        assert left is not None or right is not None
        if left is None or right is None:
            point = left if right is None else right
            assert (point[1] - point[0]) / 2.0 <= dist
        elif math.isinf(left[1]):
            assert math.isinf(right[1]) and abs(left[0] - right[0]) <= dist
        else:
            assert max(abs(left[0] - right[0]), abs(left[1] - right[1])) <= dist


def test_optimal_matching_witness(seed=89):
    rng = random.Random(seed)
    for trial in range(30):
        if trial % 3 == 2:
            d1 = _spread_diagram(rng, rng.randint(5, 30), max_multiplicity=3)
            d2 = _spread_diagram(rng, rng.randint(5, 30), max_multiplicity=3)
        else:
            d1 = random_diagram(rng, max_proper=6, one_infinite=True)
            d2 = random_diagram(rng, max_proper=6, one_infinite=True)
        dist, pairs = pc.optimal_matching(d1, d2)
        assert dist == pc.bottleneck_distance(d1, d2)
        _check_witness(d1, d2, dist, pairs)
        assert pc.optimal_matching(d1, d2) == (dist, pairs)


def test_pseudodistance_identity_and_non_isomorphic():
    w = pc.parse_weighted_graph("e a b 1\ne b c 2\n")
    assert pc.natural_pseudodistance(w, w) == 0.0
    tri = pc.parse_weighted_graph("e a b 1\ne b c 1\ne a c 1\n")
    path = pc.parse_weighted_graph("e a b 1\ne b c 1\n")
    assert math.isinf(pc.natural_pseudodistance(tri, path))


def test_pseudodistance_with_equal_degrees_but_no_isomorphism():
    # a hexagon and two triangles: every vertex has degree 2, so only the
    # search, climbing to the largest weight difference, finds no isomorphism
    ring = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("a", "f")]
    c6 = pc.weighted_graph({e: 1.0 + k / 4 for k, e in enumerate(ring)})
    triangles = [("p", "q"), ("q", "r"), ("p", "r"), ("s", "t"), ("t", "u"), ("s", "u")]
    two_k3 = pc.weighted_graph({e: 1.5 - k / 8 for k, e in enumerate(triangles)})
    assert pc.natural_pseudodistance(c6, two_k3) == oracles.oracle_pseudodistance(c6, two_k3) == math.inf
    assert pc.natural_pseudodistance(two_k3, c6) == math.inf
    assert not any(_isomorphic_within(c6, two_k3, h) for h in (0.0, 1.0, 100.0))


def test_isomorphic_within_rejects_an_embedding():
    # every vertex of x-y maps into x-y plus an isolated z, but that is no isomorphism
    xy = pc.weighted_graph({("x", "y"): 1.0})
    xyz = pc.weighted_graph({("x", "y"): 1.0}, {"z": 1.0})
    assert _isomorphic_within(xy, xy, 0.0)
    assert not _isomorphic_within(xy, xyz, 0.0)
    assert not _isomorphic_within(xyz, xy, 0.0)


def _isomorphic_within(wg1, wg2, h):
    return metrics.indexed_isomorphic_within(graphs.indexed_graph(wg1), graphs.indexed_graph(wg2), h)


def test_pseudodistance_shifted_weight():
    w1 = pc.parse_weighted_graph("e a b 1\ne b c 2\n")
    w2 = pc.parse_weighted_graph("e a b 1.3\ne b c 2\n")
    assert abs(pc.natural_pseudodistance(w1, w2) - 0.3) < 1e-12


def test_pseudodistance_cap():
    edges = {(f"v{i:02d}", f"v{i+1:02d}"): 1.0 for i in range(13)}
    big = pc.weighted_graph(edges)
    with pytest.raises(pc.CapExceeded):
        pc.natural_pseudodistance(big, big)


def test_pseudodistance_oracle_equivalence(seed=71):
    rng = random.Random(seed)
    for _ in range(10):
        w1 = random_weighted_graph(rng, max_vertices=6, min_vertices=2)
        if rng.random() < 0.5:
            w2 = pc.perturb(relabeled_copy(rng, w1), 0.4, rng.randint(0, 10**6))
        else:
            w2 = random_weighted_graph(rng, max_vertices=6, min_vertices=2)
        assert pc.natural_pseudodistance(w1, w2) == oracles.oracle_pseudodistance(w1, w2)


def test_pseudodistance_is_a_pseudometric(seed=73):
    rng = random.Random(seed)
    for _ in range(6):
        base = random_weighted_graph(rng, max_vertices=6, min_vertices=3)
        triple = [
            pc.perturb(relabeled_copy(rng, base), 0.3, rng.randint(0, 10**6))
            for _ in range(3)
        ]
        d01 = pc.natural_pseudodistance(triple[0], triple[1])
        d10 = pc.natural_pseudodistance(triple[1], triple[0])
        assert abs(d01 - d10) < 1e-12
        d12 = pc.natural_pseudodistance(triple[1], triple[2])
        d02 = pc.natural_pseudodistance(triple[0], triple[2])
        assert d02 <= d01 + d12 + 1e-12


def _with_twins(rng, wg):
    """Copies of random vertices with the same weight and the same weighted
    neighbourhood, joined to the original (true twin) or not (false twin)."""
    edges = dict(wg.edge_weights)
    for k, u in enumerate(rng.sample(sorted(wg.graph.vertices), min(2, len(wg.graph.vertices)))):
        copy = f"{u}t{k}"
        for (a, b), w in list(edges.items()):
            if u in (a, b):
                other = b if a == u else a
                edges[tuple(sorted((copy, other)))] = w
        if rng.random() < 0.5:
            edges[tuple(sorted((u, copy)))] = wg.vertex_weights[u] + rng.choice([0.0, 1.0])
    return pc.weighted_graph(edges)


def test_pseudodistance_with_equal_weight_twins(seed=97):
    rng = random.Random(seed)
    star = pc.parse_weighted_graph("e c a 1\ne c b 1\ne c d 1\n")
    spread = pc.parse_weighted_graph("e z x 1\ne z y 2\ne z w 3\n")
    assert pc.natural_pseudodistance(star, spread) == oracles.oracle_pseudodistance(star, spread) == 2.0
    clique = pc.parse_weighted_graph("e a b 2\ne a c 2\ne b c 2\ne c d 5\n")
    other = pc.parse_weighted_graph("e p q 2\ne p r 3\ne q r 2.5\ne r s 5\n")
    assert pc.natural_pseudodistance(clique, other) == oracles.oracle_pseudodistance(clique, other)
    # same weighted neighbourhood but different vertex weights: not twins
    fork = pc.parse_weighted_graph("v a 0.5\nv b 1\ne c a 1\ne c b 1\n")
    swapped = pc.parse_weighted_graph("v x 1\nv y 0.5\ne z x 1\ne z y 1\n")
    assert pc.natural_pseudodistance(fork, swapped) == 0.0
    for _ in range(25):
        base = random_weighted_graph(rng, max_vertices=5, min_vertices=2, allow_isolated=False)
        if not base.edge_weights:
            continue
        w1 = _with_twins(rng, base)
        if rng.random() < 0.6:
            w2 = pc.perturb(relabeled_copy(rng, w1), 0.5, rng.randint(0, 10**6))
        else:
            w2 = _with_twins(rng, random_weighted_graph(rng, max_vertices=5, min_vertices=2))
        if len(w2.graph.vertices) > 7 or len(w1.graph.vertices) > 7:
            continue
        assert pc.natural_pseudodistance(w1, w2) == oracles.oracle_pseudodistance(w1, w2)
        assert pc.natural_pseudodistance(w2, w1) == oracles.oracle_pseudodistance(w2, w1)


def _thresholds(w1, w2):
    """0 and every difference between a weight of w1 and one of w2 of the
    same kind, each with its float neighbours: the thresholds at and around
    which a search's verdict can change."""
    found = {0.0}
    for ws1, ws2 in (
        (w1.vertex_weights.values(), w2.vertex_weights.values()),
        (w1.edge_weights.values(), w2.edge_weights.values()),
    ):
        for a in ws1:
            for b in ws2:
                d = abs(a - b)
                found |= {d, math.nextafter(d, -math.inf), math.nextafter(d, math.inf)}
    return sorted(h for h in found if h >= 0.0)


def test_indexed_isomorphism_search_matches_the_name_keyed_oracle(seed=109):
    # the index-based search against the name-keyed search it replaced, at
    # every threshold where a verdict can change: planted twins, relabelled
    # and perturbed copies, equal degrees without an isomorphism, and bounds
    # a - h and a + h that round inwards
    rng = random.Random(seed)
    pairs = [
        (pc.parse_weighted_graph(f"e a b {a}\n"), pc.parse_weighted_graph(f"e x y {b}\n"))
        for a, b in ((8.0, 3.4), (2.6, 7.3))
    ]
    ring = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("a", "f")]
    triangles = [("p", "q"), ("q", "r"), ("p", "r"), ("s", "t"), ("t", "u"), ("s", "u")]
    pairs.append((pc.weighted_graph(dict.fromkeys(ring, 1.0)), pc.weighted_graph(dict.fromkeys(triangles, 1.0))))
    while len(pairs) < 80:
        base = random_weighted_graph(rng, max_vertices=5, min_vertices=2, allow_isolated=False)
        if not base.edge_weights:
            continue
        w1 = _with_twins(rng, base)
        kind = rng.randrange(3)
        if kind == 0:
            w2 = relabeled_copy(rng, w1)
        elif kind == 1:
            w2 = pc.perturb(relabeled_copy(rng, w1), 0.5, rng.randint(0, 10**6))
        else:
            w2 = _with_twins(rng, random_weighted_graph(rng, max_vertices=5, min_vertices=2))
        pairs.append((w1, w2))
    verdicts = Counter()
    for w1, w2 in pairs:
        for first, second in ((w1, w2), (w2, w1)):
            expected = oracles.oracle_isomorphism_search(first, second)
            got = metrics._isomorphism_search(graphs.indexed_graph(first), graphs.indexed_graph(second))
            assert (got is None) == (expected is None), (first, second)
            if got is None:
                verdicts[None] += 1
                continue
            for h in _thresholds(first, second):
                verdict = got(h)
                assert verdict == expected(h), (h, first, second)
                verdicts[verdict] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 1000 and verdicts[None] > 20, verdicts


def test_pseudodistance_above_the_lower_bound():
    # equal sorted vertex and edge weights, so the lower bound is 0, but
    # neither isomorphism of the two paths matches the weights
    w1 = pc.parse_weighted_graph("e a b 1\ne b c 2\ne c d 3\n")
    w2 = pc.parse_weighted_graph("e x y 2\ne y z 1\ne z w 3\n")
    assert pc.natural_pseudodistance(w1, w2) == oracles.oracle_pseudodistance(w1, w2) == 1.0
    assert pc.natural_pseudodistance(w2, w1) == 1.0


def test_pseudodistance_where_weight_bounds_round_inwards():
    # 8 - (8 - 3.4) rounds to 3.4000000000000004 and 2.6 + (7.3 - 2.6) to
    # 7.299999999999999, so a candidate window bisected at a - h and a + h
    # alone would miss the only isomorphism
    for a, b in ((8.0, 3.4), (2.6, 7.3)):
        w1 = pc.parse_weighted_graph(f"e a b {a}\n")
        w2 = pc.parse_weighted_graph(f"e x y {b}\n")
        assert pc.natural_pseudodistance(w1, w2) == abs(a - b)


def test_pseudodistance_long_perturbed_path_is_fast():
    edges = {(f"v{i:04d}", f"v{i + 1:04d}"): float(i % 97 + 1) for i in range(1500)}
    w1 = pc.weighted_graph(edges)
    w2 = pc.perturb(w1, 0.3, 7)
    start = time.perf_counter()
    dist = pc.natural_pseudodistance(w1, w2, vertex_cap=5000)
    assert time.perf_counter() - start < 1.0
    # the identity is optimal: reversing the path moves weights by up to 96
    identity = max(
        max(abs(w - w2.edge_weights[e]) for e, w in w1.edge_weights.items()),
        max(abs(w - w2.vertex_weights[v]) for v, w in w1.vertex_weights.items()),
    )
    assert dist == identity


def test_pseudodistance_path_beyond_recursion_limit(tmp_path):
    path = tmp_path / "path.txt"
    path.write_text("".join(f"e v{i:04d} v{i + 1:04d} 1\n" for i in range(1500)))
    res = subprocess.run(
        [sys.executable, "-m", "perconn", "pseudodistance", "--cap", "5000", str(path), str(path)],
        capture_output=True,
        text=True,
    )
    assert (res.returncode, res.stdout, res.stderr) == (0, "0\n", "")


def test_perturb_zero_is_identity():
    w = pc.parse_weighted_graph("v z 0.5\ne a b 1\ne b c 2\n")
    assert pc.perturb(w, 0.0, 99) == w


def test_perturb_moves_weights_at_most_epsilon(seed=79):
    rng = random.Random(seed)
    for _ in range(10):
        w = random_weighted_graph(rng, max_vertices=8)
        eps = rng.choice([0.01, 0.1, 0.5])
        moved = pc.perturb(w, eps, rng.randint(0, 10**6))
        assert moved.graph == w.graph
        for e, wt in w.edge_weights.items():
            assert abs(moved.edge_weights[e] - wt) <= eps
        for v, wt in w.vertex_weights.items():
            assert abs(moved.vertex_weights[v] - wt) <= eps + 1e-15


def test_perturb_is_reproducible():
    w = pc.parse_weighted_graph("e a b 1\ne b c 2\n")
    assert pc.perturb(w, 0.2, 1234) == pc.perturb(w, 0.2, 1234)
    assert pc.perturb(w, 0.2, 1234) != pc.perturb(w, 0.2, 4321)
