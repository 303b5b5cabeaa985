import math
import random
import time
from itertools import combinations

import pytest

import perconn as pc
import oracles
from perconn import connectivity, cuts, graphs
from perconn.connectivity import block_levels
from perconn.cuts import edge_cut_below, vertex_cut_below
from corpus import (
    k5_chain,
    random_geometric_graph,
    random_weighted_graph,
    six_clusters,
    sparse_graph_edges,
    triangle_bridge_chain,
    weigh,
)


def complete(names):
    return pc.simple_graph(names, [(a, b) for a, b in combinations(sorted(names), 2)])


def bowtie():
    return pc.simple_graph(
        edges=[("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("c", "e"), ("d", "e")]
    )


ALL_SPECS = [
    pc.PropertySpec("components"),
    pc.PropertySpec("clique", 2),
    pc.PropertySpec("clique", 3),
    pc.PropertySpec("vertex_block", 2),
    pc.PropertySpec("vertex_block", 3),
    pc.PropertySpec("edge_block", 2),
    pc.PropertySpec("edge_block", 3),
]


def test_spec_validation():
    with pytest.raises(pc.GraphError):
        pc.PropertySpec("nonsense")
    with pytest.raises(pc.GraphError):
        pc.PropertySpec("clique", 1)
    with pytest.raises(pc.GraphError):
        pc.PropertySpec("vertex_block", 0)


@pytest.mark.parametrize(
    "make,error,message",
    [
        (lambda: pc.PropertySpec("clique", 3.0), pc.GraphError, "k must be a positive integer, got 3.0"),
        (lambda: pc.PropertySpec("edge_block", math.inf), pc.GraphError, "k must be a positive integer, got inf"),
        (lambda: pc.PropertySpec("vertex_block", math.nan), pc.GraphError, "k must be a positive integer, got nan"),
        (lambda: pc.PropertySpec("edge_block", True), pc.GraphError, "k must be a positive integer, got True"),
        (lambda: pc.EquivariantClass("orbit_deletion", math.inf), pc.QuiverError, "k must be a positive integer, got inf"),
        (lambda: pc.EquivariantClass("orbit_deletion", 2.0), pc.QuiverError, "k must be a positive integer, got 2.0"),
        (lambda: pc.EquivariantClass("fixed_vertex_deletion", math.nan), pc.QuiverError,
         "k must be a positive integer, got nan"),
        (lambda: pc.Cornerpoint(0.0, 1.0, math.inf), ValueError, "multiplicity must be a positive integer, got inf"),
        (lambda: pc.Cornerpoint(0.0, 1.0, 2.0), ValueError, "multiplicity must be a positive integer, got 2.0"),
        (lambda: pc.Cornerpoint(0.0, 1.0, math.nan), ValueError, "multiplicity must be a positive integer, got nan"),
    ],
    ids=["clique 3.0", "edge_block inf", "vertex_block nan", "edge_block True", "orbit_deletion inf",
         "orbit_deletion 2.0", "fixed_vertex_deletion nan", "multiplicity inf", "multiplicity 2.0", "multiplicity nan"],
)
def test_constructors_take_only_int_counts(make, error, message):
    # a float count was accepted, or raised OverflowError or a bare
    # conversion error, instead of the class's own error
    with pytest.raises(error) as err:
        make()
    assert type(err.value) is error
    assert str(err.value) == message


def test_empty_graph_is_never_connected():
    empty = pc.simple_graph()
    for spec in ALL_SPECS:
        assert not pc.is_property_connected(empty, spec)


def test_k4_is_clique3_connected():
    assert pc.is_property_connected(complete("wxyz"), pc.PropertySpec("clique", 3))
    assert oracles.oracle_is_property(complete("wxyz"), pc.PropertySpec("clique", 3))


def test_single_vertex_blocks():
    single = pc.simple_graph(vertices=["s"])
    assert not pc.is_property_connected(single, pc.PropertySpec("vertex_block", 2))
    assert pc.is_property_connected(single, pc.PropertySpec("edge_block", 2))
    assert pc.is_property_connected(single, pc.PropertySpec("edge_block", 5))


def test_bowtie_membership_and_components():
    g = bowtie()
    assert not pc.is_property_connected(g, pc.PropertySpec("vertex_block", 2))
    assert pc.is_property_connected(g, pc.PropertySpec("edge_block", 2))
    blocks = pc.property_components(g, pc.PropertySpec("vertex_block", 2))
    assert [sorted(c.vertices) for c in blocks] == [["a", "b", "c"], ["c", "d", "e"]]
    eblocks = pc.property_components(g, pc.PropertySpec("edge_block", 2))
    assert [sorted(c.vertices) for c in eblocks] == [["a", "b", "c", "d", "e"]]


def test_clique_communities_of_disjoint_k4_k3():
    g = complete("wxyz").union(complete("pqr"))
    comms = pc.property_components(g, pc.PropertySpec("clique", 3))
    assert [sorted(c.vertices) for c in comms] == [["p", "q", "r"], ["w", "x", "y", "z"]]


def test_components_of_many_disjoint_triangles():
    triangles = [[f"t{i:04d}{x}" for x in "abc"] for i in range(3000)]
    lone = [f"z{i:02d}" for i in range(40)]
    g = pc.simple_graph(lone, [e for t in triangles for e in combinations(t, 2)])
    comps = pc.property_components(g, pc.PropertySpec("components"))
    assert comps == [complete(t) for t in triangles] + [pc.simple_graph([v]) for v in lone]


def test_path_components():
    g = pc.simple_graph(edges=[("a", "b"), ("b", "c")])
    comps = pc.property_components(g, pc.PropertySpec("components"))
    assert [sorted(c.vertices) for c in comps] == [["a", "b", "c"]]


def test_pendant_edge_breaks_clique_membership():
    g = pc.simple_graph(edges=[("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")])
    assert not pc.is_property_connected(g, pc.PropertySpec("clique", 3))
    comms = pc.property_components(g, pc.PropertySpec("clique", 3))
    assert [sorted(c.vertices) for c in comms] == [["a", "b", "c"]]


def test_clique_community_need_not_be_induced():
    # two triangle chains meeting at a stray edge u-v that lies in no triangle
    edges = [
        ("u", "a"), ("u", "b"), ("a", "b"),
        ("a", "w"), ("b", "w"),
        ("b", "x"), ("w", "x"),
        ("x", "v"), ("w", "v"),
        ("u", "v"),
    ]
    g = pc.simple_graph(edges=edges)
    comms = pc.property_components(g, pc.PropertySpec("clique", 3))
    assert len(comms) == 1
    assert ("u", "v") not in comms[0].edges
    assert {"u", "v"} <= comms[0].vertices
    assert oracles.oracle_components(g, pc.PropertySpec("clique", 3)) == comms


def test_subobject_poset_examples():
    tri = complete("abc")
    po = pc.subobject_poset(tri, pc.PropertySpec("components"))
    assert len(po) == 7
    iso = pc.simple_graph(vertices=["a", "b"])
    po2 = pc.subobject_poset(iso, pc.PropertySpec("components"))
    assert len(po2) == 2 and len(po2.relation_pairs()) == 0
    po3 = pc.subobject_poset(complete("wxyz"), pc.PropertySpec("clique", 3))
    maxima = po3.maximal_elements()
    assert len(maxima) == 1 and maxima[0] == complete("wxyz")


def test_subobject_poset_cap():
    with pytest.raises(pc.CapExceeded):
        pc.subobject_poset(complete("abcdefgh"), pc.PropertySpec("components"), size_cap=7)


def test_maximal_elements_agree_with_components(seed=23):
    rng = random.Random(seed)
    for _ in range(12):
        wg = random_weighted_graph(rng, max_vertices=6, max_edges=9)
        g = wg.graph
        for spec in ALL_SPECS:
            poset = pc.subobject_poset(g, spec)
            maxima = sorted(poset.maximal_elements(), key=lambda c: tuple(sorted(c.vertices)))
            comps = pc.property_components(g, spec)
            assert maxima == comps, (spec, sorted(g.edges))


def test_union_property_brute_force(seed=5):
    # two property subgraphs sharing a property subgraph have a property union
    rng = random.Random(seed)
    for _ in range(8):
        wg = random_weighted_graph(rng, max_vertices=6, max_edges=8)
        g = wg.graph
        for spec in ALL_SPECS:
            elements = list(pc.subobject_poset(g, spec).elements)
            for x1 in elements:
                for x2 in elements:
                    joined = any(
                        x1.includes(y) and x2.includes(y) for y in elements
                    )
                    if joined:
                        assert pc.is_property_connected(x1.union(x2), spec)


def test_blocks_monotone_under_induced_closure(seed=29):
    rng = random.Random(seed)
    for _ in range(10):
        wg = random_weighted_graph(rng, max_vertices=6, max_edges=9)
        g = wg.graph
        for kind in ("vertex_block", "edge_block"):
            for k in (2, 3):
                spec = pc.PropertySpec(kind, k)
                for comp in pc.property_components(g, spec):
                    induced = g.induced(comp.vertices)
                    assert comp == induced  # maximal components are induced
                    assert pc.is_property_connected(induced, spec)


def test_clique2_matches_components_without_isolated_vertices(seed=31):
    rng = random.Random(seed)
    for _ in range(15):
        wg = random_weighted_graph(rng, max_vertices=7, allow_isolated=False, max_edges=10)
        g = wg.graph
        if any(not nbrs for nbrs in g.adjacency().values()):
            continue
        comms = pc.property_components(g, pc.PropertySpec("clique", 2))
        comps = pc.property_components(g, pc.PropertySpec("components"))
        assert comms == comps


def test_oracle_equivalence_small(seed=37):
    rng = random.Random(seed)
    for _ in range(6):
        wg = random_weighted_graph(rng, max_vertices=6, max_edges=9)
        g = wg.graph
        for spec in ALL_SPECS:
            assert pc.property_components(g, spec) == oracles.oracle_components(g, spec), (
                spec,
                sorted(g.edges),
            )
            assert pc.is_property_connected(g, spec) == oracles.oracle_is_property(g, spec)


def test_strict_edge_deletion_reading_differs_on_isolated_vertices():
    single = pc.simple_graph(vertices=["s"])
    assert pc.is_property_connected(single, pc.PropertySpec("edge_block", 2))
    assert not oracles.strict_edge_deletion_connected(single, 2)
    # on graphs whose minimum degree reaches k the two readings agree
    g = complete("abcd")
    for k in (1, 2, 3):
        assert oracles.strict_edge_deletion_connected(g, k) == pc.is_property_connected(
            g, pc.PropertySpec("edge_block", k)
        )


def _block_corpus(seed, count):
    """Seeded simple graphs with 15-45 vertices and edge densities 0.05-0.35."""
    rng = random.Random(seed)
    for _ in range(count):
        vs = [f"v{i:02d}" for i in range(rng.randint(15, 45))]
        p = rng.uniform(0.05, 0.35)
        yield pc.simple_graph(vs, [e for e in combinations(vs, 2) if rng.random() < p])


def _clustered_corpus(seed, count):
    """Seeded graphs of 3-5 dense clusters with 0-3 random edges between
    each pair of clusters, so that cuts just below and at k are common."""
    rng = random.Random(seed)
    for _ in range(count):
        clusters = [[f"c{c}v{i}" for i in range(rng.randint(4, 8))] for c in range(rng.randint(3, 5))]
        edges = [e for vs in clusters for e in combinations(vs, 2) if rng.random() < 0.8]
        for a, b in combinations(clusters, 2):
            edges += [(rng.choice(a), rng.choice(b)) for _ in range(rng.randint(0, 6) // 2)]
        yield pc.simple_graph([v for vs in clusters for v in vs], edges)


def _to_networkx(nx, g):
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    return h


def _vertex_sets(comps):
    return [sorted(c.vertices) for c in comps]


def test_edge_blocks_match_networkx():
    nx = pytest.importorskip("networkx")
    for g in [*_block_corpus(41, 30), *_clustered_corpus(53, 30)]:
        h = _to_networkx(nx, g)
        for k in (2, 3, 4, 5):
            comps = pc.property_components(g, pc.PropertySpec("edge_block", k))
            assert all(c == g.induced(c.vertices) for c in comps)
            expected = sorted(sorted(s) for s in nx.k_edge_subgraphs(h, k))
            assert _vertex_sets(comps) == expected, (k, sorted(g.edges))


def test_edge_blocks_at_k2_are_linear_on_bridge_chains():
    # splitting along one cut and restarting on each side took 22.9 s on this chain
    nx = pytest.importorskip("networkx")
    g = pc.simple_graph(edges=triangle_bridge_chain(1000))
    start = time.perf_counter()
    comps = pc.property_components(g, pc.PropertySpec("edge_block", 2))
    assert time.perf_counter() - start < 1.0
    assert len(comps) == 1000
    assert _vertex_sets(comps) == sorted(sorted(s) for s in nx.k_edge_components(_to_networkx(nx, g), 2))


def test_edge_block_contraction_stops_below_k():
    # an MA ordering from a1 runs a1 a2 a3 a4 b1, and b1 attaches to the
    # first four by exactly two edges: contracting a4 with b1 at k = 3
    # would merge the two K4s across their 2-edge cut
    a, b = ["a1", "a2", "a3", "a4"], ["b1", "b2", "b3", "b4"]
    g = complete(a).union(complete(b)).union(pc.simple_graph(edges=[("a1", "b1"), ("a2", "b1")]))
    blocks = pc.property_components(g, pc.PropertySpec("edge_block", 3))
    assert _vertex_sets(blocks) == [a, b]
    weights = {v: dict.fromkeys(nbrs, 1) for v, nbrs in g.adjacency().items()}
    assert edge_cut_below(weights, 3) in (set(a), set(b))
    assert edge_cut_below(weights, 2) is None


def test_vertex_blocks_match_networkx():
    nx = pytest.importorskip("networkx")
    for g in _block_corpus(43, 30):
        h = _to_networkx(nx, g)
        blocks = pc.property_components(g, pc.PropertySpec("vertex_block", 2))
        assert all(c == g.induced(c.vertices) for c in blocks)
        assert _vertex_sets(blocks) == sorted(sorted(s) for s in nx.biconnected_components(h))
        blocks3 = pc.property_components(g, pc.PropertySpec("vertex_block", 3))
        sets3 = [c.vertices for c in blocks3]
        assert _vertex_sets(blocks3) == sorted(_vertex_sets(blocks3))
        for c in blocks3:
            assert c == g.induced(c.vertices)
            sub = h.subgraph(c.vertices)
            is_k3 = len(c.vertices) == 3 and len(c.edges) == 3
            assert is_k3 or nx.node_connectivity(sub) >= 3, sorted(c.vertices)
            # each 3-block lies in one 2-block
            assert any(c.vertices <= b.vertices for b in blocks)
            # a vertex with three neighbours in a 3-block would extend it
            assert all(len(set(h[v]) & c.vertices) < 3 for v in g.vertices - c.vertices)
        assert not any(a < b for a in sets3 for b in sets3)


def _connected_non_complete(rng, max_vertices):
    """A random connected, non-complete adjacency on 4..max_vertices vertices."""
    while True:
        vs = [f"v{i}" for i in range(rng.randint(4, max_vertices))]
        p = rng.uniform(0.3, 0.9)
        g = pc.simple_graph(vs, [e for e in combinations(vs, 2) if rng.random() < p])
        adj = g.adjacency()
        if len(g.edges) < len(vs) * (len(vs) - 1) // 2 and oracles.dfs_connected(g.vertices, g.edges):
            return adj


def test_vertex_cut_below_matches_the_oracles(seed=71):
    # groups are blocks of the graph itself or of a random edge subset, so no
    # cut below k splits them; the verdict never depends on them
    rng = random.Random(seed)
    hits = grouped = 0
    for _ in range(400):
        adj = _connected_non_complete(rng, 9)
        k = rng.randint(2, 4)
        keep = rng.uniform(0.5, 1.0)
        sub = {v: set() for v in adj}
        for u, v in [(u, v) for u in adj for v in adj[u] if u < v and rng.random() < keep]:
            sub[u].add(v)
            sub[v].add(u)
        expected = oracles.brute_force_cut_below(adj, k)
        assert (oracles.probe_every_pair_cut_below(adj, k) is None) == (expected is None)
        for groups in ((), oracles.vertex_blocks(adj, k), oracles.vertex_blocks(sub, k)):
            cut = vertex_cut_below(adj, k, groups)
            assert (cut is None) == (expected is None), (sorted(adj.items()), k, groups)
            if cut is not None:
                assert len(cut) < k and oracles.disconnects(adj, cut), cut
        hits += expected is not None
        grouped += bool(oracles.vertex_blocks(sub, k))
    assert 100 < hits < 300 and grouped > 100


def test_vertex_cut_below_keeps_a_cut_between_two_groups():
    # two K4s share {a, b}: at k = 3 v0 = c knows a, b, d and its own K4,
    # and e, f each see only two known vertices, as the other K4 holds only
    # two known members; a threshold of k - 1 on either sweep would miss {a, b}
    left, right = complete("abcd"), complete("abef")
    adj = left.union(right).adjacency()
    groups = [left.vertices, right.vertices]
    assert vertex_cut_below(adj, 3, groups) == {"a", "b"}
    assert vertex_cut_below(adj, 3) == {"a", "b"}
    assert vertex_cut_below(adj, 2, groups) is None


def test_vertex_cut_below_finds_a_cut_through_v0():
    # two K5s, a and b, both joined to the hub z, and v0 of degree 4 joined
    # to two vertices of each: {v0, z} is the one cut below 3, so only the
    # pairs of v0's neighbours find it, and a1, b1 share no group
    a, b = [f"a{i}" for i in range(5)], [f"b{i}" for i in range(5)]
    g = complete(a + ["z"]).union(complete(b + ["z"]))
    g = g.union(pc.simple_graph(edges=[("v0", x) for x in ("a0", "a1", "b0", "b1")]))
    for groups in ((), [frozenset(a + ["z"]), frozenset(b + ["z"])]):
        assert vertex_cut_below(g.adjacency(), 3, groups) == {"v0", "z"}


def test_vertex_block_diagram_probe_count(monkeypatch):
    # the sweeps settle most vertices: probing every pair that a minimum cut
    # may separate takes 6,181 flow probes on this graph; every probe, fan
    # or pair, runs one _reach_below
    calls = []
    reach_below = cuts._reach_below
    monkeypatch.setattr(cuts, "_reach_below", lambda *args: calls.append(1) or reach_below(*args))
    rng = random.Random(200)
    filt = pc.build_filtration(weigh(rng, sparse_graph_edges(rng, 200), tied=False))
    diagram = pc.graph_diagram(filt, pc.PropertySpec("vertex_block", 3))
    assert 0 < len(calls) < 500
    assert len(diagram.points) > 1


def test_block_levels_match_the_providers_level_by_level(seed=67):
    # one adjacency grown over integer vertices gives every level's maximal
    # vertex sets, and one clique sweep every level's communities, as the
    # providers do on each sublevel graph
    specs = [pc.PropertySpec("components")] + [
        pc.PropertySpec(kind, k) for kind in ("vertex_block", "edge_block") for k in (1, 2, 3, 4)
    ] + [pc.PropertySpec("clique", k) for k in (2, 3, 4)]
    rng = random.Random(seed)
    cases = [
        (random_weighted_graph(rng, max_vertices=10, max_criticals=5, edge_prob=(0.3, 0.8)), specs)
        for _ in range(25)
    ]
    cases += [(six_clusters(rng), [s for s in specs if s.k >= 3]) for _ in range(8)]
    # the specs read off one merge forest, on tied and distinct weights, K5
    # chains and triangle-bridge chains
    forest_specs = [s for s in specs if s.kind in ("components", "clique") or s.k <= 2]
    cases += [(wg, forest_specs) for wg in _sweep_corpus(seed)]
    for wg, case_specs in cases:
        filt = pc.build_filtration(wg)
        names = list(wg.vertex_weights)
        index = {v: i for i, v in enumerate(names)}
        edges = [(index[u], index[v], w) for (u, v), w in wg.edge_weights.items()]
        for spec in case_specs:
            levels = block_levels(filt.criticals, list(wg.vertex_weights.values()), edges, spec)
            assert len(levels) == len(filt.criticals)
            for i, sets in enumerate(levels):
                comps = oracles.oracle_property_components(filt.sublevel_at(i), spec)
                if spec.kind == "clique":
                    # a community is the set of its cliques; compare union graphs
                    got = sorted(_clique_union(names, cs) for cs in sets)
                    assert got == sorted((sorted(c.vertices), sorted(c.edges)) for c in comps), spec
                else:
                    assert sorted(sorted(names[x] for x in s) for s in sets) == _vertex_sets(comps), spec


def _sweep_corpus(seed):
    """Tied and distinct-weight random filtrations, six-cluster graphs, K5
    chains, triangle-bridge chains and random geometric graphs."""
    rng = random.Random(seed)
    cases = [random_weighted_graph(rng, max_vertices=12, edge_prob=(0.3, 0.9)) for _ in range(30)]
    for _ in range(30):
        vs = range(rng.randint(8, 24))
        pairs = [(f"v{a:02d}", f"v{b:02d}") for a, b in combinations(vs, 2) if rng.random() < rng.uniform(0.2, 0.6)]
        if pairs:
            cases.append(weigh(rng, pairs, tied=rng.random() < 0.5))
    cases += [six_clusters(rng) for _ in range(4)]
    for tied in (True, False):
        cases.append(weigh(rng, k5_chain(6), tied))
        cases.append(weigh(rng, triangle_bridge_chain(12), tied))
    cases += [random_geometric_graph(rng, n) for n in (20, 30, 40)]
    return cases


@pytest.mark.parametrize("kind", ["edge_block", "vertex_block"])
def test_block_sweeps_match_the_per_level_oracle(kind):
    # the k >= 3 sweeps search only what an entering edge touches; running
    # the provider on every whole level must give the same diagrams and tables
    found = 0
    for wg in _sweep_corpus(83):
        filt = pc.build_filtration(wg)
        births, edges = graphs.indexed_graph(wg)
        for k in (3, 4):
            spec = pc.PropertySpec(kind, k)
            levels = oracles.oracle_block_levels(filt.criticals, births, edges, spec)
            expected = oracles.oracle_successor_diagram(filt.criticals, levels, lambda d, c: d <= c)
            got = pc.graph_diagram(filt, spec)
            assert pc.serialize_diagram(got) == pc.serialize_diagram(expected), (spec, sorted(wg.edge_weights.items()))
            assert pc.persistence_function(filt, spec) == oracles.oracle_table(filt.criticals, levels, lambda d, c: d <= c)
            found += sum(len(s) > 1 for s in levels[-1])
    assert found > 100


def test_fan_probe_cut_leaves_out_its_source(monkeypatch):
    # two K5s share {a, b}: v0 = c knows a, b, d, e, and f sees only a and
    # b of them, so f is probed by a fan into the five known vertices; its
    # two paths give the cut {a, b}, without f
    adj = complete("abcde").union(complete("abfgh")).adjacency()
    probes = []
    reach_below = cuts._reach_below
    monkeypatch.setattr(cuts, "_reach_below", lambda *args: probes.append(args[4].copy()) or reach_below(*args))
    cut = vertex_cut_below(adj, 3)
    assert cut == {"a", "b"} and "f" not in cut
    assert oracles.disconnects(adj, cut)
    assert [len(sinks) for sinks in probes] == [5]


def test_block_levels_carry_an_untouched_biconnected_block(monkeypatch):
    # a K4, and a K4 with a triangle on two of its vertices, joined by a
    # bridge: at the second level only the second gains an edge, so the
    # first keeps its block, and its node, and is not searched again
    k4 = list(combinations(range(4), 2))
    right = list(combinations(range(4, 8), 2)) + [(6, 8), (7, 8)]
    edges = [(u, v, 1.0) for u, v in k4 + right + [(3, 4)]] + [(5, 8, 2.0)]
    searched = []
    split = connectivity._split_vertex_blocks
    monkeypatch.setattr(
        connectivity,
        "_split_vertex_blocks",
        lambda adj, blocks, k, prior: searched.append(sorted(map(sorted, blocks))) or split(adj, blocks, k, prior),
    )
    first, second = block_levels((1.0, 2.0), [1.0] * 9, edges, pc.PropertySpec("vertex_block", 3))
    assert sorted(map(sorted, first)) == [[0, 1, 2, 3], [4, 5, 6, 7], [6, 7, 8]]
    assert sorted(map(sorted, second)) == [[0, 1, 2, 3], [4, 5, 6, 7, 8]]
    assert searched == [[[0, 1, 2, 3], [4, 5, 6, 7, 8]], [[4, 5, 6, 7, 8]]]
    blocks, births, _ = connectivity.vertex_block_merges((1.0, 2.0), [1.0] * 9, edges, 3)
    assert [c for b, c in zip(blocks, births) if b == {0, 1, 2, 3}] == [1.0]


def test_k33_keeps_its_node_as_two_triangles_merge():
    # K3,3 holds the non-adjacent u and v, and the triangles a-b-u and a-b-v
    # hang off them; when uv enters, the triangles merge into the K4
    # {a, b, u, v}, and K3,3, searched again as part of the same biconnected
    # block, is found unchanged and keeps its node
    u, v, a, b = "x0", "x1", "a", "b"
    k33 = [(f"x{i}", f"y{j}") for i in range(3) for j in range(3)]
    wg = pc.weighted_graph({e: 1.0 for e in k33 + [(a, b), (a, u), (b, u), (a, v), (b, v)]} | {(u, v): 2.0})
    filt = pc.build_filtration(wg)
    births, edges = graphs.indexed_graph(wg)
    names = list(wg.vertex_weights)
    spec = pc.PropertySpec("vertex_block", 3)
    levels = block_levels(filt.criticals, births, edges, spec)
    expected = oracles.oracle_block_levels(filt.criticals, births, edges, spec)
    assert [sorted(map(sorted, sets)) for sets in levels] == [sorted(map(sorted, sets)) for sets in expected]
    blocks, node_births, merges = connectivity.vertex_block_merges(filt.criticals, births, edges, 3)
    named = [frozenset(names[x] for x in s) for s in blocks]
    k33_block = frozenset(x for e in k33 for x in e)
    assert [c for s, c in zip(named, node_births) if s == k33_block] == [1.0]
    assert sorted((sorted(named[x]), sorted(named[y]), c) for x, y, c in merges) == [
        (sorted([a, b, u]), sorted([a, b, u, v]), 2.0),
        (sorted([a, b, v]), sorted([a, b, u, v]), 2.0),
    ]
    swept = pc.index_diagram(births, edges, spec)
    assert swept == oracles.oracle_successor_diagram(filt.criticals, expected, lambda d, c: d <= c)
    assert pc.serialize_diagram(swept) == "1 2 1\n1 inf 2\n"
    assert pc.persistence_function(filt, spec) == oracles.oracle_table(filt.criticals, expected, lambda d, c: d <= c)


@pytest.mark.parametrize("kind", ["edge_block", "vertex_block"])
def test_k3_block_diagrams_scale(kind):
    # on a 2-core Xeon, searching every whole level took 1.1-1.8 s (edge
    # blocks) and 0.6-1.1 s (vertex blocks) on this graph; the sweeps take
    # 0.16-0.37 s
    rng = random.Random(400)
    filt = pc.build_filtration(weigh(rng, sparse_graph_edges(rng, 400), tied=False))
    start = time.perf_counter()
    diagram = pc.graph_diagram(filt, pc.PropertySpec(kind, 3))
    assert time.perf_counter() - start < 1.0
    assert len(diagram.points) > 1


def _clique_union(names, cliques):
    """Sorted vertices and edges of the union of integer cliques, by name."""
    vs = {names[x] for c in cliques for x in c}
    es = {tuple(sorted((names[a], names[b]))) for c in cliques for a, b in combinations(c, 2)}
    return sorted(vs), sorted(es)


def _networkx_level_sets(nx, wg, crit, kind, k):
    level = nx.Graph()
    level.add_edges_from(e for e, w in wg.edge_weights.items() if w <= crit)
    if kind == "edge_block":
        return [frozenset(s) for s in nx.k_edge_subgraphs(level, k)]
    return [frozenset(s) for s in nx.biconnected_components(level)]


@pytest.mark.parametrize("kind,k", [("edge_block", 2), ("edge_block", 3), ("vertex_block", 2)])
def test_block_diagrams_match_networkx_levels(kind, k):
    nx = pytest.importorskip("networkx")
    rng = random.Random(47)
    vs = [f"v{i:02d}" for i in range(30)]
    lines = [
        f"e {a} {b} {rng.randint(1, 12)}\n" for a, b in combinations(vs, 2) if rng.random() < 0.2
    ]
    wg = pc.parse_weighted_graph("".join(lines))
    filt = pc.build_filtration(wg)
    spec = pc.PropertySpec(kind, k)
    levels = [_networkx_level_sets(nx, wg, c, kind, k) for c in filt.criticals]
    expected = oracles.oracle_table(filt.criticals, levels, lambda d, c: d <= c)
    pf = pc.persistence_function(filt, spec)
    assert pf == expected
    assert pc.extract_diagram(pf) == pc.extract_diagram(expected)
    assert pc.graph_diagram(filt, spec) == pc.extract_diagram(expected)
    assert len(pc.extract_diagram(pf).points) > 1


@pytest.mark.parametrize("k", [2, 3, 4])
def test_clique_percolation_finds_each_clique_once(k, seed=113):
    rng = random.Random(seed + k)
    found = 0
    for _ in range(60):
        g = random_weighted_graph(rng, max_vertices=9, edge_prob=(0.4, 0.8)).graph
        edges = sorted(g.edges)
        rng.shuffle(edges)
        cliques, births, merges = cuts.clique_percolation([(u, v, i) for i, (u, v) in enumerate(edges)], k)
        assert sorted(cliques) == sorted(tuple(sorted(c)) for c in oracles._all_k_cliques(g, k))
        # each clique is born at its last edge in the sweep
        position = {e: i for i, e in enumerate(edges)}
        assert births == [max(position[e] for e in combinations(c, 2)) for c in cliques]
        for q, p, w in merges:
            assert p < q and w == births[q] and len(set(cliques[p]) & set(cliques[q])) == k - 1
        found += len(cliques)
    assert found > 100


def test_cliques_within_lists_the_oracle_cliques_in_its_order(seed=127):
    # the last level closes each partial clique with no list of later
    # candidates; the cliques and their order stay the oracle's
    rng = random.Random(seed)
    found = 0
    for _ in range(80):
        g = random_weighted_graph(rng, max_vertices=10, edge_prob=(0.3, 0.9)).graph
        adj = g.adjacency()
        cand = {v for v in g.vertices if rng.random() < 0.8}
        for r in range(4):
            got = cuts.cliques_within(adj, cand, r)
            assert got == oracles.oracle_cliques_within(adj, cand, r), (sorted(g.edges), sorted(cand), r)
            found += len(got)
    assert found > 500


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_clique_percolation_matches_the_oracle_sweep(k, seed=131):
    # the same cliques, births and merges, in the same order, as the sweep
    # that lists every edge's cliques with the oracle
    rng = random.Random(seed + k)
    found = 0
    for _ in range(60):
        g = random_weighted_graph(rng, max_vertices=10, edge_prob=(0.4, 0.9)).graph
        edges = sorted(g.edges)
        rng.shuffle(edges)
        weighted = [(u, v, float(i // 3)) for i, (u, v) in enumerate(edges)]
        got = cuts.clique_percolation(weighted, k)
        assert got == oracles.oracle_clique_percolation(weighted, k), (weighted, k)
        found += len(got[0])
    assert found > 60


@pytest.mark.parametrize("k", [3, 4])
def test_clique_communities_match_networkx_levels(k):
    nx = pytest.importorskip("networkx")
    rng = random.Random(60 + k)
    found = 0
    for _ in range(10):
        vs = [f"v{i:02d}" for i in range(rng.randint(15, 40))]
        p = rng.uniform(0.2, 0.45)
        lines = [f"e {a} {b} {rng.randint(1, 5)}\n" for a, b in combinations(vs, 2) if rng.random() < p]
        filt = pc.build_filtration(pc.parse_weighted_graph("".join(lines)))
        for i in range(len(filt.criticals)):
            level = filt.sublevel_at(i)
            comms = pc.property_components(level, pc.PropertySpec("clique", k))
            expected = nx.community.k_clique_communities(_to_networkx(nx, level), k)
            assert _vertex_sets(comms) == sorted(sorted(c) for c in expected)
            found += len(comms)
    assert found > 40
