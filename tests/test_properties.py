"""Text round-trip properties of the four file formats, the bottleneck
distance against the exhaustive oracle, the stability of diagrams under
perturbation, the k = 2 block sweeps against the per-level path, vertex
blocks carried from the level of an edge subset, and the CLI's exit codes
on arbitrary input, as hypothesis tests.

Derandomized with fixed example counts, so every run checks the same inputs.
"""

import contextlib
import io
import math
import os
import tempfile
from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import perconn as pc  # noqa: E402
from perconn import cli  # noqa: E402
from perconn.connectivity import block_levels  # noqa: E402
import oracles  # noqa: E402
from corpus import random_gquiver, random_weighted_graph  # noqa: E402

FIXED = hypothesis.settings(derandomize=True, max_examples=100, deadline=None, database=None)
NAMES = st.text(alphabet="abqz09_.|-", min_size=1, max_size=3)
WEIGHTS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def weighted_graphs(draw):
    names = draw(st.lists(NAMES, min_size=1, max_size=7, unique=True))
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = {pair: draw(WEIGHTS) for pair in chosen}
    explicit = {}
    for v in names:
        cap = min((w for e, w in edges.items() if v in e), default=None)
        if cap is None:
            explicit[v] = draw(WEIGHTS)
        elif draw(st.booleans()):
            explicit[v] = draw(st.floats(max_value=cap, allow_nan=False, allow_infinity=False))
    return pc.weighted_graph(edges, explicit)


@st.composite
def diagrams(draw):
    points = []
    for _ in range(draw(st.integers(0, 6))):
        birth = draw(WEIGHTS)
        death = draw(st.one_of(st.just(math.inf), WEIGHTS.filter(lambda x: x > birth)))
        points.append(pc.Cornerpoint(birth, death, draw(st.integers(1, 3))))
    return pc.diagram(points)


@FIXED
@hypothesis.given(weighted_graphs())
def test_weighted_graph_text_round_trip(wg):
    text = pc.serialize_weighted_graph(wg)
    again = pc.parse_weighted_graph(text)
    assert again == wg
    assert pc.serialize_weighted_graph(again) == text


@FIXED
@hypothesis.given(diagrams())
def test_diagram_text_round_trip(d):
    text = pc.serialize_diagram(d)
    again = pc.parse_diagram(text)
    assert again == d
    assert pc.serialize_diagram(again) == text


@hypothesis.settings(FIXED, max_examples=60)
@hypothesis.given(st.randoms(use_true_random=False), st.integers(1, 8), st.integers(0, 10))
def test_gquiver_text_round_trip(rng, max_vertices, max_arrows):
    gq = random_gquiver(rng, max_vertices, max_arrows)
    text = pc.serialize_gquiver(gq)
    again = pc.parse_gquiver(text)
    assert again == gq
    assert pc.serialize_gquiver(again) == text


@st.composite
def posets(draw):
    names = draw(st.lists(NAMES, min_size=1, max_size=7, unique=True))
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]]
    relations = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return pc.Poset(names, relations)


@FIXED
@hypothesis.given(posets())
def test_poset_text_round_trip(p):
    text = pc.serialize_poset(p)
    again = pc.parse_poset(text)
    assert set(again.elements) == set(p.elements)
    assert set(again.relation_pairs()) == set(p.relation_pairs())
    assert pc.serialize_poset(again) == text


STABILITY_SPECS = [
    pc.PropertySpec("components"),
    *(pc.PropertySpec("clique", k) for k in (2, 3)),
    *(pc.PropertySpec(kind, k) for kind in ("vertex_block", "edge_block") for k in (1, 2, 3)),
]


@st.composite
def grid_diagrams(draw):
    """Up to 6 points on a 0.5 grid, so equal costs and ties are common."""
    points = []
    for _ in range(draw(st.integers(0, 6))):
        birth = 0.5 * draw(st.integers(0, 8))
        death = draw(st.one_of(st.just(math.inf), st.integers(1, 6).map(lambda k: birth + 0.5 * k)))
        points.append(pc.Cornerpoint(birth, death))
    return pc.diagram(points)


@hypothesis.settings(FIXED, max_examples=200)
@hypothesis.given(grid_diagrams(), grid_diagrams())
def test_bottleneck_matches_exhaustive_oracle_on_tied_grids(d1, d2):
    assert pc.bottleneck_distance(d1, d2) == oracles.oracle_bottleneck(d1, d2)


@hypothesis.settings(FIXED, max_examples=30)
@hypothesis.given(
    st.randoms(use_true_random=False),
    st.floats(min_value=0.0, max_value=2.0),
    st.integers(0, 2**32 - 1),
)
def test_diagrams_are_stable_under_perturbation(rng, epsilon, seed):
    # 10-30 vertices with tied weights from a small pool: past brute-force
    # size, and the perturbation breaks the ties
    wg = random_weighted_graph(rng, max_vertices=30, min_vertices=10, max_criticals=8, edge_prob=(0.05, 0.25))
    f, g = pc.build_filtration(wg), pc.build_filtration(pc.perturb(wg, epsilon, seed))
    for spec in STABILITY_SPECS:
        dist = pc.bottleneck_distance(pc.graph_diagram(f, spec), pc.graph_diagram(g, spec))
        assert dist <= epsilon + 1e-9, (spec, dist)


@hypothesis.settings(FIXED, max_examples=150)
@hypothesis.given(weighted_graphs(), st.randoms(use_true_random=False), st.integers(1, 6))
def test_k2_block_sweeps_match_per_level_successor_diagrams(wg, rng, criticals):
    # arbitrary floats, and up to 16 vertices with weights from a small pool
    tied = random_weighted_graph(rng, max_vertices=16, max_criticals=criticals, edge_prob=(0.1, 0.5))
    for filt in (pc.build_filtration(wg), pc.build_filtration(tied)):
        for kind in ("edge_block", "vertex_block"):
            spec = pc.PropertySpec(kind, 2)
            levels = [oracles.oracle_property_components(filt.sublevel_at(i), spec) for i in range(len(filt.criticals))]
            expected = oracles.oracle_successor_diagram(filt.criticals, levels, lambda d, c: c.includes(d))
            assert pc.graph_diagram(filt, spec) == expected, kind


@st.composite
def graphs_and_edge_subsets(draw):
    """An adjacency on 2-12 integer vertices and one on a subset of its edges."""
    pairs = list(combinations(range(draw(st.integers(2, 12))), 2))
    edges = [e for e in pairs if draw(st.booleans())]
    kept = [e for e in edges if draw(st.booleans())]
    return tuple(_adjacency(pairs, chosen) for chosen in (edges, kept))


def _adjacency(pairs, edges):
    adj = {v: set() for pair in pairs for v in pair}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


@hypothesis.settings(FIXED, max_examples=200)
@hypothesis.given(graphs_and_edge_subsets(), st.integers(2, 5))
def test_block_levels_carry_the_blocks_of_an_edge_subset(graphs, k):
    # the edge subset enters at 0 and the rest at 1: the second level's cut
    # searches take the first level's blocks as groups, and both levels keep
    # the blocks the provider finds on each whole graph
    adj, sub = graphs
    edges = [(u, v, 0.0 if v in sub[u] else 1.0) for u in adj for v in adj[u] if u < v]
    levels = block_levels((0.0, 1.0), [0.0] * len(adj), edges, pc.PropertySpec("vertex_block", k))
    for blocks, graph in zip(levels, (sub, adj)):
        assert sorted(map(sorted, blocks)) == sorted(map(sorted, oracles.vertex_blocks(graph, k)))


# One invocation per command; FILE marks where the input files go.
FILE = object()
COMMANDS = [
    ["diagram", "--property", "components", FILE],
    ["diagram", "--property", "clique", "--k", "3", "--format", "json", FILE],
    ["components", "--property", "vertex-block", "--k", "3", FILE],
    ["components", "--property", "edge-block", "--k", "2", FILE],
    ["distance", FILE, FILE],
    ["pseudodistance", FILE, FILE],
    ["verify", "--property", "components", FILE],
    ["quiver-diagram", "--class", "fixed-vertex-deletion", FILE],
    ["plot", FILE],
]
TOKENS = ["e", "v", "a", "g", "map", "x", "y", "z", "1", "2", "0.5", "-0", "inf", "nan", "1e400", "100000000", "#", "é"]
RECORDS = st.lists(st.sampled_from(TOKENS), max_size=5).map(" ".join)
INPUTS = st.one_of(
    st.binary(max_size=64),
    st.lists(RECORDS, max_size=8).map(lambda lines: "\n".join(lines).encode("utf-8")),
)


@hypothesis.settings(FIXED, max_examples=150)
@hypothesis.given(INPUTS, INPUTS)
def test_cli_on_arbitrary_bytes_exits_with_one_line_errors(first, second):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, "first"), os.path.join(tmp, "second")]
        for path, data in zip(paths, (first, second)):
            with open(path, "wb") as fh:
                fh.write(data)
        for command in COMMANDS:
            files = iter(paths)
            argv = [next(files) if arg is FILE else arg for arg in command]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 1, 2), (argv, first, second)
            if code == 0:
                assert err.getvalue() == ""
            else:
                assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
