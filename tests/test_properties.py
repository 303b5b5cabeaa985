"""Text round-trip properties of the three file formats, as hypothesis tests.

Derandomized with fixed example counts, so every run checks the same inputs.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import perconn as pc  # noqa: E402
from corpus import random_gquiver  # noqa: E402

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
