import math
import random

import pytest

import oracles
import perconn as pc
from corpus import GRAPH_ERRORS, corrupt_graph_text, random_graph_text, random_weighted_graph


def test_single_edge_derives_vertex_weights():
    wg = pc.parse_weighted_graph("e a b 1.0\n")
    assert wg.graph.vertices == frozenset({"a", "b"})
    assert wg.edge_weights[("a", "b")] == 1.0
    assert wg.vertex_weights == {"a": 1.0, "b": 1.0}


def test_vertex_weight_is_min_of_incident_edges():
    wg = pc.parse_weighted_graph("e a b 1\ne b c 2\n")
    assert wg.vertex_weights["b"] == 1.0
    assert wg.vertex_weights["c"] == 2.0


def test_explicit_isolated_vertex():
    wg = pc.parse_weighted_graph("v z 0.5\ne a b 1\n")
    assert wg.vertex_weights["z"] == 0.5
    assert ("z" in wg.explicit) and not wg.graph.adjacency()["z"]


def test_round_trip_is_identity():
    text = "v z 0.5\ne a b 1\ne b c 2\n"
    wg = pc.parse_weighted_graph(text)
    assert pc.serialize_weighted_graph(wg) == text
    assert pc.parse_weighted_graph(pc.serialize_weighted_graph(wg)) == wg


def test_round_trip_random(seed=7):
    rng = random.Random(seed)
    for _ in range(25):
        wg = random_weighted_graph(rng, max_vertices=8)
        again = pc.parse_weighted_graph(pc.serialize_weighted_graph(wg))
        assert again == wg


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("e a a 1\n", "self-loop"),
        ("e a b 1\ne b a 2\n", "duplicate edge"),
        ("v z 1\nv z 2\n", "duplicate vertex"),
        ("e a b\n", "edge record"),
        ("x a b 1\n", "unknown record"),
        ("e a b nope\n", "bad weight"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(pc.FormatError) as err:
        pc.parse_weighted_graph(text)
    assert fragment in str(err.value)
    assert "line" in str(err.value)


def test_isolated_vertex_without_weight_rejected():
    with pytest.raises(pc.GraphError, match="isolated vertex"):
        pc.weighted_graph({("a", "b"): 1.0}, {}, vertices=["z"])


def test_explicit_weight_above_derived_rejected():
    with pytest.raises(pc.GraphError, match="exceeds"):
        pc.weighted_graph({("a", "b"): 1.0}, {"a": 2.0})


def test_explicit_weight_may_equal_or_lower_derived():
    wg = pc.weighted_graph({("a", "b"): 1.0}, {"a": 1.0, "b": 0.25})
    assert wg.vertex_weights == {"a": 1.0, "b": 0.25}


def test_sublevel_examples():
    bow = pc.weighted_graph(
        {e: 1.0 for e in [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("c", "e"), ("d", "e")]}
    )
    f = pc.build_filtration(bow)
    assert not f.sublevel(0.0).vertices
    assert f.sublevel(math.inf) == bow.graph
    two = pc.parse_weighted_graph("e a b 1\ne b c 2\n")
    g = pc.build_filtration(two).sublevel(1.5)
    assert g.vertices == frozenset({"a", "b"})
    assert g.edges == frozenset({("a", "b")})


def test_critical_values_examples():
    wg = pc.parse_weighted_graph("e a b 1\ne b c 2\ne a c 3\n")
    assert pc.critical_values(wg) == [1.0, 2.0, 3.0]
    wg = pc.parse_weighted_graph("e a b 5\ne b c 5\n")
    assert pc.critical_values(wg) == [5.0]
    wg = pc.parse_weighted_graph("v z 0.5\ne a b 1\n")
    assert pc.critical_values(wg) == [0.5, 1.0]


def test_sublevels_constant_between_criticals(seed=11):
    rng = random.Random(seed)
    for _ in range(10):
        wg = random_weighted_graph(rng, max_vertices=7)
        f = pc.build_filtration(wg)
        for a, b in zip(f.criticals, f.criticals[1:]):
            lo = f.sublevel(a)
            mid = f.sublevel((a + b) / 2)
            assert lo == mid
        for i in range(len(f.criticals) - 1):
            small, big = f.sublevel_at(i), f.sublevel_at(i + 1)
            assert big.includes(small)


@pytest.mark.parametrize("text,line,message", GRAPH_ERRORS)
def test_reader_error_messages(text, line, message):
    for parse in (pc.parse_weighted_graph, pc.parse_indexed_graph, oracles.oracle_parse_weighted_graph):
        with pytest.raises(pc.FormatError) as err:
            parse(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"


# The same checks through the API: plain GraphErrors, reported in input order.
API_ERRORS = [
    (({("a", "a"): 1.0},), "self-loop at 'a'"),
    (({("b", "a"): math.inf},), "edge ('a', 'b') has non-finite weight inf"),
    (([(("a", "b"), 1.0), (("b", "a"), 2.0)],), "duplicate edge ('a', 'b')"),
    (({}, {"a": math.nan}), "vertex 'a' has non-finite weight nan"),
    (({}, [("a", 1.0), ("a", 2.0)]), "duplicate vertex weight for 'a'"),
    (({("a", "b"): 1.0}, {"a": 2}), "explicit weight 2.0 of vertex 'a' exceeds the incident minimum 1.0"),
    (({("a", "b"): 1.0, ("c", "d"): 1.0}, {"d": 2.0, "b": 0.5, "a": 3.0}),
     "explicit weight 2.0 of vertex 'd' exceeds the incident minimum 1.0"),
    (({("a", "b"): 1.0}, {}, ["a", "z", "y"]), "isolated vertex 'z' needs an explicit weight"),
    (({("a", "b"): 1.0}, {"a": 5.0}, ["z"]),
     "explicit weight 5.0 of vertex 'a' exceeds the incident minimum 1.0"),
]


@pytest.mark.parametrize("args,message", API_ERRORS)
def test_weighted_graph_error_messages(args, message):
    with pytest.raises(pc.GraphError) as err:
        pc.weighted_graph(*args)
    assert type(err.value) is pc.GraphError
    assert str(err.value) == message


def test_assembled_graph_meets_the_simple_graph_invariants():
    text = "v z -0\ne c b -0\ne a b 2\nv a 1\n"
    wg = pc.parse_weighted_graph(text)
    assert wg == pc.weighted_graph({("b", "c"): 0.0, ("a", "b"): 2.0}, {"z": 0.0, "a": 1.0})
    assert wg.graph == pc.SimpleGraph(wg.graph.vertices, wg.graph.edges)
    assert wg.graph == pc.simple_graph("z", [("c", "b"), ("a", "b")])
    assert hash(wg.graph) == hash(pc.simple_graph("z", [("c", "b"), ("a", "b")]))
    assert wg.edge_weights == {("b", "c"): 0.0, ("a", "b"): 2.0}
    assert wg.vertex_weights == {"a": 1.0, "b": 0.0, "c": 0.0, "z": 0.0}
    assert all(math.copysign(1.0, w) == 1.0 for w in [*wg.edge_weights.values(), *wg.vertex_weights.values()])
    assert wg.explicit == frozenset({"z", "a"})
    assert pc.serialize_weighted_graph(wg) == "v a 1\nv z 0\ne a b 2\ne b c 0\n"


def _same_reading(text: str) -> None:
    """Both outputs of the reader agree with the record-by-record oracle: the
    same FormatError, or the same graph with the same dict orders and signs
    and the same indexed form."""
    try:
        want = oracles.oracle_parse_weighted_graph(text)
    except pc.FormatError as exc:
        for parse in (pc.parse_weighted_graph, pc.parse_indexed_graph):
            with pytest.raises(pc.FormatError) as err:
                parse(text)
            assert (err.value.line, str(err.value)) == (exc.line, str(exc)), text
        return
    got = pc.parse_weighted_graph(text)
    assert got == want
    assert repr(list(got.vertex_weights.items())) == repr(list(want.vertex_weights.items()))
    assert repr(list(got.edge_weights.items())) == repr(list(want.edge_weights.items()))
    index = {v: i for i, v in enumerate(want.vertex_weights)}
    births, edges = pc.parse_indexed_graph(text)
    assert repr(births) == repr(list(want.vertex_weights.values()))
    assert edges == [(index[u], index[v], w) for (u, v), w in want.edge_weights.items()]


def test_reader_matches_the_oracle_on_random_texts(seed=23):
    rng = random.Random(seed)
    for _ in range(300):
        _same_reading(random_graph_text(rng))


def test_reader_errors_match_the_oracle_on_corrupted_texts(seed=29):
    rng = random.Random(seed)
    for _ in range(400):
        _same_reading(corrupt_graph_text(rng, random_graph_text(rng)))


def test_indexed_reader_on_empty_and_comment_only_texts():
    for text in ["", "\n", "# nothing\n\n  \n"]:
        assert pc.parse_indexed_graph(text) == ([], [])
    assert pc.parse_indexed_graph("v z -0\ne b a 2\nv a 1\n") == ([1.0, 2.0, 0.0], [(0, 1, 2.0)])
