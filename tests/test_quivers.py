import random

import pytest

import perconn as pc
import oracles
from corpus import corrupt_gquiver_text, random_gquiver, random_gquiver_text, random_s3_gquiver

ISO = pc.EquivariantClass("isomorphisms")


def swap_cycle():
    return pc.gquiver(
        ["a", "b"],
        [("e1", "a", "b"), ("e2", "b", "a")],
        [({"a": "b", "b": "a"}, {"e1": "e2", "e2": "e1"})],
    )


def test_orbits_trivial_group():
    gq = pc.gquiver(["a", "b"], [("e1", "a", "b")], [])
    vorbs, aorbs = pc.orbits(gq)
    assert [sorted(o) for o in vorbs] == [["a"], ["b"]]
    assert [sorted(o) for o in aorbs] == [["e1"]]


def test_orbits_of_swapped_cycle():
    vorbs, aorbs = pc.orbits(swap_cycle())
    assert [sorted(o) for o in vorbs] == [["a", "b"]]
    assert [sorted(o) for o in aorbs] == [["e1", "e2"]]


def test_fixed_point_orbit():
    gq = pc.gquiver(["a", "b", "z"], [], [({"a": "b", "b": "a"}, {})])
    vorbs, _ = pc.orbits(gq)
    assert [sorted(o) for o in vorbs] == [["a", "b"], ["z"]]


def test_quotient_examples():
    gq = pc.gquiver(["a", "b"], [("e1", "a", "b")], [])
    q = pc.quotient(gq)
    assert len(q.vertices) == 2 and len(q.arrows) == 1
    q2 = pc.quotient(swap_cycle())
    assert len(q2.vertices) == 1 and len(q2.arrows) == 1
    (name, src, tgt) = q2.arrows[0]
    assert src == tgt  # a loop
    # two disjoint arrows swapped by the action collapse to one
    gq3 = pc.gquiver(
        ["a", "b", "c", "d"],
        [("e1", "a", "b"), ("e2", "c", "d")],
        [({"a": "c", "c": "a", "b": "d", "d": "b"}, {"e1": "e2", "e2": "e1"})],
    )
    q3 = pc.quotient(gq3)
    assert len(q3.vertices) == 2 and len(q3.arrows) == 1


def test_generator_must_be_automorphism():
    with pytest.raises(pc.QuiverError):
        pc.gquiver(
            ["a", "b", "c"],
            [("e1", "a", "b")],
            [({"a": "c", "c": "a"}, {})],  # e1 would dangle
        )
    with pytest.raises(pc.QuiverError):
        pc.gquiver(["a", "b"], [], [({"a": "b"}, {})])  # not a permutation


def test_orbit_filtration_examples():
    # the per-level oracle and the weighted orbit graph agree on criticals
    def criticals(gq):
        filt = oracles.orbit_filtration(gq)
        assert pc.gq_persistence_function(gq, ISO).criticals == filt.criticals
        return filt

    trivial = pc.gquiver(["a", "b"], [("e1", "a", "b")], [])
    filt = criticals(trivial)
    assert filt.criticals == (1.0,)
    fixed_plus_pair = pc.gquiver(["x", "p", "q"], [], [({"p": "q", "q": "p"}, {})])
    filt = criticals(fixed_plus_pair)
    assert filt.criticals == (1.0, 2.0)
    assert sorted(filt.levels[0].quiver.vertices) == ["x"]
    # arrow with endpoint orbits of sizes 1 and 2 and arrow orbit of size 2
    gq = pc.gquiver(
        ["x", "p", "q"],
        [("e1", "x", "p"), ("e2", "x", "q")],
        [({"p": "q", "q": "p"}, {"e1": "e2", "e2": "e1"})],
    )
    filt = criticals(gq)
    assert filt.criticals == (1.0, 2.0)
    assert not filt.levels[0].quiver.arrows
    assert len(filt.levels[1].quiver.arrows) == 2


LATE_ARROWS = {
    # three loops on a fixed vertex, cycled by a Z3 generator: they enter at 3
    "loops on a fixed vertex": (
        pc.gquiver(
            ["x"],
            [(f"l{i}", "x", "x") for i in range(3)],
            [({}, {"l0": "l1", "l1": "l2", "l2": "l0"})],
        ),
        3.0,
    ),
    # four arrows between a swapped pair, cycled by a Z4 generator: they
    # enter at 4, inside the one vertex orbit
    "arrows inside a swapped pair": (
        pc.gquiver(
            ["a", "b"],
            [("e0", "a", "b"), ("e1", "b", "a"), ("e2", "a", "b"), ("e3", "b", "a")],
            [({"a": "b", "b": "a"}, {"e0": "e1", "e1": "e2", "e2": "e3", "e3": "e0"})],
        ),
        4.0,
    ),
    # e joins the fixed vertices x and y at 1; the parallel arrows f0..f2,
    # cycled by a Z3 generator, enter at 3, after the orbits have joined
    "parallel arrows past the least entry": (
        pc.gquiver(
            ["x", "y"],
            [("e", "x", "y"), *((f"f{i}", "x", "y") for i in range(3))],
            [({}, {"f0": "f1", "f1": "f2", "f2": "f0"})],
        ),
        3.0,
    ),
}


@pytest.mark.parametrize("name", LATE_ARROWS)
def test_late_arrows_add_a_critical_but_no_point(name):
    gq, late = LATE_ARROWS[name]
    for cls in DELETION_CLASSES:
        pf = pc.gq_persistence_function(gq, cls)
        assert late in pf.criticals, cls
        assert pf == oracles.oracle_gq_persistence_function(gq, cls), cls
        d = pc.gq_persistence(gq, cls)
        assert d == oracles.oracle_gq_persistence(gq, cls) == pc.extract_diagram(pf), cls
        assert all(late not in (p.birth, p.death) for p in d), cls


def test_components_reduce_to_weak_components_for_trivial_group():
    gq = pc.gquiver(["a", "b", "c"], [("e1", "a", "b")], [])
    comps = pc.gq_components(gq, ISO)
    assert [sorted(c.quiver.vertices) for c in comps] == [["a", "b"], ["c"]]


def test_transitive_action_joins_weak_components():
    gq = pc.gquiver(
        ["a", "b", "c", "d"],
        [("e1", "a", "b"), ("e2", "b", "a"), ("f1", "c", "d"), ("f2", "d", "c")],
        [
            (
                {"a": "c", "c": "a", "b": "d", "d": "b"},
                {"e1": "f1", "f1": "e1", "e2": "f2", "f2": "e2"},
            )
        ],
    )
    comps = pc.gq_components(gq, ISO)
    assert [sorted(c.quiver.vertices) for c in comps] == [["a", "b", "c", "d"]]
    assert pc.is_gq_connected(gq)


def test_fixed_vertex_deletion_splits_at_middle():
    gq = pc.gquiver(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")], [])
    cls = pc.EquivariantClass("fixed_vertex_deletion", 2)
    comps = pc.gq_components(gq, cls)
    assert [sorted(c.quiver.vertices) for c in comps] == [["a", "b"], ["b", "c"]]


def test_k1_degenerates_to_isomorphisms(seed=107):
    rng = random.Random(seed)
    for _ in range(10):
        gq = random_gquiver(rng, max_vertices=5, max_arrows=5)
        for kind in ("orbit_deletion", "fixed_vertex_deletion"):
            k1 = pc.EquivariantClass(kind, 1)
            assert pc.gq_components(gq, k1) == pc.gq_components(gq, ISO)


def test_empty_quiver_empty_diagram():
    gq = pc.gquiver([], [], [])
    assert pc.gq_persistence(gq, ISO) == pc.diagram([])


def test_trivial_group_matches_graph_components_diagram(seed=109):
    rng = random.Random(seed)
    for _ in range(10):
        gq = random_gquiver(rng, max_vertices=5, max_arrows=5, group="trivial")
        if not gq.quiver.vertices:
            continue
        dq = pc.gq_persistence(gq, ISO)
        wu = pc.underlying_weighted_graph(gq.quiver)
        filt = pc.build_filtration(wu)
        dg = pc.extract_diagram(pc.persistence_function(filt, pc.PropertySpec("components")))
        assert dq == dg


def test_gq_connectedness_matches_splitting_oracle(seed=113):
    rng = random.Random(seed)
    for _ in range(25):
        gq = random_gquiver(rng, max_vertices=5, max_arrows=5)
        assert pc.is_gq_connected(gq) == oracles.oracle_gq_is_connected(gq)


def test_equivariant_union_property(seed=127):
    # F-connected invariant subquivers sharing an F-connected invariant
    # subquiver must have an F-connected union
    rng = random.Random(seed)
    classes = [
        ISO,
        pc.EquivariantClass("orbit_deletion", 2),
        pc.EquivariantClass("fixed_vertex_deletion", 2),
    ]
    for _ in range(10):
        gq = random_gquiver(rng, max_vertices=5, max_arrows=4)
        subs = oracles.invariant_subquivers(gq)
        for cls in classes:
            good = []
            for vs, ar in subs:
                if not vs:
                    continue
                sub = pc.restrict_gquiver(gq, vs, ar)
                if pc.is_equivariantly_connected(sub, cls):
                    good.append((vs, ar))
            for v1, a1 in good:
                for v2, a2 in good:
                    share = any(
                        yv <= v1 and yv <= v2 and ya <= a1 and ya <= a2
                        for yv, ya in good
                    )
                    if not share:
                        continue
                    union = pc.restrict_gquiver(gq, v1 | v2, a1 | a2)
                    assert pc.is_equivariantly_connected(union, cls)


DELETION_CLASSES = [ISO] + [
    pc.EquivariantClass(kind, k)
    for kind in ("orbit_deletion", "fixed_vertex_deletion")
    for k in (1, 2, 3)
]


def test_gq_components_match_subquiver_oracle(seed=131):
    rng = random.Random(seed)
    for _ in range(150):
        gq = random_gquiver(rng, max_vertices=7, max_arrows=7)
        for cls in DELETION_CLASSES:
            assert pc.gq_components(gq, cls) == oracles.oracle_gq_components(gq, cls)
    # larger quivers under non-trivial groups, deletion budgets up to 4
    classes = [
        pc.EquivariantClass(kind, k)
        for kind in ("orbit_deletion", "fixed_vertex_deletion")
        for k in (2, 3, 4)
    ]
    checked = 0
    while checked < 15:
        gq = random_gquiver(rng, max_vertices=11, max_arrows=14)
        if len(pc.orbits(gq)[0]) == len(gq.quiver.vertices):
            continue
        checked += 1
        for cls in classes:
            assert pc.gq_components(gq, cls) == oracles.oracle_gq_components(gq, cls)


def test_s3_parallel_arrow_orbits_match_the_level_oracle(seed=151):
    # two vertex orbits joined by arrow orbits of different sizes are joined
    # at the least entry; the oracle builds every level's invariant subquiver
    rng = random.Random(seed)
    mixed = 0
    for _ in range(150):
        gq = random_s3_gquiver(rng)
        vorbs, aorbs = pc.orbits(gq)
        where = {v: i for i, orb in enumerate(vorbs) for v in orb}
        am = gq.quiver.arrow_map()
        sizes = {}
        for orb in aorbs:
            ends = tuple(sorted(where[v] for v in am[min(orb)]))
            sizes.setdefault(ends, set()).add(len(orb))
        mixed += any(a != b and len(s) > 1 for (a, b), s in sizes.items())
        for cls in DELETION_CLASSES:
            assert pc.gq_persistence(gq, cls) == oracles.oracle_gq_persistence(gq, cls), cls
    assert mixed >= 30


def test_fixed_vertex_deletion_twin_cases():
    def components(gq, k):
        cls = pc.EquivariantClass("fixed_vertex_deletion", k)
        return [sorted(c.quiver.vertices) for c in pc.gq_components(gq, cls)]

    swap = ({"a": "b", "b": "a"}, {})
    lone_orbit = pc.gquiver(["a", "b"], [], [swap])
    orbit_path = pc.gquiver(
        ["a", "b", "c", "d"],
        [("e1", "a", "c"), ("e2", "b", "d")],
        [({"a": "b", "b": "a", "c": "d", "d": "c"}, {"e1": "e2", "e2": "e1"})],
    )
    triangle = pc.gquiver(["x", "y", "z"], [("e1", "x", "y"), ("e2", "y", "z"), ("e3", "x", "z")])
    middle_orbit = pc.gquiver(
        ["a", "b", "x", "y"],
        [("e1", "x", "a"), ("e2", "x", "b"), ("f1", "a", "y"), ("f2", "b", "y")],
        [({"a": "b", "b": "a"}, {"e1": "e2", "e2": "e1", "f1": "f2", "f2": "f1"})],
    )
    for k in (1, 2, 3, 4):
        assert components(lone_orbit, k) == [["a", "b"]]
        assert components(orbit_path, k) == [["a", "b", "c", "d"]]
        assert components(middle_orbit, k) == [["a", "b", "x", "y"]]
    # three singleton orbits survive two deletions but not a budget of four
    assert components(triangle, 3) == [["x", "y", "z"]]
    assert components(triangle, 4) == []
    # the middle orbit is an orbit-deletion cut, but no fixed vertex is
    split = pc.gq_components(middle_orbit, pc.EquivariantClass("orbit_deletion", 2))
    assert [sorted(c.quiver.vertices) for c in split] == [["a", "b", "x"], ["a", "b", "y"]]


def test_gq_components_past_forty_orbits(seed=139):
    rng = random.Random(seed)
    for group in ("z2", "trivial"):
        quivers = []
        while len(quivers) < 2:
            gq = random_gquiver(rng, max_vertices=64, max_arrows=200, group=group, min_vertices=64)
            if len(gq.quiver.arrows) >= 120 and len(pc.orbits(gq)[0]) >= 40:
                quivers.append(gq)
        for gq in quivers:
            vorbs, _ = pc.orbits(gq)
            where = {v: orb for orb in vorbs for v in orb}
            for cls in (
                pc.EquivariantClass("orbit_deletion", 2),
                pc.EquivariantClass("orbit_deletion", 3),
                pc.EquivariantClass("fixed_vertex_deletion", 2),
                pc.EquivariantClass("fixed_vertex_deletion", 3),
            ):
                comps = [c.quiver.vertices for c in pc.gq_components(gq, cls)]
                for vs in comps:
                    assert oracles.oracle_equivariantly_connected(pc.restrict_gquiver(gq, vs), cls)
                    assert not any(vs < other for other in comps)
                    touching = {
                        where[t if s in vs else s]
                        for _, s, t in gq.quiver.arrows
                        if (s in vs) != (t in vs)
                    }
                    for orb in touching:
                        bigger = pc.restrict_gquiver(gq, vs | orb)
                        assert not oracles.oracle_equivariantly_connected(bigger, cls)


def test_equivariant_connectivity_matches_oracle_on_subquivers(seed=137):
    # non-induced invariant subquivers included: arrows may be left out
    rng = random.Random(seed)
    for _ in range(40):
        gq = random_gquiver(rng, max_vertices=5, max_arrows=4)
        for vs, ar in oracles.invariant_subquivers(gq):
            sub = pc.restrict_gquiver(gq, vs, ar)
            for cls in DELETION_CLASSES:
                expected = oracles.oracle_equivariantly_connected(sub, cls)
                assert pc.is_equivariantly_connected(sub, cls) == expected


def test_quiver_text_round_trip():
    text = pc.serialize_gquiver(swap_cycle())
    again = pc.parse_gquiver(text)
    assert pc.serialize_gquiver(again) == text


def test_quiver_parse_errors():
    with pytest.raises(pc.FormatError, match="line 1"):
        pc.parse_gquiver("zzz\n")
    with pytest.raises(pc.FormatError):
        pc.parse_gquiver("v a\nmap v a a\n")  # map before generator header
    with pytest.raises(pc.FormatError):
        pc.parse_gquiver("v a\nv b\na e1 a b\ng\nmap v a b\nmap v b a\n")  # e1 dangles
    # the second record for one arrow name, or for one item in one
    # generator, is named by its line; a second map record once overrode
    # the first
    for text, message in [
        ("a e1 x y\na e2 y x\na e1 y y\n", "line 3: duplicate arrow name 'e1'"),
        (
            "v a\nv b\ng\nmap v a b\nmap v b a\nmap v a a\nmap v b b\n",
            "line 6: vertex 'a' is mapped twice in one generator",
        ),
        (
            "a e1 x x\na e2 x x\ng\nmap a e1 e2\nmap a e2 e1\nmap a e1 e1\n",
            "line 6: arrow 'e1' is mapped twice in one generator",
        ),
    ]:
        with pytest.raises(pc.FormatError) as info:
            pc.parse_gquiver(text)
        assert str(info.value) == message


def _same_quiver_reading(text: str) -> bool:
    """Both outputs of the reader agree with the record-by-record oracle:
    the same FormatError, or the same GQuiver, the same orbits as the
    union-find partition, and the same weighted orbit graph for every class.
    True when the text reads."""
    try:
        want = oracles.oracle_parse_gquiver(text)
    except pc.FormatError as exc:
        for parse in (pc.parse_gquiver, lambda t: pc.parse_orbit_graph(t, ISO)):
            with pytest.raises(pc.FormatError) as err:
                parse(text)
            assert (err.value.line, str(err.value)) == (exc.line, str(exc)), text
        return False
    assert pc.parse_gquiver(text) == want
    assert pc.orbits(want) == oracles.oracle_orbits(want)
    for cls in DELETION_CLASSES:
        assert pc.parse_orbit_graph(text, cls) == oracles.oracle_orbit_graph(want, cls), (text, cls)
    return True


def test_quiver_reader_matches_the_oracle_on_random_texts(seed=157):
    rng = random.Random(seed)
    for _ in range(300):
        assert _same_quiver_reading(random_gquiver_text(rng))


def test_quiver_reader_errors_match_the_oracle_on_corrupted_texts(seed=163):
    rng = random.Random(seed)
    failed = sum(not _same_quiver_reading(corrupt_gquiver_text(rng, random_gquiver_text(rng))) for _ in range(400))
    assert failed >= 300


def test_quotient_refuses_colliding_orbit_labels():
    # the orbit {a, b} is labelled 'a|b', as is the fixed vertex named 'a|b'
    gq = pc.gquiver(
        ["a", "b", "a|b"],
        [("x", "a", "a|b"), ("y", "b", "a|b")],
        [({"a": "b", "b": "a"}, {"x": "y", "y": "x"})],
    )
    with pytest.raises(pc.QuiverError, match=r"^two vertex orbits share the label 'a\|b'$"):
        pc.quotient(gq)
    # the swapped parallel arrows x, y and the fixed arrow 'x|y'
    gq = pc.gquiver(["p", "q"], [("x", "p", "q"), ("y", "p", "q"), ("x|y", "p", "q")], [({}, {"x": "y", "y": "x"})])
    with pytest.raises(pc.QuiverError, match=r"^two arrow orbits share the label 'x\|y'$"):
        pc.quotient(gq)


@pytest.mark.parametrize("kind", ["orbit_deletion", "fixed_vertex_deletion"])
def test_k3_quiver_diagrams_skip_values_no_edge_enters(kind, seed=167):
    # the engine levels k = 3 blocks of the orbit graph at its edge weights;
    # the quiver's other critical values, where only an orbit is born or an
    # arrow inside one enters, add no point to the per-level diagram
    rng = random.Random(seed)
    cls = pc.EquivariantClass(kind, 3)
    skipped = points = 0
    for _ in range(100):
        gq = random_s3_gquiver(rng) if rng.random() < 0.5 else random_gquiver(rng, max_vertices=12, max_arrows=20)
        if not gq.quiver.vertices:
            continue
        _, edges, _ = pc.parse_orbit_graph(pc.serialize_gquiver(gq), cls)
        pf = pc.gq_persistence_function(gq, cls)
        skipped += len(set(pf.criticals) - {w for _, _, w in edges})
        d = pc.gq_persistence(gq, cls)
        assert d == oracles.oracle_gq_persistence(gq, cls) == pc.extract_diagram(pf), pc.serialize_gquiver(gq)
        points += len(d.points)
    assert skipped > 30 and points > 30, (skipped, points)
