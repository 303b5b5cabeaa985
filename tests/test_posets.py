import math
import random
from collections import Counter
from itertools import combinations

import pytest

import oracles
import perconn as pc
from corpus import all_labeled_posets, random_poset, random_universal_diagram_pair, random_weakly_directed_poset


def test_maximal_elements():
    assert pc.maximal_elements(pc.free_poset(["a", "b"])) == ["a", "b"]
    chain = pc.Poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert pc.maximal_elements(chain) == ["c"]
    vee = pc.Poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
    assert pc.maximal_elements(vee) == ["c"]


def test_weak_directedness():
    lam = pc.Poset(["a", "b", "c"], [("c", "a"), ("c", "b")])
    assert not pc.is_weakly_directed(lam)
    assert pc.is_weakly_directed(pc.free_poset(["a", "b", "c"]))
    assert pc.is_weakly_directed(pc.Poset(["a"], []))


def test_weak_directedness_criterion_matches_the_definition(seed=97):
    # every minimal element below exactly one maximal element, against the
    # pairwise definition: every poset of at most 4 labelled elements, and
    # random ones
    posets = [q for n in range(1, 5) for q in all_labeled_posets([f"x{i}" for i in range(n)])]
    rng = random.Random(seed)
    posets += [random_poset(rng) for _ in range(500)]
    decided = Counter()
    for q in posets:
        got = pc.is_weakly_directed(q)
        assert got == oracles.oracle_is_weakly_directed(q), q.relation_pairs()
        decided[got] += 1
    assert min(decided[True], decided[False]) > 100, decided


def test_poset_validation():
    with pytest.raises(pc.PosetError):
        pc.Poset(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(pc.PosetError):
        pc.Poset(["a", "a"], [])
    with pytest.raises(pc.PosetError):
        pc.Poset(["a"], [("a", "z")])


def test_transitive_closure_and_covers():
    p = pc.Poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.leq("a", "c")
    assert set(p.covers()) == {("a", "b"), ("b", "c")}


def test_core_examples():
    vee = pc.Poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
    assert pc.core(vee).elements == ("c",)
    anti = pc.free_poset(["a", "b", "c"])
    assert pc.core(anti) == anti
    chain = pc.Poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert len(pc.core(chain)) == 1


def test_core_idempotent_and_order_independent(seed=83):
    rng = random.Random(seed)
    for _ in range(40):
        p = random_poset(rng, max_elements=7)
        c1 = pc.core(p)
        c2 = pc.core(p, reverse=True)
        assert pc.core(c1) == c1
        assert pc.poset_isomorphic(c1, c2)


def _indexed_order(rng, n, density):
    """A random order on x0..x{n-1}, whose index order is a linear extension."""
    names = [f"x{i}" for i in range(n)]
    pairs = [(names[i], names[j]) for i, j in combinations(range(n), 2) if rng.random() < density]
    return pc.Poset(names, pairs)


def _toggled(rng, p):
    """p with one pair toggled among its covers, in index order, so the
    result stays acyclic; a pair already related but not covering adds nothing."""
    covers = set(p.covers())
    if len(p) > 1:
        i, j = sorted(rng.sample(range(len(p)), 2))
        covers ^= {(p.elements[i], p.elements[j])}
    return pc.Poset(p.elements, covers)


def _relabelled(rng, p):
    """An isomorphic copy under new names, stored in a shuffled order."""
    new = [f"y{i}" for i in range(len(p))]
    rng.shuffle(new)
    name = dict(zip(p.elements, new))
    stored = new[:]
    rng.shuffle(stored)
    return pc.Poset(stored, [(name[a], name[b]) for a, b in p.covers()])


def test_poset_isomorphic_matches_permutation_search(seed=107):
    rng = random.Random(seed)
    verdicts = Counter()
    for case in range(3000):
        n = rng.randint(1, 7)
        p = _indexed_order(rng, n, rng.choice((0.2, 0.35, 0.5)))
        if case % 3 == 0:
            q = _relabelled(rng, p)
        elif case % 3 == 1:
            q = _relabelled(rng, _toggled(rng, p))
        else:
            # an independent order of the same size, with as many relations
            # as p where one of a few draws has them
            for _ in range(30):
                q = _relabelled(rng, _indexed_order(rng, n, rng.choice((0.2, 0.35, 0.5))))
                if len(q.relation_pairs()) == len(p.relation_pairs()):
                    break
        expected = oracles.oracle_poset_isomorphic(p, q)
        assert pc.poset_isomorphic(p, q) == expected, (p.relation_pairs(), q.relation_pairs())
        # negatives that agree in size and relation count are the hard ones
        hard = len(p.relation_pairs()) == len(q.relation_pairs())
        verdicts[expected, hard] += 1
    assert verdicts[True, True] > 1000 and verdicts[False, True] > 200, verdicts


def test_core_of_weakly_directed_is_maximal_antichain(seed=89):
    rng = random.Random(seed)
    for _ in range(30):
        p = random_weakly_directed_poset(rng, max_elements=7)
        c = pc.core(p)
        assert not c.relation_pairs()
        assert len(c) == len(pc.maximal_elements(p))


def test_free_m_adjunction_unit():
    s = ["x", "y", "z"]
    assert pc.maximal_elements(pc.free_poset(s)) == s


def test_t_n_examples():
    chain = pc.Poset(["p", "q"], [("p", "q")])
    k4 = pc.t_n(chain, 2)
    assert len(k4.vertices) == 4 and len(k4.edges) == 6
    anti = pc.free_poset(["p", "q"])
    two_k2 = pc.t_n(anti, 2)
    assert len(two_k2.edges) == 2
    edgeless = pc.t_n(pc.free_poset(["p", "q", "r"]), 1)
    assert len(edgeless.vertices) == 3 and not edgeless.edges


def test_t_n_functorial_on_inclusions(seed=97):
    rng = random.Random(seed)
    for _ in range(10):
        p = random_poset(rng, max_elements=5)
        keep = [e for e in p.elements if rng.random() < 0.7]
        sub = p.restrict(keep)
        g_small = pc.t_n(sub, 2)
        g_big = pc.t_n(p, 2)
        assert oracles.includes(g_big, g_small)


def test_poset_text_format_round_trip():
    p = pc.Poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    text = pc.serialize_poset(p)
    assert text == "el a\nel b\nel c\nle a b\nle b c\n"
    assert pc.parse_poset(text) == p


def test_poset_filtration_validation():
    lvl1 = pc.Poset(["a"], [])
    lvl2 = pc.Poset(["a", "b"], [("b", "a")])
    pc.PosetFiltration((0.0, 1.0), (lvl1, lvl2))
    with pytest.raises(pc.PosetError):
        pc.PosetFiltration((0.0, 1.0), (lvl2, lvl1))
    with pytest.raises(pc.PosetError):
        pc.PosetFiltration((1.0, 0.0), (lvl1, lvl2))


def test_poset_persistence_constant_antichain():
    level = pc.free_poset(["a", "b", "c"])
    pf = pc.poset_persistence(pc.PosetFiltration((0.0, 1.0), (level, level)))
    assert pf.rows == ((3, 3), (3,))


def test_poset_persistence_empty_low_levels():
    empty = pc.Poset([], [])
    level = pc.free_poset(["a"])
    pf = pc.poset_persistence(pc.PosetFiltration((0.0, 1.0), (empty, level)))
    assert pf.rows == ((0, 0), (1,))


def test_poset_persistence_rejects_non_weakly_directed():
    bottom = pc.Poset(["c"], [])
    lam = pc.Poset(["a", "b", "c"], [("c", "a"), ("c", "b")])
    with pytest.raises(pc.PosetError, match="weakly directed"):
        pc.poset_persistence(pc.PosetFiltration((0.0, 1.0), (bottom, lam)))
    # a's two maximal successors appear only two levels up, at (L0, L2)
    l0 = pc.Poset(["a"], [])
    l1 = pc.Poset(["a", "s"], [("a", "s")])
    l2 = pc.Poset(["a", "s", "t"], [("a", "s"), ("a", "t")])
    with pytest.raises(pc.PosetError, match="weakly directed"):
        pc.poset_persistence(pc.PosetFiltration((0.0, 1.0, 2.0), (l0, l1, l2)))


def _random_forest_filtration(rng):
    """Levels of a growing forest poset: new elements appear, and old
    maximal elements are hung under new or existing ones."""
    elements, parent, levels = [], {}, []
    for j in range(rng.randint(1, 6)):
        elements += [f"e{len(elements) + i}" for i in range(rng.randint(0 if j else 1, 3))]
        roots = [e for e in elements if e not in parent]
        for e in rng.sample(roots, rng.randint(0, len(roots) // 2)):
            below, frontier = {e}, [e]
            while frontier:
                frontier = [x for x in parent if parent[x] in frontier]
                below.update(frontier)
            choices = [x for x in elements if x not in below]
            if choices:
                parent[e] = rng.choice(choices)
        levels.append(pc.Poset(list(elements), list(parent.items())))
    return pc.PosetFiltration(tuple(float(j) for j in range(len(levels))), tuple(levels))


def _containment_oracle(pf):
    # a level-i maximal element d lies in a level-j one c when d <= c in level j's order
    comps = [[(j, e) for e in level.maximal_elements()] for j, level in enumerate(pf.levels)]
    return oracles.oracle_table(pf.criticals, comps, lambda d, c: pf.levels[c[0]].leq(d[1], c[1]))


def test_poset_persistence_matches_containment_oracle(seed=107):
    rng = random.Random(seed)
    merged = 0
    for _ in range(300):
        pf = _random_forest_filtration(rng)
        got = pc.poset_persistence(pf)
        assert got == _containment_oracle(pf), [pc.serialize_poset(lvl) for lvl in pf.levels]
        merged += any(row[0] > row[-1] for row in got.rows)
    for _ in range(60):
        for pf in pc.build_universal_pair(*random_universal_diagram_pair(rng)):
            assert pc.poset_persistence(pf) == _containment_oracle(pf)
    assert merged > 100, merged


def test_universal_pair_trivial():
    d = pc.diagram([pc.Cornerpoint(0.0, math.inf)])
    h, hp = pc.build_universal_pair(d, d)
    assert h == hp
    assert pc.extract_diagram(pc.poset_persistence(h)) == d


def test_universal_pair_with_diagonal_padding():
    d1 = pc.diagram([pc.Cornerpoint(0.0, math.inf), pc.Cornerpoint(1.0, 2.0)])
    d2 = pc.diagram([pc.Cornerpoint(0.0, math.inf)])
    h, hp = pc.build_universal_pair(d1, d2)
    assert pc.extract_diagram(pc.poset_persistence(h)) == d1
    assert pc.extract_diagram(pc.poset_persistence(hp)) == d2
    # the padded element sits on the diagonal at 1.5 and never shows up
    assert "p1" in hp.top().elements


def test_universal_pair_pads_at_a_midpoint_past_half_the_largest_float():
    # 1e308 + 1.7e308 overflows; the padded element sits at their midpoint
    d1 = pc.diagram([pc.Cornerpoint(1e308, math.inf), pc.Cornerpoint(1e308, 1.7e308)])
    d2 = pc.diagram([pc.Cornerpoint(1e308, math.inf)])
    h, hp = pc.build_universal_pair(d1, d2)
    assert hp.criticals == (1e308, 1.35e308)
    assert pc.extract_diagram(pc.poset_persistence(h)) == d1
    assert pc.extract_diagram(pc.poset_persistence(hp)) == d2


def test_universal_pair_matched_coordinates():
    d1 = pc.diagram([pc.Cornerpoint(0.0, math.inf), pc.Cornerpoint(1.0, 3.0)])
    d2 = pc.diagram([pc.Cornerpoint(0.2, math.inf), pc.Cornerpoint(1.1, 2.9)])
    assert pc.bottleneck_distance(d1, d2) == 0.2
    h, hp = pc.build_universal_pair(d1, d2)
    w1 = pc.t_n_filtration(h, 2)
    w2 = pc.t_n_filtration(hp, 2)
    assert abs(pc.natural_pseudodistance(w1, w2) - 0.2) < 1e-12


def test_universal_pair_preconditions():
    no_inf = pc.diagram([pc.Cornerpoint(0.0, 1.0)])
    ok = pc.diagram([pc.Cornerpoint(0.0, math.inf)])
    with pytest.raises(pc.PosetError):
        pc.build_universal_pair(no_inf, ok)
    two_inf = pc.diagram([pc.Cornerpoint(0.0, math.inf, 2)])
    with pytest.raises(pc.PosetError):
        pc.build_universal_pair(two_inf, ok)
    early = pc.diagram([pc.Cornerpoint(1.0, math.inf), pc.Cornerpoint(0.0, 0.5)])
    with pytest.raises(pc.PosetError, match="realizable"):
        pc.build_universal_pair(early, early)


def test_universal_pair_random_round_trip(seed=101):
    rng = random.Random(seed)
    for _ in range(15):
        d1, d2 = random_universal_diagram_pair(rng, max_proper=3)
        h, hp = pc.build_universal_pair(d1, d2)
        assert pc.extract_diagram(pc.poset_persistence(h)) == d1
        assert pc.extract_diagram(pc.poset_persistence(hp)) == d2


def test_t_n_filtration_matches_poset_diagram(seed=103):
    rng = random.Random(seed)
    for _ in range(6):
        d1, d2 = random_universal_diagram_pair(rng, max_proper=2)
        h, _ = pc.build_universal_pair(d1, d2)
        wg = pc.t_n_filtration(h, 2)
        filt = pc.build_filtration(wg)
        d = pc.extract_diagram(pc.persistence_function(filt, pc.PropertySpec("clique", 2)))
        assert d == d1
