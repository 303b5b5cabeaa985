"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import random
import subprocess
import sys
import time
from itertools import combinations

import pytest

import perconn as pc
import oracles
from corpus import (
    group_vmaps,
    random_gquiver,
    random_isolated_free_graph,
    random_universal_diagram_pair,
    random_weighted_graph,
    relabeled_copy,
)

SPECS7 = [
    pc.PropertySpec("components"),
    pc.PropertySpec("clique", 2),
    pc.PropertySpec("clique", 3),
    pc.PropertySpec("vertex_block", 2),
    pc.PropertySpec("vertex_block", 3),
    pc.PropertySpec("edge_block", 2),
    pc.PropertySpec("edge_block", 3),
]


def grid_midpoints(criticals):
    mids = [criticals[0] - 1.0]
    mids += [(a + b) / 2 for a, b in zip(criticals, criticals[1:])]
    mids.append(criticals[-1] + 1.0)
    return mids


@pytest.fixture(scope="module")
def tabulated_corpus():
    rng = random.Random(20260810)
    graphs = [
        random_weighted_graph(rng, max_vertices=12, max_criticals=5) for _ in range(200)
    ]
    start = time.perf_counter()
    tables = {}
    violations = []
    for gi, wg in enumerate(graphs):
        filt = pc.build_filtration(wg)
        for spec in SPECS7:
            pf = pc.persistence_function(filt, spec)
            tables[(gi, spec)] = pf
            if pc.check_axioms(pf) is not None:
                violations.append((gi, spec))
    elapsed = time.perf_counter() - start
    return graphs, tables, violations, elapsed


def test_criterion_01_axiom_suite(tabulated_corpus):
    graphs, tables, violations, elapsed = tabulated_corpus
    assert len(graphs) == 200
    assert len(tables) == 200 * len(SPECS7)
    assert violations == []
    assert elapsed < 60.0, f"axiom suite took {elapsed:.1f}s"
    print(
        f"PASS criterion 1: persistence axioms hold for {len(tables)} tabulations "
        f"({elapsed:.1f}s < 60s)"
    )


def test_engine_matches_grid_oracle(tabulated_corpus):
    graphs, tables, _, _ = tabulated_corpus
    for (gi, spec), pf in tables.items():
        filt = pc.build_filtration(graphs[gi])
        comps = [oracles.oracle_property_components(filt.sublevel_at(i), spec) for i in range(pf.grid_size)]
        expected = oracles.oracle_table(filt.criticals, comps, lambda d, c: c.includes(d))
        assert pf == expected, (gi, spec)
    print(f"PASS engine: successor-map tables equal the containment grid on {len(tables)} tabulations")


def test_criterion_02_reconstruction(tabulated_corpus):
    _, tables, _, _ = tabulated_corpus
    checked = 0
    for (gi, spec), pf in tables.items():
        d = pc.extract_diagram(pf)
        mids = grid_midpoints(pf.criticals)
        for i, beta in enumerate(mids):
            for gamma in mids[i:]:
                assert oracles.evaluate_diagram(d, beta, gamma) == pf.at(beta, gamma), (gi, spec)
                checked += 1
    print(f"PASS criterion 2: diagram reconstruction exact at {checked} off-critical points")


def _bounded_diagram(rng, max_points=6):
    total = rng.randint(0, max_points)
    pts = []
    budget = total
    if budget and rng.random() < 0.8:
        pts.append(pc.Cornerpoint(round(rng.uniform(0, 2), 3), math.inf))
        budget -= 1
    while budget > 0:
        birth = round(rng.uniform(0, 3), 3)
        death = round(birth + rng.uniform(0.05, 2.0), 3)
        mult = rng.randint(1, min(2, budget))
        pts.append(pc.Cornerpoint(birth, death, mult))
        budget -= mult
    return pc.diagram(pts)


def test_criterion_03_oracle_equivalence():
    rng = random.Random(30303)
    count = 0
    for _ in range(100):
        wg = random_weighted_graph(rng, min_vertices=2, max_vertices=8, max_edges=13)
        g = wg.graph
        for spec in SPECS7:
            assert pc.property_components(g, spec) == oracles.oracle_components(g, spec), (
                spec,
                sorted(g.edges),
            )
            count += 1
    rng2 = random.Random(40404)
    pairs = 0
    for _ in range(100):
        d1 = _bounded_diagram(rng2)
        d2 = _bounded_diagram(rng2)
        assert pc.bottleneck_distance(d1, d2) == oracles.oracle_bottleneck(d1, d2)
        pairs += 1
    print(
        f"PASS criterion 3: components match brute force in {count} cases; "
        f"bottleneck matches enumeration on {pairs} pairs"
    )


def test_criterion_04_clique2_equals_components():
    rng = random.Random(50505)
    for _ in range(100):
        wg = random_isolated_free_graph(rng, max_vertices=10)
        filt = pc.build_filtration(wg)
        d_clique = pc.extract_diagram(pc.persistence_function(filt, pc.PropertySpec("clique", 2)))
        d_comp = pc.extract_diagram(
            pc.persistence_function(filt, pc.PropertySpec("components"))
        )
        assert d_clique == d_comp
    print("PASS criterion 4: clique-2 diagrams equal component diagrams on 100 filtrations")


def test_criterion_05_stability():
    rng = random.Random(60606)
    epsilons = (0.01, 0.1, 0.5)
    checked = 0
    for gi in range(100):
        wg = random_weighted_graph(rng, max_vertices=10)
        filt = pc.build_filtration(wg)
        base = {
            spec: pc.extract_diagram(pc.persistence_function(filt, spec)) for spec in SPECS7
        }
        for ei, eps in enumerate(epsilons):
            moved = pc.perturb(wg, eps, seed=1000 * gi + ei)
            mfilt = pc.build_filtration(moved)
            for spec in SPECS7:
                d = pc.extract_diagram(pc.persistence_function(mfilt, spec))
                dist = pc.bottleneck_distance(base[spec], d)
                assert dist <= eps + 1e-12, (gi, eps, spec, dist)
                checked += 1
    rng2 = random.Random(70707)
    pairs = 0
    for gi in range(50):
        w1 = random_weighted_graph(rng2, min_vertices=2, max_vertices=10)
        w2 = pc.perturb(relabeled_copy(rng2, w1), rng2.choice([0.05, 0.2, 0.5]), seed=gi)
        delta = pc.natural_pseudodistance(w1, w2)
        assert math.isfinite(delta)
        f1, f2 = pc.build_filtration(w1), pc.build_filtration(w2)
        for spec in SPECS7:
            b = pc.bottleneck_distance(
                pc.extract_diagram(pc.persistence_function(f1, spec)),
                pc.extract_diagram(pc.persistence_function(f2, spec)),
            )
            assert b <= delta, (gi, spec, b, delta)
        pairs += 1
    print(
        f"PASS criterion 5: perturbation stability in {checked} cases and "
        f"bottleneck <= pseudodistance on {pairs} isomorphic pairs"
    )


def test_criterion_06_universality():
    rng = random.Random(80808)
    for trial in range(50):
        d1, d2 = random_universal_diagram_pair(rng, max_proper=4)
        botd = pc.bottleneck_distance(d1, d2)
        h, hp = pc.build_universal_pair(d1, d2)
        assert pc.extract_diagram(pc.poset_persistence(h)) == d1
        assert pc.extract_diagram(pc.poset_persistence(hp)) == d2
        for k in (2, 3):
            w1 = pc.t_n_filtration(h, k)
            w2 = pc.t_n_filtration(hp, k)
            for spec in (pc.PropertySpec("clique", k), pc.PropertySpec("vertex_block", k)):
                da = pc.extract_diagram(pc.persistence_function(pc.build_filtration(w1), spec))
                db = pc.extract_diagram(pc.persistence_function(pc.build_filtration(w2), spec))
                assert da == d1, (trial, k, spec)
                assert db == d2, (trial, k, spec)
            delta = pc.natural_pseudodistance(w1, w2, vertex_cap=100)
            assert abs(delta - botd) <= 1e-9, (trial, k, delta, botd)
    print(
        "PASS criterion 6: universal pairs reproduce 50 diagram pairs under "
        "clique-k and vertex-block-k with pseudodistance = bottleneck (k in {2,3})"
    )


def test_criterion_07_weak_directedness():
    rng = random.Random(90909)
    posets = 0
    for _ in range(100):
        wg = random_weighted_graph(rng, min_vertices=1, max_vertices=7, max_edges=9)
        g = wg.graph
        for spec in SPECS7:
            poset = pc.subobject_poset(g, spec, size_cap=7)
            assert pc.is_weakly_directed(poset), (spec, sorted(g.edges))
            posets += 1
    synthetic = pc.Poset(["a", "b", "c"], [("c", "a"), ("c", "b")])
    assert not pc.is_weakly_directed(synthetic)
    print(
        f"PASS criterion 7: {posets} subobject posets weakly directed; "
        "negative control rejected"
    )


def _all_labeled_posets(names):
    pairs = [(a, b) for a in names for b in names if a != b]
    for mask in range(1 << len(pairs)):
        rel = {pairs[i] for i in range(len(pairs)) if mask >> i & 1}
        if any((b, a) in rel for a, b in rel):
            continue
        transitive = True
        for a, b in rel:
            for c, d in rel:
                if b == c and (a, d) not in rel:
                    transitive = False
                    break
            if not transitive:
                break
        if transitive:
            yield pc.Poset(names, rel, closed=True)


def test_criterion_08_cores():
    total = 0
    weakly = 0
    posets = []
    for n in range(1, 5):
        posets.extend(_all_labeled_posets([f"x{i}" for i in range(n)]))
    rng = random.Random(111213)
    for _ in range(250):
        n = rng.randint(5, 8)
        names = [f"x{i}" for i in range(n)]
        rel = [
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        ]
        posets.append(pc.Poset(names, rel))
    for p in posets:
        c1 = pc.core(p)
        c2 = pc.core(p, reverse=True)
        assert pc.poset_isomorphic(c1, c2)
        total += 1
        if pc.is_weakly_directed(p):
            weakly += 1
            assert not c1.relation_pairs()
            assert len(c1) == len(pc.maximal_elements(p))
    print(
        f"PASS criterion 8: cores of {weakly} weakly directed posets are maximal-element "
        f"antichains; independent deletion orders isomorphic on {total} posets"
    )


def test_criterion_09_quivers():
    iso = pc.EquivariantClass("isomorphisms")
    rng = random.Random(141516)
    for _ in range(50):
        gq = random_gquiver(rng, max_vertices=6, max_arrows=6, group="trivial")
        comps = pc.gq_components(gq, iso)
        plain = pc.property_components(
            pc.underlying_weighted_graph(gq.quiver).graph, pc.PropertySpec("components")
        )
        assert [sorted(c.quiver.vertices) for c in comps] == [
            sorted(c.vertices) for c in plain
        ]
        if gq.quiver.vertices:
            dq = pc.gq_persistence(gq, iso)
            dg = pc.extract_diagram(
                pc.persistence_function(
                    pc.build_filtration(pc.underlying_weighted_graph(gq.quiver)),
                    pc.PropertySpec("components"),
                )
            )
            assert dq == dg
    classes = [
        iso,
        pc.EquivariantClass("orbit_deletion", 2),
        pc.EquivariantClass("fixed_vertex_deletion", 2),
    ]
    axiom_checks = 0
    for _ in range(50):
        gq = random_gquiver(rng, max_vertices=6, max_arrows=6)
        for cls in classes:
            pf = pc.gq_persistence_function(gq, cls)
            if pf is not None:
                assert pc.check_axioms(pf) is None, cls
                axiom_checks += 1
    union_checks = 0
    for _ in range(12):
        gq = random_gquiver(rng, max_vertices=6, max_arrows=5)
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
                        yv <= v1 and yv <= v2 and ya <= a1 and ya <= a2 for yv, ya in good
                    )
                    if share:
                        union = pc.restrict_gquiver(gq, v1 | v2, a1 | a2)
                        assert pc.is_equivariantly_connected(union, cls)
                        union_checks += 1
    print(
        f"PASS criterion 9: trivial-group equivalence on 50 quivers, axiom suite on "
        f"{axiom_checks} equivariant tabulations, union property in {union_checks} cases"
    )


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "perconn", *args], capture_output=True, text=True
    )


def test_criterion_10_cli_determinism(tmp_path):
    src = tmp_path / "g.txt"
    src.write_text("e a b 1\ne c d 1\ne b c 2\n")
    outs = set()
    for _ in range(3):
        res = _run_cli("diagram", "--property", "components", str(src))
        assert res.returncode == 0
        outs.add(res.stdout)
    assert outs == {"1 2 1\n1 inf 1\n"}
    json_outs = {
        _run_cli("diagram", "--property", "components", "--format", "json", str(src)).stdout
        for _ in range(2)
    }
    assert len(json_outs) == 1
    json.loads(next(iter(json_outs)))
    d1 = tmp_path / "d1.txt"
    d1.write_text("1 2 1\n")
    dist = {_run_cli("distance", str(d1), str(d1)).stdout for _ in range(2)}
    assert dist == {"0\n"}
    svg = {_run_cli("plot", str(d1)).stdout for _ in range(2)}
    assert len(svg) == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("e a a 1\n")
    assert _run_cli("diagram", "--property", "components", str(bad)).returncode == 1
    assert (
        _run_cli("diagram", "--property", "clique", "--k", "1", str(src)).returncode == 2
    )
    assert (
        _run_cli(
            "verify", "--property", "components", "--corrupt", "0,1,5", str(src)
        ).returncode
        == 3
    )
    print("PASS criterion 10: CLI outputs byte-identical; exit codes 1/2/3 verified")
