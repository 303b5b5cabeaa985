import math
import random
import time
from itertools import combinations

import pytest

import oracles
import perconn as pc
from perconn import cli, connectivity, persistence
from corpus import (
    DIAGRAM_ERRORS,
    covered_k4,
    cycles_at_one_vertex,
    k4_star,
    path_with_chords,
    random_gquiver,
    random_graph_text,
    random_weighted_graph,
    sparse_graph_edges,
    triangle_bridge_chain,
    weigh,
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

SWEEP_SPECS = [
    pc.PropertySpec("components"),
    *(pc.PropertySpec("clique", k) for k in (2, 3, 4)),
    *(pc.PropertySpec(kind, k) for kind in ("vertex_block", "edge_block") for k in (1, 2, 3)),
]
# the specs whose diagrams come from one sweep, with no per-level provider
PROVIDER_FREE = [spec for spec in SWEEP_SPECS if spec.kind in ("components", "clique") or spec.k <= 2]
K2_BLOCKS = [pc.PropertySpec("edge_block", 2), pc.PropertySpec("vertex_block", 2)]


def two_then_one():
    wg = pc.parse_weighted_graph("e a b 1\ne c d 1\ne b c 2\n")
    return pc.build_filtration(wg)


def test_elder_rule_ends_the_younger_class():
    # nodes 1 and 2 meet at their birth (no bar); node 0 outlives them
    d = pc.elder_rule([0.0, 1.0, 1.0, 2.0], [(1, 2, 1.0), (2, 0, 3.0)])
    assert d == pc.diagram(
        [pc.Cornerpoint(1.0, 3.0), pc.Cornerpoint(0.0, math.inf), pc.Cornerpoint(2.0, math.inf)]
    )


def test_elder_rule_tied_births_repeated_bars_and_merges_at_birth():
    # 0 and 1 tie at birth 0 and meet at 2: one of them ends, (0, 2).  Nodes
    # 2-5, all born at 1, end four bars (1, 3) at 3, one where 4 meets 5;
    # 6 joins at its own birth 3 and ends no bar; the last merge is inside
    # one class
    births = [0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 3.0]
    merges = [(0, 1, 2.0), (1, 2, 3.0), (4, 5, 3.0), (3, 0, 3.0), (6, 4, 3.0), (5, 1, 3.0), (6, 2, 4.0)]
    want = pc.diagram([
        pc.Cornerpoint(0.0, 2.0), pc.Cornerpoint(1.0, 3.0, 4), pc.Cornerpoint(0.0, math.inf),
    ])
    assert pc.elder_rule(births, merges) == want == oracles.oracle_elder_rule(births, merges)


def test_elder_rule_matches_the_oracle(seed=41):
    rng = random.Random(seed)
    for _ in range(300):
        births = [rng.choice([0.0, 0.5, 1.0, 1.5]) for _ in range(rng.randint(0, 12))]
        merges = []
        for _ in range(rng.randint(0, 2 * len(births))):
            a, b = rng.randrange(len(births)), rng.randrange(len(births))
            merges.append((a, b, max(births[a], births[b]) + rng.choice([0.0, 0.0, 0.5, 1.0])))
        merges.sort(key=lambda m: m[2])
        assert pc.elder_rule(births, merges) == oracles.oracle_elder_rule(births, merges)


def test_elder_rule_on_a_long_path_merged_in_reverse():
    # merging (i, i + 1) for i = n - 2 down to 0 hangs each class under the
    # next node born: a chain n deep, which the last merges walk from its
    # far end.  Finds that recursed would overflow, and finds that did not
    # shorten paths would walk the chain once per merge.
    n = 200_000
    births = [float(i) for i in range(n)]
    merges = [(i, i + 1, float(n + n - 2 - i)) for i in range(n - 2, -1, -1)]
    merges += [(n - 1 - j, 0, float(2 * n)) for j in range(n // 2)]
    start = time.perf_counter()
    d = pc.elder_rule(births, merges)
    assert time.perf_counter() - start < 2.0
    assert [(p.birth, p.death, p.multiplicity) for p in d.points] == [
        (0.0, math.inf, 1), *((float(i + 1), float(n + n - 2 - i), 1) for i in range(n - 1)),
    ]


def test_indexed_reader_gives_the_filtration_diagram(seed=43):
    # the CLI's diagram path against the WeightedGraph and Filtration path
    rng = random.Random(seed)
    for _ in range(60):
        text = random_graph_text(rng)
        filt = pc.build_filtration(pc.parse_weighted_graph(text))
        for spec in ALL_SPECS:
            assert pc.index_diagram(*pc.parse_indexed_graph(text), spec) == pc.graph_diagram(filt, spec), spec


def test_block_diagrams_level_at_edge_weights_alone(seed=47):
    # blocks at k >= 3 take levels at the edge weights only: a critical value
    # that only a vertex reaches (a v record below its incident minimum, an
    # isolated vertex) changes no block, so the diagram is the one read off
    # the table over every critical value
    rng = random.Random(seed)
    vertex_only = blocks = 0
    for _ in range(80):
        text = random_graph_text(rng, max_vertices=12)
        filt = pc.build_filtration(pc.parse_weighted_graph(text))
        births, edges = pc.parse_indexed_graph(text)
        vertex_only += len(set(filt.criticals) - {w for _, _, w in edges})
        for spec in [pc.PropertySpec(kind, k) for kind in ("vertex_block", "edge_block") for k in (3, 4)]:
            d = pc.index_diagram(births, edges, spec)
            assert d == pc.graph_diagram(filt, spec), (spec, text)
            assert d == pc.extract_diagram(pc.persistence_function(filt, spec)), (spec, text)
            if spec.kind == "vertex_block":
                blocks += len(d.points)
    assert vertex_only > 40 and blocks > 40, (vertex_only, blocks)


def test_persistence_function_refuses_a_grid_before_listing_levels(monkeypatch):
    def no_levels(*args):
        raise AssertionError("graph swept past the grid cap")

    monkeypatch.setattr(persistence, "merge_forest", no_levels)
    path = pc.weighted_graph({(f"p{i}", f"p{i + 1}"): i for i in range(persistence.GRID_CAP + 1)})
    with pytest.raises(pc.CapExceeded, match="grid limited"):
        pc.persistence_function(pc.build_filtration(path), pc.PropertySpec("components"))


def _sweep_corpus(seed):
    """Tied weights, explicit vertex weights, isolated vertices, and every
    fifth filtration single-critical; then 15-40-vertex graphs with up to 40
    critical values for the specs that the sweep feeds without providers."""
    rng = random.Random(seed)
    for i in range(50):
        yield random_weighted_graph(
            rng, max_vertices=10, max_criticals=1 if i % 5 == 0 else 5, edge_prob=(0.3, 0.8)
        ), SWEEP_SPECS
    for _ in range(10):
        vs = [f"v{i:02d}" for i in range(rng.randint(15, 40))]
        p = rng.uniform(0.2, 0.45)
        lines = [f"e {a} {b} {rng.randint(1, 40) / 2}\n" for a, b in combinations(vs, 2) if rng.random() < p]
        yield pc.parse_weighted_graph("".join(lines)), PROVIDER_FREE


def test_sweep_matches_grid_and_oracle(seed=71):
    def contains(d, c):
        return oracles.includes(c, d)

    finite = dict.fromkeys((spec.label() for spec in SWEEP_SPECS), 0)
    for wg, specs in _sweep_corpus(seed):
        filt = pc.build_filtration(wg)
        for spec in specs:
            levels = [oracles.oracle_property_components(filt.sublevel_at(i), spec) for i in range(len(filt.criticals))]
            grid = pc.extract_diagram(pc.persistence_function(filt, spec))
            oracle = pc.extract_diagram(oracles.oracle_table(filt.criticals, levels, contains))
            swept = pc.graph_diagram(filt, spec)
            assert swept == grid == oracle, (spec.label(), pc.serialize_weighted_graph(wg))
            # byte-identical text: the coordinates are the same critical values
            assert pc.serialize_diagram(swept) == pc.serialize_diagram(grid)
            finite[spec.label()] += len(swept.finite_points())
    assert min(finite.values()) > 5, finite


def test_tables_below_k3_run_no_provider(monkeypatch, seed=73):
    # verify reads the levels of components and k = 2 blocks off the merge
    # forest of the diagrams: no level graph is built and no level runs a
    # component or block search of its own
    rng = random.Random(seed)
    graphs = [random_weighted_graph(rng, max_vertices=10, max_criticals=5, edge_prob=(0.3, 0.8)) for _ in range(20)]
    graphs += [weigh(rng, triangle_bridge_chain(6), tied) for tied in (True, False)]
    cases = []
    for wg in graphs:
        filt = pc.build_filtration(wg)
        for spec in [pc.PropertySpec("components"), *K2_BLOCKS]:
            levels = [oracles.oracle_property_components(filt.sublevel_at(i), spec) for i in range(len(filt.criticals))]
            cases.append((filt, spec, oracles.oracle_table(filt.criticals, levels, lambda d, c: oracles.includes(c, d))))

    def refuse(*args):
        raise AssertionError("a level ran a search of its own")

    searches = ("property_components", "connected_vertex_sets", "_split_vertex_blocks", "_split_edge_blocks")
    for name in searches:
        monkeypatch.setattr(connectivity, name, refuse)
    monkeypatch.setattr(pc.Filtration, "sublevel", refuse)
    for filt, spec, table in cases:
        assert pc.persistence_function(filt, spec) == table, spec.label()


def _per_level_diagram(filt, spec):
    """The diagram from every level's provider components, by a successor
    scan over all component pairs of adjacent levels."""
    levels = [oracles.oracle_property_components(filt.sublevel_at(i), spec) for i in range(len(filt.criticals))]
    return oracles.oracle_successor_diagram(filt.criticals, levels, lambda d, c: oracles.includes(c, d))


def _check_k2_sweeps(wg):
    """Both k = 2 sweeps equal the per-level path, text included; returns
    the number of finite points they found."""
    filt = pc.build_filtration(wg)
    finite = 0
    for spec in K2_BLOCKS:
        swept, expected = pc.graph_diagram(filt, spec), _per_level_diagram(filt, spec)
        assert swept == expected, spec.label()
        assert pc.serialize_diagram(swept) == pc.serialize_diagram(expected)
        finite += len(swept.finite_points())
    return finite


@pytest.mark.parametrize("n,tied", [(100, False), (150, False), (300, True), (500, True)])
def test_k2_block_sweeps_match_per_level_path_at_scale(n, tied):
    rng = random.Random(n)
    assert _check_k2_sweeps(weigh(rng, sparse_graph_edges(rng, n), tied)) > 10


SHAPES = {
    "path with chords": lambda rng, tied: path_with_chords(rng, 120, tied),
    "triangle-bridge chain": lambda rng, tied: weigh(rng, triangle_bridge_chain(30), tied),
    "cycles at one vertex": lambda rng, tied: weigh(rng, cycles_at_one_vertex(8, 12), tied),
    "star of K4s": lambda rng, tied: weigh(rng, k4_star(20), tied),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_k2_block_sweeps_on_adversarial_shapes(shape):
    rng = random.Random(shape)
    for tied in (False, True):
        assert _check_k2_sweeps(SHAPES[shape](rng, tied)) > 0


@pytest.mark.parametrize(
    "make",
    [lambda rng: path_with_chords(rng, 20000, False), lambda rng: weigh(rng, triangle_bridge_chain(1000), False)],
    ids=["path with chords", "triangle-bridge chain"],
)
def test_k2_block_sweeps_scale_linearly(make):
    # The per-level path took seconds at 200 vertices, and a walk that took
    # every tree edge of every chord, with no jumps, would be quadratic on
    # the long path.
    filt = pc.build_filtration(make(random.Random(7)))
    for spec in K2_BLOCKS:
        start = time.perf_counter()
        d = pc.graph_diagram(filt, spec)
        assert time.perf_counter() - start < 2.0, spec.label()
        assert d.finite_points()


def test_engine_example_table_and_diagram():
    pf = pc.persistence_function(two_then_one(), pc.PropertySpec("components"))
    assert pf.criticals == (1.0, 2.0)
    assert pf.value(0, 0) == 2 and pf.value(0, 1) == 1 and pf.value(1, 1) == 1
    assert pf.inf_column == (1, 1)
    d = pc.extract_diagram(pf)
    assert d == pc.diagram([pc.Cornerpoint(1.0, 2.0), pc.Cornerpoint(1.0, math.inf)])


def test_diagonal_counts_components(seed=41):
    rng = random.Random(seed)
    for _ in range(8):
        wg = random_weighted_graph(rng, max_vertices=7)
        filt = pc.build_filtration(wg)
        spec = pc.PropertySpec("components")
        pf = pc.persistence_function(filt, spec)
        for i in range(pf.grid_size):
            expected = len(oracles.oracle_property_components(filt.sublevel_at(i), spec))
            assert pf.value(i, i) == expected


def test_empty_property_gives_zero_function():
    wg = pc.parse_weighted_graph("e a b 1\n")
    pf = pc.persistence_function(pc.build_filtration(wg), pc.PropertySpec("clique", 3))
    assert pf.rows == ((0,),)
    assert pc.extract_diagram(pf) == pc.diagram([])


def test_constant_filtration_single_half_line():
    wg = pc.parse_weighted_graph("e a b 3\n")
    pf = pc.persistence_function(pc.build_filtration(wg), pc.PropertySpec("components"))
    assert pc.extract_diagram(pf) == pc.diagram([pc.Cornerpoint(3.0, math.inf)])


def test_evaluate_examples():
    d = pc.diagram([pc.Cornerpoint(1.0, math.inf), pc.Cornerpoint(1.0, 2.0)])
    assert oracles.evaluate_diagram(d, 1.5, 1.7) == 2
    assert oracles.evaluate_diagram(d, 1.5, 2.5) == 1
    assert oracles.evaluate_diagram(pc.diagram([]), 0.0, 10.0) == 0


def test_evaluate_rejects_discontinuities():
    d = pc.diagram([pc.Cornerpoint(1.0, 2.0)])
    with pytest.raises(ValueError):
        oracles.evaluate_diagram(d, 1.0, 3.0)
    with pytest.raises(ValueError):
        oracles.evaluate_diagram(d, 0.5, 2.0)
    with pytest.raises(ValueError):
        oracles.evaluate_diagram(d, 3.0, 0.5)


def grid_midpoints(criticals):
    mids = [criticals[0] - 1.0]
    mids += [(a + b) / 2 for a, b in zip(criticals, criticals[1:])]
    mids.append(criticals[-1] + 1.0)
    return mids


def test_round_trip_reconstruction(seed=43):
    rng = random.Random(seed)
    for _ in range(6):
        wg = random_weighted_graph(rng, max_vertices=7)
        filt = pc.build_filtration(wg)
        for spec in ALL_SPECS:
            pf = pc.persistence_function(filt, spec)
            d = pc.extract_diagram(pf)
            mids = grid_midpoints(pf.criticals)
            for i, beta in enumerate(mids):
                for gamma in mids[i:]:
                    assert oracles.evaluate_diagram(d, beta, gamma) == pf.at(beta, gamma)


def test_check_reconstruction_matches_midpoint_evaluation(seed=47):
    # Corpus weights are multiples of 0.5, so the grid midpoints avoid every
    # coordinate and evaluating there is an oracle.  Corrupted functions
    # whose diagram still extracts, and diagrams with a point added or
    # removed, must pass or fail exactly as the oracle does.
    rng = random.Random(seed)
    verdicts = set()
    for _ in range(40):
        wg = random_weighted_graph(rng, max_vertices=7)
        filt, spec = pc.build_filtration(wg), rng.choice(ALL_SPECS)
        pf = pc.persistence_function(filt, spec)
        crit, m = pf.criticals, pf.grid_size
        cases = [(pf, pc.extract_diagram(pf)), (pf, pc.graph_diagram(filt, spec))]
        for _ in range(4):
            rows = [list(r) for r in pf.rows]
            i = rng.randrange(m)
            rows[i][rng.randrange(m - i)] += rng.choice((-1, 1))
            bad = pc.PersistenceFunction(crit, tuple(tuple(r) for r in rows), pf.inf_column)
            try:
                cases.append((bad, pc.extract_diagram(bad)))
            except pc.PersistenceAxiomError:
                pass
            points = list(pc.extract_diagram(pf).points)
            if points and rng.random() < 0.5:
                points.pop(rng.randrange(len(points)))
            else:
                b = rng.randrange(m)
                points.append(pc.Cornerpoint(crit[b], rng.choice([*crit[b + 1 :], math.inf])))
            cases.append((pf, pc.diagram(points)))
        mids = grid_midpoints(crit)
        for f, d in cases:
            agrees = all(
                oracles.evaluate_diagram(d, beta, gamma) == f.at(beta, gamma)
                for i, beta in enumerate(mids)
                for gamma in mids[i:]
            )
            message = pc.check_reconstruction(f, d)
            assert (message is None) == agrees, (f, d, message)
            verdicts.add(agrees)
    assert verdicts == {True, False}


def test_check_reconstruction_message_names_the_cell():
    pf = pc.persistence_function(two_then_one(), pc.PropertySpec("components"))
    assert pc.check_reconstruction(pf, pc.extract_diagram(pf)) is None
    message = pc.check_reconstruction(pf, pc.diagram([pc.Cornerpoint(1.0, math.inf)]))
    assert message == "reconstruction mismatch at p(1, 1): the diagram gives 1, the function 2"


def test_check_reconstruction_is_quadratic_in_the_grid():
    # 400 distinct critical values: evaluating the diagram cell by cell took
    # seconds, running counts per row take milliseconds.
    rng = random.Random(400)
    wg = pc.weighted_graph({(f"v{i}", f"v{rng.randrange(i)}"): rng.random() for i in range(1, 401)})
    filt = pc.build_filtration(wg)
    pf = pc.persistence_function(filt, pc.PropertySpec("components"))
    d = pc.graph_diagram(filt, pc.PropertySpec("components"))
    assert pf.grid_size == 400
    start = time.perf_counter()
    assert pc.check_reconstruction(pf, d) is None
    assert time.perf_counter() - start < 0.5


def test_axiom_checker_catches_corruption():
    pf = pc.persistence_function(two_then_one(), pc.PropertySpec("components"))
    assert pc.check_axioms(pf) is None
    rows = [list(r) for r in pf.rows]
    rows[0][1] += 5  # make p increase in the second argument
    bad = pc.PersistenceFunction(pf.criticals, tuple(tuple(r) for r in rows), pf.inf_column)
    message = pc.check_axioms(bad)
    assert message is not None and "second argument" in message


def table(criticals, rows):
    """PersistenceFunction from upper-triangular rows; infinity = last column."""
    return pc.PersistenceFunction(
        tuple(criticals), tuple(tuple(r) for r in rows), tuple(r[-1] for r in rows)
    )


def test_axiom_checker_flags_superadditivity_only():
    # monotone in both arguments, but p(2,2) - p(1,2) = 1 < p(2,3) - p(1,3) = 2
    bad = table((1.0, 2.0, 3.0), [(1, 1, 0), (2, 2), (2,)])
    assert oracles.oracle_check_axioms(bad).startswith("jump superadditivity")
    message = pc.check_axioms(bad)
    assert message is not None and "jump superadditivity" in message
    assert "u1=1, u2=2, v1=2, v2=3: 2-1 < 2-0" in message


def test_axiom_checker_accepts_strict_superadditivity():
    # a component born at 2 that dies at 3: p(2,2) - p(1,2) = 1 > p(2,3) - p(1,3) = 0
    wg = pc.parse_weighted_graph("e a b 1\ne c d 2\ne b c 3\n")
    pf = pc.persistence_function(pc.build_filtration(wg), pc.PropertySpec("components"))
    assert pf.rows == ((1, 1, 1), (2, 1), (1,))
    assert pc.check_axioms(pf) is None
    assert oracles.oracle_check_axioms(pf) is None


def test_axiom_checker_matches_oracle_on_corruptions(seed=59):
    rng = random.Random(seed)
    flagged = 0
    for _ in range(60):
        wg = random_weighted_graph(rng, max_vertices=8, max_criticals=5)
        pf = pc.persistence_function(pc.build_filtration(wg), rng.choice(ALL_SPECS))
        assert pc.check_axioms(pf) is None
        for _ in range(5):
            rows = [list(r) for r in pf.rows]
            inf_column = list(pf.inf_column)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(pf.grid_size)
                j = rng.randrange(i, pf.grid_size + 1)
                delta = rng.choice((-2, -1, 1, 2))
                if j == pf.grid_size:
                    inf_column[i] += delta
                else:
                    rows[i][j - i] += delta
            bad = pc.PersistenceFunction(pf.criticals, tuple(map(tuple, rows)), tuple(inf_column))
            verdict = pc.check_axioms(bad)
            assert (verdict is None) == (oracles.oracle_check_axioms(bad) is None), verdict
            flagged += verdict is not None
    assert flagged > 100


def test_row_passes_match_the_cell_passes(seed=67):
    # check_axioms and extract_diagram read each row once; the per-cell
    # passes they replaced must give the same message, the same Diagram or
    # the same PersistenceAxiomError, on tables and corruptions of them
    rng = random.Random(seed)
    seen = set()
    for _ in range(80):
        wg = random_weighted_graph(rng, max_vertices=8, max_criticals=6)
        pf = pc.persistence_function(pc.build_filtration(wg), rng.choice(ALL_SPECS))
        m = pf.grid_size
        tables = [pf]
        for _ in range(6):
            rows = [list(r) for r in pf.rows]
            inf_column = list(pf.inf_column)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(m)
                j = rng.randrange(i, m + 1)
                delta = rng.choice((-3, -1, 1, 2))
                if j == m:
                    inf_column[i] += delta
                else:
                    rows[i][j - i] += delta
                    if j == m - 1 and rng.random() < 0.5:
                        inf_column[i] += delta
            tables.append(pc.PersistenceFunction(pf.criticals, tuple(map(tuple, rows)), tuple(inf_column)))
        rows = [tuple(rng.randint(-1, 3) for _ in range(m - i)) for i in range(m)]
        tables.append(pc.PersistenceFunction(pf.criticals, tuple(rows), tuple(rng.randint(-1, 3) for _ in range(m))))
        for t in tables:
            message = pc.check_axioms(t)
            assert message == oracles.cell_check_axioms(t), t
            seen.add(message.split(" ")[0] if message else None)
            try:
                want = oracles.cell_extract_diagram(t)
            except pc.PersistenceAxiomError as exc:
                with pytest.raises(pc.PersistenceAxiomError) as got:
                    pc.extract_diagram(t)
                assert str(got.value) == str(exc), t
                seen.add("inf)" if str(exc).endswith("inf)") else "finite)")
            else:
                assert pc.extract_diagram(t) == want, t
    assert seen == {None, "negative", "non-increasing", "non-decreasing", "jump", "inf)", "finite)"}, seen


GQ_CLASSES = [pc.EquivariantClass("isomorphisms")] + [
    pc.EquivariantClass(kind, k) for kind in ("orbit_deletion", "fixed_vertex_deletion") for k in (1, 2, 3, 4)
]


def test_engine_matches_grid_oracle_on_gquivers(seed=61):
    # The engine sweeps the weighted orbit graph; the oracle builds every
    # level of the orbit filtration as a validated sub-G-quiver, takes its
    # components, and counts the grid cell by cell.  Full functions are
    # compared, critical values included.
    rng = random.Random(seed)
    checked = finite = 0
    for _ in range(60):
        gq = random_gquiver(rng, max_vertices=14, max_arrows=22)
        if not gq.quiver.vertices:
            continue
        for cls in GQ_CLASSES:
            expected = oracles.oracle_gq_persistence_function(gq, cls)
            assert pc.gq_persistence_function(gq, cls) == expected, cls
            swept = pc.gq_persistence(gq, cls)
            assert swept == oracles.oracle_gq_persistence(gq, cls) == pc.extract_diagram(expected), cls
            checked += 1
            finite += len(swept.finite_points())
    assert checked > 500 and finite > 40, (checked, finite)


def test_tables_list_no_levels(monkeypatch, seed=79):
    # every table is counted off its diagram: neither verify nor the quiver
    # tables list per-level sets
    rng = random.Random(seed)
    cases = []
    for _ in range(10):
        filt = pc.build_filtration(random_weighted_graph(rng, max_vertices=10, edge_prob=(0.3, 0.8)))
        for spec in SWEEP_SPECS + [pc.PropertySpec(kind, 4) for kind in ("vertex_block", "edge_block")]:
            cases.append((filt, spec, pc.graph_diagram(filt, spec)))
    quivers = [gq for gq in (random_gquiver(rng, max_vertices=12, max_arrows=18) for _ in range(10)) if gq.quiver.vertices]
    gq_cases = [(gq, cls, pc.gq_persistence(gq, cls)) for gq in quivers for cls in GQ_CLASSES]

    def refuse(*args):
        raise AssertionError("a table listed levels")

    monkeypatch.setattr(connectivity, "_merge_levels", refuse)
    for filt, spec, d in cases:
        assert pc.extract_diagram(pc.persistence_function(filt, spec)) == d, spec.label()
    for gq, cls, d in gq_cases:
        assert pc.extract_diagram(pc.gq_persistence_function(gq, cls)) == d, cls
    assert len(gq_cases) > 50


def test_clique_levels_give_a_covered_k4_one_successor(tmp_path, capsys):
    # At clique:4 the K4 born at 1 is its own community at 2 as well, and
    # the union graph of the community that chains its six covers holds all
    # of its edges: subgraph inclusion finds two successors, its cliques one.
    wg = covered_k4()
    filt = pc.build_filtration(wg)
    spec = pc.PropertySpec("clique", 4)
    swept = pc.graph_diagram(filt, spec)
    assert pc.extract_diagram(pc.persistence_function(filt, spec)) == swept
    assert pc.serialize_diagram(swept) == "1 inf 1\n2 inf 1\n"
    src = tmp_path / "g.txt"
    src.write_text(pc.serialize_weighted_graph(wg))
    assert cli.main(["verify", "--property", "clique", "--k", "4", str(src)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS axioms: monotonicity and jump superadditivity hold",
        "PASS reconstruction: diagram reproduces the function off-grid",
        "PASS weak directedness: subobject poset of the final graph",
    ]


def test_extract_rejects_negative_multiplicity():
    rows = ((0, 1), (0,))
    bad = pc.PersistenceFunction((1.0, 2.0), rows, (1, 0))
    with pytest.raises(pc.PersistenceAxiomError):
        pc.extract_diagram(bad)


def test_restriction_formulation_matches_containment(seed=47):
    # the per-cell count via "restriction contains a property subgraph"
    # must agree with the component-containment tabulation
    rng = random.Random(seed)
    for _ in range(6):
        wg = random_weighted_graph(rng, max_vertices=7)
        filt = pc.build_filtration(wg)
        for spec in ALL_SPECS:
            pf = pc.persistence_function(filt, spec)
            for j in range(pf.grid_size):
                comps = oracles.oracle_property_components(filt.sublevel_at(j), spec)
                for i in range(j + 1):
                    level_i = filt.sublevel_at(i)
                    count = sum(
                        1
                        for c in comps
                        if pc.contains_property_subgraph(
                            pc.SimpleGraph(c.vertices & level_i.vertices, c.edges & level_i.edges), spec
                        )
                    )
                    assert count == pf.value(i, j), (spec, i, j)


def test_diagram_serialization_round_trip():
    d = pc.diagram(
        [
            pc.Cornerpoint(0.5, 2.0, 2),
            pc.Cornerpoint(1.0, math.inf),
            pc.Cornerpoint(0.5, 0.75),
        ]
    )
    text = pc.serialize_diagram(d)
    assert text == "0.5 0.75 1\n0.5 2 2\n1 inf 1\n"
    assert pc.parse_diagram(text) == d


def test_parse_diagram_errors():
    with pytest.raises(pc.FormatError, match="line 1"):
        pc.parse_diagram("1 2\n")
    with pytest.raises(pc.FormatError):
        pc.parse_diagram("2 1 1\n")  # birth >= death
    with pytest.raises(pc.FormatError):
        pc.parse_diagram("1 2 0\n")


@pytest.mark.parametrize("text, message", DIAGRAM_ERRORS)
def test_parse_diagram_error_messages(text, message):
    with pytest.raises(pc.FormatError) as err:
        pc.parse_diagram(text)
    assert str(err.value) == message


def test_parse_diagram_aggregates_repeated_records():
    # comment lines add nothing, even with three fields
    d = pc.parse_diagram("1 2 1\n0 inf 1\n# 1 2 5\n1 2.0 2\n0 inf 3\n  #x y z\n0.5 1 1\n")
    assert d == pc.diagram(
        [pc.Cornerpoint(0.5, 1.0), pc.Cornerpoint(1.0, 2.0, 3), pc.Cornerpoint(0.0, math.inf, 4)]
    )
    assert [(p.birth, p.death, p.multiplicity) for p in d.points] == [
        (0.0, math.inf, 4),
        (0.5, 1.0, 1),
        (1.0, 2.0, 3),
    ]


def test_parse_diagram_reads_signed_zeros_as_zero():
    # either line order gives one key (0, 1), printed with a plain 0
    for text in ["-0 1 1\n0 1 1\n", "0 1 1\n-0 1 1\n"]:
        d = pc.parse_diagram(text)
        assert pc.serialize_diagram(d) == "0 1 2\n", text
        assert math.copysign(1.0, d.points[0].birth) == 1.0, text
    d = pc.parse_diagram("-1 -0 1\n")
    assert pc.serialize_diagram(d) == "-1 0 1\n"
    assert math.copysign(1.0, d.points[0].death) == 1.0
    # a hand-built -0.0 prints as the reader reads it back
    assert pc.serialize_diagram(pc.diagram([pc.Cornerpoint(-1.0, -0.0)])) == "-1 0 1\n"
