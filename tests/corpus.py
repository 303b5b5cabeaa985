"""Seeded random corpora shared by the unit and acceptance tests."""

from __future__ import annotations

import math
import random
from itertools import combinations

import perconn as pc

WEIGHT_POOL = [round(0.5 * i, 1) for i in range(1, 21)]


def random_weighted_graph(
    rng: random.Random,
    max_vertices: int = 12,
    max_criticals: int = 5,
    min_vertices: int = 2,
    allow_isolated: bool = True,
    allow_explicit: bool = True,
    max_edges: int | None = None,
    edge_prob: tuple[float, float] = (0.25, 0.6),
) -> pc.WeightedGraph:
    n = rng.randint(min_vertices, max_vertices)
    names = [f"v{i:02d}" for i in range(n)]
    values = sorted(rng.sample(WEIGHT_POOL, rng.randint(1, max_criticals)))
    p = rng.uniform(*edge_prob)
    edges = {}
    for u, v in combinations(names, 2):
        if rng.random() < p:
            edges[(u, v)] = rng.choice(values)
    if max_edges is not None and len(edges) > max_edges:
        keep = rng.sample(sorted(edges), max_edges)
        edges = {e: edges[e] for e in keep}
    covered = {x for e in edges for x in e}
    explicit = {}
    for v in names:
        if v not in covered and allow_isolated:
            explicit[v] = rng.choice(values)
    if allow_explicit:
        for v in sorted(covered):
            if rng.random() < 0.15:
                derived = min(w for e, w in edges.items() if v in e)
                explicit[v] = rng.choice([x for x in values if x <= derived])
    if not edges and not explicit:
        explicit[names[0]] = values[0]
    return pc.weighted_graph(edges, explicit)


def random_isolated_free_graph(rng: random.Random, max_vertices: int = 10) -> pc.WeightedGraph:
    """All vertex weights derived, no vertex without an edge: no sublevel ever
    contains an isolated vertex."""
    while True:
        wg = random_weighted_graph(
            rng,
            max_vertices=max_vertices,
            allow_isolated=False,
            allow_explicit=False,
        )
        if wg.edge_weights:
            return wg


def random_diagram(
    rng: random.Random,
    max_proper: int = 4,
    min_birth: float = 0.0,
    one_infinite: bool = True,
) -> pc.Diagram:
    pts = []
    if one_infinite:
        pts.append(pc.Cornerpoint(min_birth, math.inf))
    for _ in range(rng.randint(0, max_proper)):
        birth = round(min_birth + rng.uniform(0.0, 3.0), 3)
        death = round(birth + rng.uniform(0.05, 2.0), 3)
        pts.append(pc.Cornerpoint(birth, death, rng.randint(1, 2)))
    return pc.diagram(pts)


# Malformed diagram texts and the reader's message for each.
DIAGRAM_ERRORS = [
    ("1 2\n", "line 1: diagram record must be '<birth> <death> <multiplicity>'"),
    ("# c\n0 1 1\n1 x 1\n", "line 3: bad diagram record '1 x 1'"),
    ("0 1 1.5\n", "line 1: bad diagram record '0 1 1.5'"),
    ("\ninf inf 1\n", "line 2: cornerpoint birth must be finite, got inf"),
    ("nan 1 1\n", "line 1: cornerpoint birth must be finite, got nan"),
    ("2 1 1\n", "line 1: cornerpoint needs birth < death, got (2.0, 1.0)"),
    ("1 1 1\n", "line 1: cornerpoint needs birth < death, got (1.0, 1.0)"),
    ("0 1 1\n1 2 0\n", "line 2: multiplicity must be a positive integer, got 0"),
    ("1 2 -3\n", "line 1: multiplicity must be a positive integer, got -3"),
]


# Malformed graph texts, with the line and message of the reader's error.
GRAPH_ERRORS = [
    ("e a b 1\ne b c nope\n", 2, "bad weight 'nope'"),
    ("v a 1x\n", 1, "bad weight '1x'"),
    ("e a b inf\n", 1, "non-finite weight 'inf'"),
    ("e a b 1\nv a nan\n", 2, "non-finite weight 'nan'"),
    ("# loop\ne a a 1\n", 2, "self-loop at 'a'"),
    ("e a b 1\ne b a 2\n", 2, "duplicate edge a b"),
    ("v z 1\n\nv z 2\n", 3, "duplicate vertex weight for 'z'"),
    ("e a b 1\nx a b 1\n", 2, "unknown record type 'x'"),
    ("e a b\n", 1, "edge record must be 'e <u> <v> <weight>'"),
    ("e a b 1 2\n", 1, "edge record must be 'e <u> <v> <weight>'"),
    ("v a\n", 1, "vertex record must be 'v <u> <weight>'"),
    ("e a b 1\n# a\nv a 2\n", 3, "explicit weight 2.0 of vertex 'a' exceeds the incident minimum 1.0"),
    # several offenders: the first v record in file order, even before its edges
    ("v c 3\nv a 5\ne a b 1\ne c d -0\n", 1,
     "explicit weight 3.0 of vertex 'c' exceeds the incident minimum 0.0"),
]


def random_universal_diagram_pair(rng: random.Random, max_proper: int = 4):
    """Diagram pair with one infinite point each, every birth at or after both
    half-line births, so the half-line construction can realize them."""
    x1 = round(rng.uniform(0.0, 0.5), 3)
    x2 = round(rng.uniform(0.0, 0.5), 3)
    floor = max(x1, x2)
    d1 = [pc.Cornerpoint(x1, math.inf)]
    d2 = [pc.Cornerpoint(x2, math.inf)]
    for pts in (d1, d2):
        for _ in range(rng.randint(0, max_proper)):
            birth = round(floor + rng.uniform(0.0, 2.0), 3)
            death = round(birth + rng.uniform(0.05, 1.5), 3)
            pts.append(pc.Cornerpoint(birth, death))
    return pc.diagram(d1), pc.diagram(d2)


def random_poset(rng: random.Random, max_elements: int = 8) -> pc.Poset:
    n = rng.randint(1, max_elements)
    names = [f"x{i}" for i in range(n)]
    relations = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                relations.append((names[i], names[j]))
    return pc.Poset(names, relations)


def random_weakly_directed_poset(rng: random.Random, max_elements: int = 8) -> pc.Poset:
    while True:
        p = random_poset(rng, max_elements)
        if pc.is_weakly_directed(p):
            return p


def _involution(rng: random.Random, names: list[str]) -> dict[str, str]:
    shuffled = names[:]
    rng.shuffle(shuffled)
    vmap = {}
    i = 0
    while i + 1 < len(shuffled):
        if rng.random() < 0.6:
            vmap[shuffled[i]] = shuffled[i + 1]
            vmap[shuffled[i + 1]] = shuffled[i]
            i += 2
        else:
            i += 1
    return vmap


def group_vmaps(rng: random.Random, names: list[str], group: str) -> list[dict[str, str]]:
    """Generator vertex maps for a group of order <= 4 on the names."""
    n = len(names)
    if group == "random":
        options = ["trivial", "z2"]
        if n >= 3:
            options.append("z3")
        if n >= 4:
            options += ["z4", "z2z2"]
        group = rng.choice(options)
    if group == "trivial":
        return []
    if group == "z2":
        return [_involution(rng, names)]
    chosen = rng.sample(names, {"z3": 3, "z4": 4, "z2z2": 4}[group])
    if group == "z3":
        a, b, c = chosen
        return [{a: b, b: c, c: a}]
    a, b, c, d = chosen
    if group == "z4":
        return [{a: b, b: c, c: d, d: a}]
    # z2z2: two commuting involutions on a quad
    return [{a: b, b: a, c: d, d: c}, {a: c, c: a, b: d, d: b}]


def random_gquiver(
    rng: random.Random,
    max_vertices: int = 6,
    max_arrows: int = 6,
    group: str = "random",
    min_vertices: int = 1,
) -> pc.GQuiver:
    """Random quiver whose arrow set is closed under a small permutation
    group; arrows are keyed by (source, target) so the vertex maps induce the
    arrow maps, which keeps every generator an automorphism by construction."""
    n = rng.randint(min_vertices, max_vertices)
    names = [f"q{i}" for i in range(n)]
    vmaps = group_vmaps(rng, names, group)

    def close(pairs: set[tuple[str, str]]) -> set[tuple[str, str]]:
        frontier = list(pairs)
        seen = set(pairs)
        while frontier:
            s, t = frontier.pop()
            for vmap in vmaps:
                img = (vmap.get(s, s), vmap.get(t, t))
                if img not in seen:
                    seen.add(img)
                    frontier.append(img)
        return seen

    seeds = set()
    for _ in range(rng.randint(0, max_arrows)):
        s = rng.choice(names)
        t = rng.choice(names)
        seeds.add((s, t))
    pairs = close(seeds)
    arrow_name = {pair: f"a_{pair[0]}_{pair[1]}" for pair in sorted(pairs)}
    arrows = [(arrow_name[(s, t)], s, t) for (s, t) in sorted(pairs)]
    gens = []
    for vmap in vmaps:
        amap = {
            arrow_name[(s, t)]: arrow_name[(vmap.get(s, s), vmap.get(t, t))]
            for (s, t) in pairs
        }
        gens.append((vmap, amap))
    return pc.gquiver(names, arrows, gens)


def random_s3_gquiver(rng: random.Random) -> pc.GQuiver:
    """Random quiver under S3, which permutes the indices 0-2.  It fixes z,
    swaps w0 and w1 by the sign, and acts on x0-x2 and on y0-y2 naturally.

    Arrows come as whole orbits of (source, target) pairs, each orbit zero
    to two times, so parallel arrow orbits are common.  Between two vertex
    orbits there may be arrow orbits of different sizes: x_i -> y_i has 3
    arrows, x_i -> y_j for i != j has 6, and w_s -> x_i has 6."""
    names = ["z", "w0", "w1", "x0", "x1", "x2", "y0", "y1", "y2"]

    def vmap(perm, sign):
        m = {f"{c}{i}": f"{c}{perm[i]}" for c in "xy" for i in range(3)}
        return {**m, "w0": "w1", "w1": "w0"} if sign else m

    vmaps = [vmap((1, 0, 2), True), vmap((1, 2, 0), False)]  # a transposition, a 3-cycle
    seen: set[tuple[str, str]] = set()
    pair_orbits = []
    for pair in [(s, t) for s in names for t in names]:
        if pair in seen:
            continue
        orbit, frontier = {pair}, [pair]
        while frontier:
            s, t = frontier.pop()
            for m in vmaps:
                img = (m.get(s, s), m.get(t, t))
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        seen |= orbit
        pair_orbits.append(sorted(orbit))
    arrows = []
    gens: list[tuple[dict[str, str], dict[str, str]]] = [(m, {}) for m in vmaps]
    for o, orbit in enumerate(pair_orbits):
        if rng.random() < 0.3:
            for c in range(rng.randint(1, 2)):
                name = f"a{o}_{c}_{{}}_{{}}".format
                arrows += [(name(s, t), s, t) for s, t in orbit]
                for m, amap in gens:
                    amap.update({name(s, t): name(m.get(s, s), m.get(t, t)) for s, t in orbit})
    return pc.gquiver(names, arrows, gens)


def relabeled_copy(rng: random.Random, wg: pc.WeightedGraph) -> pc.WeightedGraph:
    """Isomorphic weighted graph with shuffled vertex names."""
    names = sorted(wg.graph.vertices)
    new = [f"w{i:02d}" for i in range(len(names))]
    rng.shuffle(new)
    ren = dict(zip(names, new))
    edges = {(ren[u], ren[v]): w for (u, v), w in wg.edge_weights.items()}
    explicit = {ren[v]: w for v, w in wg.vertex_weights.items() if v in wg.explicit}
    return pc.weighted_graph(edges, explicit)


def sparse_graph_edges(rng: random.Random, n: int) -> list[tuple[str, str]]:
    """2n distinct random edges on n vertices."""
    edges: set[tuple[str, str]] = set()
    while len(edges) < 2 * n:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((f"v{a:04d}", f"v{b:04d}"))
    return sorted(edges)


def path_with_chords(rng: random.Random, n: int, tied: bool) -> pc.WeightedGraph:
    """A path on n vertices plus about n / 10 chords between random vertices.

    Every chord weighs more than every path edge, so the path is the
    spanning tree and the tree path of a chord is as long as its span.
    """
    edges = {(f"p{i:05d}", f"p{i + 1:05d}"): _weight(rng, tied) for i in range(n - 1)}
    for _ in range(n // 10):
        a, b = sorted(rng.sample(range(n), 2))
        if b > a + 1:
            edges[(f"p{a:05d}", f"p{b:05d}")] = _weight(rng, tied) + 8
    return pc.weighted_graph(edges)


def triangle_bridge_chain(links: int) -> list[tuple[str, str]]:
    """Triangles in a row, each joined to the next by a bridge."""
    edges = []
    for i in range(links):
        a, b, c = (f"t{i:04d}{x}" for x in "abc")
        edges += [(a, b), (a, c), (b, c)]
        if i:
            edges.append((f"t{i - 1:04d}c", a))
    return edges


def k5_chain(links: int) -> list[tuple[str, str]]:
    """K5s in a row, each joined to the next by two edges."""
    edges = []
    for i in range(links):
        five = [f"k{i:04d}{x}" for x in "abcde"]
        edges += list(combinations(five, 2))
        if i:
            edges += [(f"k{i - 1:04d}d", five[0]), (f"k{i - 1:04d}e", five[1])]
    return edges


def six_clusters(rng: random.Random) -> pc.WeightedGraph:
    """30-60 vertices in six dense clusters joined by a few edges, with
    weights from 1-12: cuts just below and at k are common, and the
    previous level's vertex blocks settle most probes."""
    clusters = [[f"c{c}v{i}" for i in range(rng.randint(5, 10))] for c in range(6)]
    pairs = [e for vs in clusters for e in combinations(vs, 2) if rng.random() < 0.7]
    for a, b in combinations(clusters, 2):
        pairs += [(rng.choice(a), rng.choice(b)) for _ in range(rng.randint(0, 6) // 2)]
    return pc.weighted_graph({e: rng.randint(1, 12) for e in pairs})


def random_geometric_graph(rng: random.Random, n: int) -> pc.WeightedGraph:
    """n random points in the unit square, joined when closer than r, where
    pi r^2 n = 12 (mean degree near 12 away from the border), each edge
    weighted by its length: clustered graphs with distinct weights."""
    r = math.sqrt(12 / (math.pi * n))
    points = [(rng.random(), rng.random()) for _ in range(n)]
    edges = {}
    for i, j in combinations(range(n), 2):
        length = math.dist(points[i], points[j])
        if length < r:
            edges[(f"g{i:03d}", f"g{j:03d}")] = length
    return pc.weighted_graph(edges)


def cycles_at_one_vertex(cycles: int, length: int) -> list[tuple[str, str]]:
    """Cycles of the given length that share the vertex 'hub' and nothing else."""
    edges = []
    for i in range(cycles):
        ring = ["hub", *(f"c{i:03d}_{j:03d}" for j in range(1, length))]
        edges += [(ring[j], ring[(j + 1) % length]) for j in range(length)]
    return edges


def k4_star(arms: int) -> list[tuple[str, str]]:
    """K4s, each joined to the vertex 'hub' by one edge."""
    edges = []
    for i in range(arms):
        quad = [f"k{i:03d}{x}" for x in "abcd"]
        edges += list(combinations(quad, 2))
        edges.append((quad[0], "hub"))
    return edges


def covered_k4() -> pc.WeightedGraph:
    """A K4 on w, x, y, z at weight 1 whose six edges another clique:4
    community covers at weight 2.

    Each edge {a, b} of the K4 gets a 4-clique {a, b, p, q} with fresh p, q;
    consecutive covers are chained by the 4-vertex windows of
    [a, b, p, q, r, s, p', q', a', b'] with fresh r, s.  26 vertices, 96 edges.
    """
    k4 = ["w", "x", "y", "z"]
    edges = {e: 1.0 for e in combinations(k4, 2)}
    covers = [[a, b, f"p{i}", f"q{i}"] for i, (a, b) in enumerate(combinations(k4, 2))]
    chains = [c + [f"r{i}", f"s{i}"] + d[2:] + d[:2] for i, (c, d) in enumerate(zip(covers, covers[1:]))]
    for seq in covers + chains:
        for start in range(len(seq) - 3):
            for e in combinations(seq[start : start + 4], 2):
                edges.setdefault(tuple(sorted(e)), 2.0)
    return pc.weighted_graph(edges)


def _weight(rng: random.Random, tied: bool) -> float:
    """From 1-8 in halves (tied) or uniform on [0, 1) (distinct)."""
    return rng.randint(2, 16) / 2 if tied else rng.random()


def weigh(rng: random.Random, edges, tied: bool) -> pc.WeightedGraph:
    return pc.weighted_graph({e: _weight(rng, tied) for e in edges})


# Spellings of one weight, so the reader sees signs, exponents and padding.
_SPELLINGS = {
    0.0: ["0", "-0", "0.0", "-0.0", "+0"],
    0.5: ["0.5", ".5", "5e-1", "0.50"],
    1.0: ["1", "1.0", "1e0", "+1"],
    2.5: ["2.5", "25e-1"],
    4.0: ["4", "4.000"],
}


def random_graph_text(rng: random.Random, max_vertices: int = 9) -> str:
    """Valid edge-list text with the reader's corner cases: comments, blank
    and padded lines, edges in either orientation, tied and -0 weights,
    v records before and after their edges, and isolated explicit vertices."""
    names = [f"n{i}" for i in range(rng.randint(1, max_vertices))]
    p = rng.uniform(0.2, 0.7)
    edges = {e: rng.choice(list(_SPELLINGS)) for e in combinations(names, 2) if rng.random() < p}
    lowest = {}
    for e, w in edges.items():
        for x in e:
            lowest[x] = min(lowest.get(x, w), w)
    records = []
    for (u, v), w in edges.items():
        a, b = (u, v) if rng.random() < 0.5 else (v, u)
        records.append(f"e {a} {b} {rng.choice(_SPELLINGS[w])}")
    for x in names:
        if x not in lowest or rng.random() < 0.3:
            w = rng.choice([w for w in _SPELLINGS if w <= lowest.get(x, math.inf)])
            records.insert(rng.randint(0, len(records)), f"v {x} {rng.choice(_SPELLINGS[w])}")
    lines = []
    for record in records:
        for _ in range(rng.choice([0, 0, 0, 1, 2])):
            lines.append(rng.choice(["", "   ", "# a comment", "#e x y 1", "\t# indented"]))
        lines.append(rng.choice(["", "  ", "\t"]) + record.replace(" ", rng.choice([" ", "  ", "\t"])))
    return "\n".join(lines) + rng.choice(["", "\n", "\n\n"])


def corrupt_graph_text(rng: random.Random, text: str) -> str:
    """``text`` with one line replaced or added, most often by a malformed
    record: a bad or non-finite weight, a wrong field count, a self-loop, a
    repeated edge or v record, an unknown record type, or an explicit weight
    above the incident minimum."""
    lines = text.split("\n")
    fields = [line.split() for line in lines if line.split() and not line.split()[0].startswith("#")]
    names = sorted({x for f in fields for x in f[1:-1]}) or ["n0"]
    u, v = rng.choice(names), rng.choice(names)
    bad = rng.choice([
        f"e {u} {v} nope", f"e {u} {v} inf", f"v {u} nan", f"v {u} -inf", f"e {u} {v}",
        f"e {u} {v} 1 2", f"v {u}", f"v {u} 1 2", f"x {u} {v} 1", f"E {u} {v} 1", f"e {u} {u} 1",
        f"v {u} 9", f"v {u} 0", f"e {v} {u} 0.5", rng.choice(lines),
    ])
    if rng.random() < 0.5 and lines:
        lines[rng.randrange(len(lines))] = bad
    else:
        lines.insert(rng.randint(0, len(lines)), bad)
    return "\n".join(lines)


_PADDING = ["", "   ", "# a comment", "#v x", "\t# indented"]


def random_gquiver_text(rng: random.Random) -> str:
    """A serialized ``random_gquiver`` or ``random_s3_gquiver`` with the
    reader's corner cases: comments, blank and padded lines, v and a records
    shuffled and scattered between the generator blocks, endpoints without a
    v record, identity map lines, unmapped items and map lines in any order
    within their block."""
    if rng.random() < 0.25:
        gq = random_s3_gquiver(rng)
    else:
        gq = random_gquiver(rng, max_vertices=8, max_arrows=8)
    q = gq.quiver
    ends = {x for _, s, t in q.arrows for x in (s, t)}
    records = [f"v {v}" for v in sorted(q.vertices) if v not in ends or rng.random() < 0.5]
    records += [f"a {n} {s} {t}" for n, s, t in q.arrows]
    rng.shuffle(records)
    blocks = []
    for vmap, amap in gq.generator_maps():
        maps = [f"map v {x} {y}" for x, y in vmap.items()]
        maps += [f"map v {x} {x}" for x in sorted(q.vertices) if x not in vmap and rng.random() < 0.3]
        maps += [f"map a {x} {y}" for x, y in amap.items() if x != y or rng.random() < 0.5]
        rng.shuffle(maps)
        blocks += ["g", *maps]
    lines = blocks
    for record in records:
        lines.insert(rng.randint(0, len(lines)), record)
    padded = []
    for line in lines:
        for _ in range(rng.choice([0, 0, 0, 1, 2])):
            padded.append(rng.choice(_PADDING))
        padded.append(rng.choice(["", "  ", "\t"]) + line.replace(" ", rng.choice([" ", "  ", "\t"])))
    return "\n".join(padded) + rng.choice(["", "\n", "\n\n"])


def corrupt_gquiver_text(rng: random.Random, text: str) -> str:
    """``text`` with one fault: a line dropped, repeated elsewhere or
    garbled, or one more generator that maps to an unknown name, is not a
    permutation, or swaps two vertices with no arrow map, which breaks the
    automorphism unless their arrows are symmetric."""
    lines = text.split("\n")
    fields = [line.split() for line in lines]
    named = {f[1] for f in fields if f[:1] == ["v"]}
    vertices = sorted(named.union(*(f[2:] for f in fields if f[:1] == ["a"])))
    arrows = sorted({f[1] for f in fields if len(f) > 1 and f[0] == "a"})
    u, v = rng.choice(vertices or ["q0"]), rng.choice(vertices or ["q0"])
    fault = rng.choice(["drop", "repeat", "garble", "unknown", "not a permutation", "swap"])
    if fault == "drop":
        del lines[rng.randrange(len(lines))]
    elif fault == "repeat":
        lines.insert(rng.randint(0, len(lines)), rng.choice(lines))
    elif fault == "garble":
        bad = rng.choice([
            "zzz", f"v {u} {v}", "v", f"a x{u} {u}", f"a x {u} {v} w", "g g", "G", f"map v {u}",
            f"map q {u} {v}", f"map v {u} {v} {u}", f"Map v {u} {v}", f"vv {u}",
        ])
        lines[rng.randrange(len(lines))] = bad
    elif fault == "unknown":
        kind, x = rng.choice([("v", u), ("a", rng.choice(arrows or ["e"]))])
        lines += ["g", rng.choice([f"map {kind} {x} nowhere", f"map {kind} nowhere {x}"])]
    elif fault == "not a permutation":
        if arrows and rng.random() < 0.5:
            lines += ["g", f"map a {arrows[0]} {arrows[-1]}"]
        else:
            lines += ["g", f"map v {u} {max(vertices, default=u)}"]
    else:
        lines += ["g", f"map v {u} {v}", f"map v {v} {u}"]
    return "\n".join(lines)
