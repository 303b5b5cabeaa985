"""Seeded inputs for the four benchmark workloads.

Every generator here is self-contained, so an edit to the test corpora
cannot change what the benchmark runs.  A pool is a list of jobs; each job
is one ``perconn.cli.main(argv)`` call on files written at set-up.  Pools
are built round by round, every size class once per round, so the part of
a pass that a run repeats has the same size mix as the whole pool.  Sizes
are fixed per class and only the structure is drawn from the seed: a pool
of many similar jobs keeps the metrics steady from seed to seed.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
import shutil
from dataclasses import dataclass

WORKLOADS = ("deep-filtration", "cut-blocks", "distances", "quiver-orbits")
# Input files of a run go to a directory of their own under this root.
WORK_ROOT = ".perfbench_work"

# Share of the executions below the reported tail percentile.  Each value is
# the highest percentile that keeps at least ten executions beyond it in a
# run at the seed commit; faster commits only add executions.
TAIL_PERCENTILE = {
    "deep-filtration": 80,
    "cut-blocks": 93,
    "distances": 97,
    "quiver-orbits": 95,
}

# Rounds per pool: one pass over the pool takes about 15 s at the seed
# commit, so a 20 s run executes every job once and repeats a few rounds.
ROUNDS = {
    "deep-filtration": 7,
    "cut-blocks": 28,
    "distances": 16,
    "quiver-orbits": 4,
}


@dataclass
class Job:
    """One CLI call: ``argv`` names files relative to the work directory."""

    id: str
    argv: list[str]
    files: dict[str, str]
    kind: str
    # What an independent reference needs to recompute the output.
    reference: tuple | None = None
    # Finite points of both diagrams, for distance jobs.
    points: int = 0


def weight_text(x: float) -> str:
    """Shortest decimal that reads back as ``x``, without a trailing '.0'."""
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def graph_text(edges: dict[tuple[str, str], float]) -> str:
    return "".join(f"e {u} {v} {weight_text(w)}\n" for (u, v), w in sorted(edges.items()))


def diagram_text(points: list[tuple[float, float]]) -> str:
    lines = []
    for b, d in sorted(points):
        death = "inf" if math.isinf(d) else weight_text(d)
        lines.append(f"{weight_text(b)} {death} 1\n")
    return "".join(lines)


def sparse_graph(rng: random.Random, n: int, edge_count: int) -> list[tuple[str, str]]:
    """Connected graph: a random recursive tree plus extra edges, half of
    them closing a triangle so that 3-cliques exist."""
    names = [f"v{i:03d}" for i in range(n)]
    adj: dict[str, set[str]] = {v: set() for v in names}
    edges: set[tuple[str, str]] = set()

    def add(u: str, v: str) -> None:
        edges.add((u, v) if u < v else (v, u))
        adj[u].add(v)
        adj[v].add(u)

    for i in range(1, n):
        add(names[rng.randrange(i)], names[i])
    while len(edges) < edge_count:
        u = rng.choice(names)
        if rng.random() < 0.5:
            w = rng.choice(sorted(adj[u]))
            v = rng.choice(sorted(adj[w]))
        else:
            v = rng.choice(names)
        if u != v and v not in adj[u]:
            add(u, v)
    return sorted(edges)


def grid_work(edges: dict[tuple[str, str], float]) -> int:
    """Sum over levels i <= j of c_i * c_j, where c_i counts the connected
    components at the i-th critical value: the containment checks that a
    persistence grid over the components makes at most."""
    birth: dict[str, float] = {}
    for (u, v), w in edges.items():
        for x in (u, v):
            birth[x] = min(birth.get(x, w), w)
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    counts = []
    entering = sorted([(w, 0, v, v) for v, w in birth.items()] + [(w, 1, u, v) for (u, v), w in edges.items()])
    c = 0
    for i, (w, is_edge, u, v) in enumerate(entering):
        if not is_edge:
            parent[u] = u
            c += 1
        elif find(u) != find(v):
            parent[find(u)] = find(v)
            c -= 1
        if i + 1 == len(entering) or entering[i + 1][0] != w:
            counts.append(c)
    total = sum(counts)
    return (total * total + sum(x * x for x in counts)) // 2


def deep_filtration(rng: random.Random, rounds: int) -> list[Job]:
    """components and clique:3 diagrams on sparse graphs with nearly distinct
    edge weights, so the number of critical values m is close to |E|.

    The grid's work grows with the components per level, which varies a lot
    between random graphs of one size; each graph is the median of five
    candidates by ``grid_work``, so the pool's work varies less by seed."""
    sizes = (60, 70, 80, 90, 100, 110, 120)
    jobs = []
    for r in range(rounds):
        for ci, n in enumerate(sizes):
            candidates = [
                {e: rng.randint(1, 99999) / 100 for e in sparse_graph(rng, n, round(1.75 * n))}
                for _ in range(5)
            ]
            edges = sorted(candidates, key=grid_work)[2]
            name = f"g{len(jobs):03d}.txt"
            if (r + ci) % 2 == 0:
                argv = ["diagram", "--property", "components", name]
                kind, ref = "components", ("components-diagram", edges)
            else:
                argv = ["diagram", "--property", "clique", "--k", "3", name]
                kind, ref = "clique:3", None
            jobs.append(Job(f"deep{len(jobs):03d}", argv, {name: graph_text(edges)}, kind, ref))
    return jobs


def cut_blocks(rng: random.Random, rounds: int) -> list[Job]:
    """Edge- and vertex-block diagrams on small graphs with six distinct
    weights; one job in four asks for the blocks of the final graph only."""
    sizes = (30, 35, 40, 45, 50)
    diagram_specs = [
        ("edge-block", 2), ("vertex-block", 3), ("edge-block", 3),
        ("vertex-block", 2), ("edge-block", 2), ("edge-block", 3),
    ]
    jobs = []
    for r in range(rounds):
        for ci, n in enumerate(sizes):
            levels = sorted(rng.sample(range(1, 100), 6))
            edges = {e: float(rng.choice(levels)) for e in sparse_graph(rng, n, round(2.5 * n))}
            name = f"g{len(jobs):03d}.txt"
            slot = (r + ci) % 8
            if slot < 6:
                prop, k = diagram_specs[slot]
                argv = ["diagram", "--property", prop, "--k", str(k), name]
                kind, ref = f"diagram {prop}:{k}", None
            else:
                prop = "edge-block" if slot == 6 else "vertex-block"
                k = 2 + (r + ci) // 8 % 2
                argv = ["components", "--property", prop, "--k", str(k), name]
                kind = f"components {prop}:{k}"
                ref = ("edge-blocks", edges, k) if prop == "edge-block" else None
            jobs.append(Job(f"cut{len(jobs):03d}", argv, {name: graph_text(edges)}, kind, ref))
    return jobs


def random_diagram(rng: random.Random, finite: int) -> list[tuple[float, float]]:
    pts = [(round(rng.uniform(0.0, 0.5), 3), math.inf)]
    for _ in range(finite):
        birth = round(rng.uniform(0.0, 10.0), 3)
        pts.append((birth, round(birth + rng.expovariate(1.0) + 0.01, 3)))
    return pts


def perturbed(rng: random.Random, points: list[tuple[float, float]], eps: float) -> list[tuple[float, float]]:
    """The same diagram with every coordinate moved by at most ``eps``."""
    out = []
    for b, d in points:
        nb = round(max(0.0, b + rng.uniform(-eps, eps)), 3)
        nd = d if math.isinf(d) else round(max(nb + 0.01, d + rng.uniform(-eps, eps)), 3)
        out.append((nb, nd))
    return out


def universal_diagram_pair(rng: random.Random, max_proper: int = 2):
    """One half-line each and every birth at or after both half-line births,
    as the universal-pair construction requires."""
    x1, x2 = round(rng.uniform(0.0, 0.5), 3), round(rng.uniform(0.0, 0.5), 3)
    floor = max(x1, x2)
    pair = []
    for x in (x1, x2):
        pts = [(x, math.inf)]
        for _ in range(rng.randint(0, max_proper)):
            birth = round(floor + rng.uniform(0.0, 2.0), 3)
            pts.append((birth, round(birth + rng.uniform(0.05, 1.5), 3)))
        pair.append(pts)
    return pair


def distances(rng: random.Random, rounds: int) -> list[Job]:
    """Bottleneck distances between diagrams with 20-60 finite points and
    their copies perturbed by at most 0.3, as in a stability check, and
    natural pseudodistances between t_2/t_3 universal-pair graphs, whose
    pseudodistance equals the bottleneck distance of the source diagrams.

    Against a perturbed copy the matching search costs about the same for
    every pair of one size; against an independent diagram its cost varied
    more than four times as much."""
    import perconn as pc

    def to_diagram(pts):
        return pc.diagram(pc.Cornerpoint(b, d) for b, d in pts)

    sizes = (20, 30, 40, 50, 60)
    jobs = []
    for _ in range(rounds):
        for n in sizes:
            d1 = random_diagram(rng, n)
            d2 = perturbed(rng, d1, 0.3)
            a, b = f"d{len(jobs):03d}a.txt", f"d{len(jobs):03d}b.txt"
            jobs.append(Job(
                f"dist{len(jobs):03d}", ["distance", a, b],
                {a: diagram_text(d1), b: diagram_text(d2)},
                "distance", ("bottleneck", d1, d2), 2 * n,
            ))
        for _ in range(8):
            p1, p2 = universal_diagram_pair(rng)
            h1, h2 = pc.build_universal_pair(to_diagram(p1), to_diagram(p2))
            for k in (2, 3):
                w1, w2 = pc.t_n_filtration(h1, k), pc.t_n_filtration(h2, k)
                a, b = f"w{len(jobs):03d}a.txt", f"w{len(jobs):03d}b.txt"
                jobs.append(Job(
                    f"dist{len(jobs):03d}", ["pseudodistance", "--cap", "100", a, b],
                    {a: pc.serialize_weighted_graph(w1), b: pc.serialize_weighted_graph(w2)},
                    f"pseudodistance t{k}", ("bottleneck", p1, p2),
                ))
    return jobs


def _involution(rng: random.Random, names: list[str]) -> dict[str, str]:
    """Swaps len(names) // 3 random pairs, so the orbit count is fixed."""
    order = rng.sample(names, 2 * (len(names) // 3))
    vmap: dict[str, str] = {}
    for a, b in zip(order[::2], order[1::2]):
        vmap[a], vmap[b] = b, a
    return vmap


def _group_maps(rng: random.Random, names: list[str], group: str) -> list[dict[str, str]]:
    if group == "trivial":
        return []
    if group == "z2":
        return [_involution(rng, names)]
    if group == "z3":
        a, b, c = rng.sample(names, 3)
        return [{a: b, b: c, c: a}]
    a, b, c, d = rng.sample(names, 4)
    if group == "z4":
        return [{a: b, b: c, c: d, d: a}]
    return [{a: b, b: a, c: d, d: c}, {a: c, c: a, b: d, d: b}]


def gquiver_text(rng: random.Random, n: int, group: str) -> str:
    """Quiver whose arrow set is closed under the group, so the vertex maps
    induce arrow maps and every generator is an automorphism."""
    names = [f"q{i:02d}" for i in range(n)]
    vmaps = _group_maps(rng, names, group)
    pairs: set[tuple[str, str]] = set()
    while len(pairs) < n:  # whole orbits of random arrows, about n arrows in all
        frontier = [(rng.choice(names), rng.choice(names))]
        while frontier:
            pair = frontier.pop()
            if pair in pairs:
                continue
            pairs.add(pair)
            s, t = pair
            frontier.extend((vmap.get(s, s), vmap.get(t, t)) for vmap in vmaps)

    def arrow(s: str, t: str) -> str:
        return f"a_{s}_{t}"

    lines = [f"v {v}" for v in names]
    lines += [f"a {arrow(s, t)} {s} {t}" for s, t in sorted(pairs)]
    for vmap in vmaps:
        lines.append("g")
        lines += [f"map v {x} {y}" for x, y in sorted(vmap.items())]
        for s, t in sorted(pairs):
            lines.append(f"map a {arrow(s, t)} {arrow(vmap.get(s, s), vmap.get(t, t))}")
    return "".join(line + "\n" for line in lines)


def quiver_orbits(rng: random.Random, rounds: int) -> list[Job]:
    """All three equivariant classes on G-quivers with 8-14 vertices under
    trivial, Z2, Z3, Z4 and Z2xZ2 actions."""
    classes = (
        ["--class", "isomorphisms"],
        ["--class", "orbit-deletion", "--k", "2"],
        ["--class", "fixed-vertex-deletion", "--k", "2"],
    )
    groups = ("trivial", "z2", "z3", "z4", "z2z2")
    jobs = []
    for _ in range(rounds):
        for n in (8, 10, 12, 14):
            for group in groups:
                name = f"q{len(jobs):03d}.txt"
                text = gquiver_text(rng, n, group)
                for cls in classes:
                    jobs.append(Job(
                        f"quiver{len(jobs):03d}", ["quiver-diagram", *cls, name], {name: text},
                        f"{cls[1]} {group}",
                    ))
    return jobs


GENERATORS = {
    "deep-filtration": deep_filtration,
    "cut-blocks": cut_blocks,
    "distances": distances,
    "quiver-orbits": quiver_orbits,
}


def build_pool(workload: str, seed: int) -> list[Job]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), ROUNDS[workload])


def warmup_job(workload: str) -> Job:
    """The first job of a one-round pool from a fixed seed, so set-up time
    does not depend on the run's seed."""
    return GENERATORS[workload](random.Random(f"{workload}:warm-up"), 1)[0]


def write_pool(jobs: list[Job], workdir: str) -> list[list[str]]:
    """Write every input file and return each job's argv with full paths."""
    os.makedirs(workdir, exist_ok=True)
    argvs = []
    for job in jobs:
        for name, text in job.files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        argvs.append([os.path.join(workdir, a) if a in job.files else a for a in job.argv])
    return argvs


def remove_workdir(workdir: str) -> None:
    """Delete a run's input files, and the work root once no run uses it."""
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(WORK_ROOT)
