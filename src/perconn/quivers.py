"""Finite quivers with group actions and their orbit-filtration persistence.

A quiver is a directed multigraph with loops; arrows carry names so
parallel arrows stay distinct.  A group acts through a list of generator
automorphisms (a vertex permutation plus a compatible arrow permutation).
Everything downstream only needs orbits, which are computed by closure
under the generators.  One pass reads the text format to records, which
become the validated ``GQuiver`` (``parse_gquiver``) or, with the same
checks, the weighted orbit graph below (``parse_orbit_graph``).

A G-quiver is connected when the group acts transitively on the weakly
connected components of the underlying quiver (equivalently: it has no
splitting into two disjoint nonempty invariant subquivers).  An invariant
vertex set is therefore connected exactly when its vertex orbits, joined
wherever an arrow runs between two of them, form a connected graph: each
orbit is already joined by generator moves, and the orbits of an invariant
subquiver are the parent's orbits inside it.  Three
equivariant deletion classes refine this: ``isomorphisms`` (no deletions),
``orbit_deletion`` (drop fewer than k whole vertex orbits with their
incident arrows), and ``fixed_vertex_deletion`` (drop fewer than k
vertices fixed by every generator).  k defaults to 2; k = 1 degenerates to
the isomorphisms class.

The orbit filtration (a vertex enters at the size of its orbit, an arrow
once its own orbit and both endpoint orbits have entered) is the sublevel
filtration of one weighted orbit graph: each orbit is born at its size, and
two adjacent orbits are joined at the least entry value of the arrows
between them.  An arrow inside one orbit adds a critical value and no edge.
Its diagram is a graph diagram (``persistence.index_diagram``): components
for ``isomorphisms``, and ``vertex_block:k`` for ``orbit_deletion:k``.  For
``fixed_vertex_deletion:k`` each orbit of two or more vertices, which may
not be deleted, becomes k mutually adjacent twins joined to every copy of
its orbit neighbours.  A deletion budget below k never removes all twins,
and a maximal block holds all twins of an orbit or none, so blocks read
back by orbit index are exactly the maximal components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, combinations

from .connectivity import PropertySpec, top_components
from .graphs import FormatError, GraphError, weighted_graph
from .persistence import Diagram, PersistenceFunction, diagram_table, index_diagram

EQUIVARIANT_KINDS = ("isomorphisms", "orbit_deletion", "fixed_vertex_deletion")


class QuiverError(GraphError):
    """Invalid quiver, action, or query."""


@dataclass(frozen=True)
class Quiver:
    """Directed multigraph with loops; arrows are (name, source, target)."""

    vertices: frozenset[str]
    arrows: tuple[tuple[str, str, str], ...]

    def __post_init__(self):
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise QuiverError("duplicate arrow names")
        for name, src, tgt in self.arrows:
            if src not in self.vertices or tgt not in self.vertices:
                raise QuiverError(f"arrow {name!r} has a missing endpoint")
        if list(self.arrows) != sorted(self.arrows):
            raise QuiverError("arrows must be sorted by name")

    def arrow_map(self) -> dict[str, tuple[str, str]]:
        return {name: (src, tgt) for name, src, tgt in self.arrows}

    def arrow_names(self) -> frozenset[str]:
        return frozenset(a[0] for a in self.arrows)


def quiver(vertices=(), arrows=()) -> Quiver:
    """Build a quiver from vertex names and (name, src, tgt) triples."""
    vs = set(vertices)
    ars = []
    for name, src, tgt in arrows:
        vs.add(src)
        vs.add(tgt)
        ars.append((name, src, tgt))
    return Quiver(frozenset(vs), tuple(sorted(ars)))


@dataclass(frozen=True)
class GroupAction:
    """Finite list of generator automorphisms, each a pair of permutation maps."""

    generators: tuple[tuple[tuple[tuple[str, str], ...], tuple[tuple[str, str], ...]], ...]

    @staticmethod
    def from_maps(generators) -> "GroupAction":
        packed = []
        for vmap, amap in generators:
            packed.append((tuple(sorted(vmap.items())), tuple(sorted(amap.items()))))
        return GroupAction(tuple(packed))

    def maps(self) -> list[tuple[dict[str, str], dict[str, str]]]:
        return [(dict(v), dict(a)) for v, a in self.generators]


@dataclass(frozen=True)
class GQuiver:
    """Quiver equipped with a validated group action."""

    quiver: Quiver
    action: GroupAction = field(default_factory=lambda: GroupAction(()))

    def __post_init__(self):
        _check_action(self.quiver.vertices, self.quiver.arrows, self.action.maps())

    def generator_maps(self) -> list[tuple[dict[str, str], dict[str, str]]]:
        return self.action.maps()


def _check_action(vertices, arrows, generators, error=QuiverError) -> None:
    """Each generator maps vertices and (name-sorted) arrows by permutations
    of their names, and every arrow onto one between its endpoints' images.
    Per generator: the vertex map in key order, the arrow map, each arrow."""
    ends = {name: (src, tgt) for name, src, tgt in arrows}
    domain = set(vertices)
    for vmap, amap in generators:
        for mapping, known, what in ((vmap, domain, "vertex"), (amap, ends.keys(), "arrow")):
            image = set(mapping.values())
            if not (mapping.keys() <= known and image <= known):
                x = next(x for x in sorted(mapping) if x not in known or mapping[x] not in known)
                raise error(f"{what} map uses unknown name {x!r} -> {mapping[x]!r}")
            if image != mapping.keys():
                raise error(f"{what} map is not a permutation")
        for name, src, tgt in arrows:
            to = amap.get(name, name)
            if ends[to] != (vmap.get(src, src), vmap.get(tgt, tgt)):
                raise error(
                    f"generator is not an automorphism: arrow {name!r} maps to "
                    f"{to!r} but endpoints disagree"
                )


def gquiver(vertices=(), arrows=(), generators=()) -> GQuiver:
    return GQuiver(quiver(vertices, arrows), GroupAction.from_maps(generators))


def _orbits(items, maps) -> tuple[dict[str, int], list[list[str]]]:
    """Each item's orbit index and each orbit's members, numbered by least
    member (``items`` sorted): the maps are permutations, so the forward
    closure of an item is its orbit."""
    where: dict[str, int] = {}
    orbs: list[list[str]] = []
    for x in items:
        if x not in where:
            o = where[x] = len(orbs)
            orb = [x]
            for y in orb:  # grows as the closure reaches new members
                for m in maps:
                    z = m.get(y, y)
                    if z not in where:
                        where[z] = o
                        orb.append(z)
            orbs.append(orb)
    return where, orbs


def orbits(gq: GQuiver) -> tuple[list[frozenset[str]], list[frozenset[str]]]:
    """Vertex and arrow orbit partitions under the generated group."""
    vertices, arrows, gens = _records(gq)
    _, vorbs = _orbits(vertices, [v for v, _ in gens])
    _, aorbs = _orbits([a[0] for a in arrows], [a for _, a in gens])
    return [frozenset(o) for o in vorbs], [frozenset(o) for o in aorbs]


def _records(gq: GQuiver):  # what _read_gquiver gives for gq's text
    return sorted(gq.quiver.vertices), gq.quiver.arrows, gq.generator_maps()


def _labels(orbs, what: str) -> list[str]:
    labels = ["|".join(sorted(orb)) for orb in orbs]
    if len(set(labels)) < len(labels):
        label = next(x for x in labels if labels.count(x) > 1)
        raise QuiverError(f"two {what} orbits share the label {label!r}")
    return labels


def quotient(gq: GQuiver) -> Quiver:
    """Quiver of orbits, each named by its members joined with '|';
    endpoints are the orbits of any representative."""
    vorbs, aorbs = orbits(gq)
    vname = {v: label for orb, label in zip(vorbs, _labels(vorbs, "vertex")) for v in orb}
    am = gq.quiver.arrow_map()
    labels = zip(aorbs, _labels(aorbs, "arrow"))
    arrows = [(label, *(vname[v] for v in am[min(orb)])) for orb, label in labels]
    return quiver(set(vname.values()), arrows)


def restrict_gquiver(gq: GQuiver, vertex_set, arrow_names=None) -> GQuiver:
    """Invariant subquiver on the given vertex set (and optional arrow subset)."""
    keep_v = frozenset(vertex_set)
    am = gq.quiver.arrow_map()
    if arrow_names is None:
        keep_a = {n for n, (s, t) in am.items() if s in keep_v and t in keep_v}
    else:
        keep_a = set(arrow_names)
        for n in keep_a:
            s, t = am[n]
            if s not in keep_v or t not in keep_v:
                raise QuiverError(f"arrow {n!r} dangles outside the vertex set")
    gens = []
    for vmap, amap in gq.generator_maps():
        for v in keep_v:
            if vmap.get(v, v) not in keep_v:
                raise QuiverError("vertex set is not invariant under the action")
        for a in keep_a:
            if amap.get(a, a) not in keep_a:
                raise QuiverError("arrow set is not invariant under the action")
        gens.append(
            (
                {v: vmap[v] for v in keep_v if v in vmap},
                {a: amap[a] for a in keep_a if a in amap},
            )
        )
    sub = Quiver(keep_v, tuple(sorted((n, am[n][0], am[n][1]) for n in keep_a)))
    return GQuiver(sub, GroupAction.from_maps(gens))


@dataclass(frozen=True)
class EquivariantClass:
    """Deletion class for equivariant connectivity; fewer than k units may go."""

    kind: str
    k: int = 2

    def __post_init__(self):
        if self.kind not in EQUIVARIANT_KINDS:
            raise QuiverError(f"unknown equivariant class {self.kind!r}")
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise QuiverError(f"k must be a positive integer, got {self.k!r}")

    def label(self) -> str:
        if self.kind == "isomorphisms":
            return "isomorphisms"
        return f"{self.kind}:{self.k}"


def _orbit_graph(vertices, arrows, generators, cls: EquivariantClass):
    """The weighted orbit graph of a G-quiver's records for a deletion class:
    the vertex orbits, each graph vertex's orbit, the quiver's critical values
    (loops and arrows inside one orbit included), the vertex births, the
    (u, v, w) edges, and the property to sweep.  Twins join at their size."""
    where, vorbs = _orbits(vertices, [v for v, _ in generators])
    ends = {name: (where[src], where[tgt]) for name, src, tgt in arrows}
    _, aorbs = _orbits(list(ends), [a for _, a in generators])
    size = [float(len(orb)) for orb in vorbs]
    criticals = set(size)
    joins: dict[tuple[int, int], float] = {}
    for orb in aorbs:
        a, b = sorted(ends[orb[0]])
        entry = max(float(len(orb)), size[a], size[b])
        criticals.add(entry)
        if a != b:
            joins[a, b] = min(joins.get((a, b), entry), entry)
    k = 1 if cls.kind == "isomorphisms" else cls.k
    copies = [1] * len(vorbs)
    if cls.kind == "fixed_vertex_deletion":
        # only singleton orbits may go, so a budget past all of them is all of
        # them, at every level: they are all born at 1, the least critical
        k = min(k, size.count(1.0) + 1)
        copies = [1 if n == 1.0 else k for n in size]
    twins = [range(end - c, end) for c, end in zip(copies, accumulate(copies))]
    owner = [i for i, ts in enumerate(twins) for _ in ts]
    edges = [(s, t, size[i]) for i, ts in enumerate(twins) for s, t in combinations(ts, 2)]
    edges += [(s, t, w) for (a, b), w in joins.items() for s in twins[a] for t in twins[b]]
    spec = PropertySpec("components") if k == 1 else PropertySpec("vertex_block", k)
    return vorbs, owner, sorted(criticals), [size[i] for i in owner], edges, spec


def _orbit_blocks(gq: GQuiver, cls: EquivariantClass) -> tuple[list[list[str]], list[set[int]]]:
    """Vertex orbits and the orbit index sets of the maximal components of
    the whole quiver: the top level of its weighted orbit graph."""
    vorbs, owner, _, *graph = _orbit_graph(*_records(gq), cls)
    return vorbs, [{owner[t] for t in block} for block, _ in top_components(*graph)]


def is_gq_connected(gq: GQuiver) -> bool:
    """Nonempty, and the group permutes the weak components transitively."""
    return is_equivariantly_connected(gq, EquivariantClass("isomorphisms"))


def is_equivariantly_connected(gq: GQuiver, cls: EquivariantClass) -> bool:
    """Every deletion of fewer than k units leaves a connected G-quiver: the
    whole orbit set is the one maximal component."""
    vorbs, blocks = _orbit_blocks(gq, cls)
    return blocks == [set(range(len(vorbs)))]


def gq_components(gq: GQuiver, cls: EquivariantClass) -> list[GQuiver]:
    """Maximal invariant subquivers that are connected for the deletion class.

    They are induced on sets of vertex orbits: the vertex blocks of the
    (twin-expanded) orbit graph read back by orbit index.  This is exact
    because a deletion budget below k never removes all k twins of an orbit,
    and a twin of a block member sees the member and its k - 1 or more block
    neighbours, so a maximal block holds every twin of an orbit or none.
    """
    vorbs, blocks = _orbit_blocks(gq, cls)
    found = [frozenset().union(*(vorbs[i] for i in block)) for block in blocks]
    return [restrict_gquiver(gq, s) for s in sorted(found, key=lambda s: tuple(sorted(s)))]


def gq_persistence_function(gq: GQuiver, cls: EquivariantClass) -> PersistenceFunction | None:
    """Persistence of the orbit filtration, tabulated on the quiver's own
    critical values; None for the empty quiver."""
    if not gq.quiver.vertices:
        return None
    _, _, criticals, *graph = _orbit_graph(*_records(gq), cls)
    return diagram_table(criticals, index_diagram(*graph))


def gq_persistence(gq: GQuiver, cls: EquivariantClass) -> Diagram:
    """Diagram of the orbit filtration: the graph diagram of its weighted
    orbit graph."""
    return index_diagram(*_orbit_graph(*_records(gq), cls)[3:])


def underlying_weighted_graph(q: Quiver, weight: float = 1.0):
    """Simple graph shadow of a quiver (drop loops, directions, parallels),
    every vertex and edge at the given weight."""
    edges = {}
    for _, src, tgt in q.arrows:
        if src == tgt:
            continue
        key = (src, tgt) if src < tgt else (tgt, src)
        edges[key] = weight
    ends = {x for e in edges for x in e}
    explicit = {v: weight for v in q.vertices if v not in ends}
    return weighted_graph(edges, explicit)


def _read_gquiver(text: str):
    """One pass over the text, each record checked where it stands: the
    sorted vertex names ('v' records and arrow endpoints), the arrows sorted
    by name, and each generator's ``(vmap, amap)``, the action unchecked."""
    vertices: set[str] = set()
    arrows: dict[str, tuple[str, str, str]] = {}
    generators: list[tuple[dict[str, str], dict[str, str]]] = []
    current: tuple[dict[str, str], dict[str, str]] | None = None
    for ln, raw in enumerate(text.splitlines(), 1):
        parts = raw.split() or ["#"]  # a blank line reads as a comment
        record, n = parts[0], len(parts)
        if record == "map" and n == 4:
            _, kind, x, y = parts
            if current is None:
                raise FormatError("map record before any 'g' generator header", ln)
            if kind not in ("v", "a"):
                raise FormatError(f"map kind must be 'v' or 'a', got {kind!r}", ln)
            mapping = current[kind == "a"]
            if x in mapping:
                what = "vertex" if kind == "v" else "arrow"
                raise FormatError(f"{what} {x!r} is mapped twice in one generator", ln)
            mapping[x] = y
        elif record == "a" and n == 4:
            _, name, src, tgt = parts
            if name in arrows:
                raise FormatError(f"duplicate arrow name {name!r}", ln)
            arrows[name] = (name, src, tgt)
            vertices.update((src, tgt))
        elif record == "v" and n == 2:
            vertices.add(parts[1])
        elif record == "g" and n == 1:
            current = ({}, {})
            generators.append(current)
        elif not record.startswith("#"):
            raise FormatError(f"bad quiver record {raw.strip()!r}", ln)
    return sorted(vertices), sorted(arrows.values()), generators


def parse_gquiver(text: str) -> GQuiver:
    """Text format: 'v', 'a' records, then one 'g' block per generator with
    'map v <x> <y>' and 'map a <x> <y>' lines.  Unmapped items are fixed."""
    try:
        return gquiver(*_read_gquiver(text))
    except QuiverError as exc:
        raise FormatError(str(exc)) from exc


def parse_orbit_graph(text: str, cls: EquivariantClass):
    """The text read straight to ``(births, edges, spec)`` of its weighted
    orbit graph for ``index_diagram``, which needs no critical values;
    errors as ``parse_gquiver``."""
    records = _read_gquiver(text)
    _check_action(*records, FormatError)
    return _orbit_graph(*records, cls)[3:]


def serialize_gquiver(gq: GQuiver) -> str:
    lines = [f"v {v}" for v in sorted(gq.quiver.vertices)]
    lines += [f"a {n} {s} {t}" for n, s, t in gq.quiver.arrows]
    for vmap, amap in gq.generator_maps():
        lines.append("g")
        lines += [f"map v {x} {y}" for x, y in sorted(vmap.items())]
        lines += [f"map a {x} {y}" for x, y in sorted(amap.items())]
    return "".join(line + "\n" for line in lines)
