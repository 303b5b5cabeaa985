"""Finite posets, cores, and the poset-side persistence constructions.

Posets store one bitmask per element holding its down-set, so order
queries, maximal elements, and the weak-directedness test are cheap even
for the subobject posets produced by exhaustive enumeration.

A poset filtration is a nested family of posets over critical values:
elements only appear, and relations only grow.  Counting maximal elements
along such a filtration yields a persistence function, and the
special shape used here (one top element absorbing the others at their
death values) realizes any diagram with a single infinite cornerpoint.

``subobject_poset`` orders the property-satisfying subgraphs of a graph by
inclusion; for clique communities it chains the k-cliques of
``cuts.clique_percolation``.  Isomorphism of posets (as of their cores) is
the weighted-graph isomorphism search of ``metrics.indexed_isomorphic_within``
at h = 0 on comparability graphs over element indices, each element born at
the size of its down-set; ``metrics`` gives the argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Hashable, Iterable, Sequence

from .connectivity import PropertySpec, is_property_connected
from .cuts import clique_percolation
from .graphs import CapExceeded, SimpleGraph, WeightedGraph, simple_graph, weighted_graph
from .metrics import indexed_isomorphic_within, optimal_matching
from .persistence import Diagram, PersistenceFunction, diagram_table, elder_rule


class PosetError(ValueError):
    """Invalid poset construction or operation."""


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """Immutable finite poset over hashable elements."""

    __slots__ = ("_elements", "_index", "_below")

    def __init__(self, elements: Iterable[Hashable], relations: Iterable[tuple] = (), *, closed: bool = False):
        els = list(elements)
        index = {e: i for i, e in enumerate(els)}
        if len(index) != len(els):
            raise PosetError("duplicate elements")
        below = [1 << i for i in range(len(els))]
        for a, b in relations:
            if a not in index or b not in index:
                raise PosetError(f"relation ({a!r}, {b!r}) uses unknown elements")
            below[index[b]] |= 1 << index[a]
        if not closed:
            changed = True
            while changed:
                changed = False
                for i in range(len(els)):
                    acc = below[i]
                    for j in _bits(below[i]):
                        acc |= below[j]
                    if acc != below[i]:
                        below[i] = acc
                        changed = True
            for i in range(len(els)):
                for j in _bits(below[i]):
                    if j != i and (below[j] >> i) & 1:
                        raise PosetError(
                            f"antisymmetry violated between {els[i]!r} and {els[j]!r}"
                        )
        self._elements = tuple(els)
        self._index = index
        self._below = below

    @classmethod
    def _from_masks(cls, elements: Sequence[Hashable], below: list[int]) -> "Poset":
        p = cls.__new__(cls)
        p._elements = tuple(elements)
        p._index = {e: i for i, e in enumerate(elements)}
        p._below = list(below)
        return p

    @property
    def elements(self) -> tuple:
        return self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, e) -> bool:
        return e in self._index

    def __repr__(self) -> str:
        return f"Poset({len(self)} elements, {len(self.relation_pairs())} strict pairs)"

    def leq(self, a, b) -> bool:
        return bool((self._below[self._index[b]] >> self._index[a]) & 1)

    def relation_pairs(self) -> list[tuple]:
        """All strict pairs (a, b) with a < b."""
        out = []
        for j, mask in enumerate(self._below):
            for i in _bits(mask):
                if i != j:
                    out.append((self._elements[i], self._elements[j]))
        return out

    def _above_masks(self) -> list[int]:
        above = [0] * len(self._elements)
        for j, mask in enumerate(self._below):
            for i in _bits(mask):
                above[i] |= 1 << j
        return above

    def maximal_elements(self) -> list:
        """Elements with no strictly greater element, in storage order."""
        above = self._above_masks()
        return [e for i, e in enumerate(self._elements) if above[i] == 1 << i]

    def restrict(self, keep: Iterable) -> "Poset":
        """Induced sub-poset on a subset of elements."""
        keep_set = set(keep)
        els = [e for e in self._elements if e in keep_set]
        old = [self._index[e] for e in els]
        remap = {o: n for n, o in enumerate(old)}
        below = []
        for o in old:
            mask = 0
            for i in _bits(self._below[o]):
                if i in remap:
                    mask |= 1 << remap[i]
            below.append(mask)
        return Poset._from_masks(els, below)

    def covers(self) -> list[tuple]:
        """Transitive reduction: pairs (a, b) with b covering a."""
        out = []
        for j, mask in enumerate(self._below):
            for i in _bits(mask):
                if i == j:
                    continue
                between = False
                for z in _bits(mask):
                    if z != i and z != j and (self._below[z] >> i) & 1:
                        between = True
                        break
                if not between:
                    out.append((self._elements[i], self._elements[j]))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return set(self._elements) == set(other._elements) and set(self.relation_pairs()) == set(
            other.relation_pairs()
        )

    def __hash__(self) -> int:
        return hash((frozenset(self._elements), frozenset(self.relation_pairs())))


def free_poset(items: Iterable[Hashable]) -> Poset:
    """The antichain (S, =)."""
    return Poset(items)


def maximal_elements(p: Poset) -> list:
    return p.maximal_elements()


def is_weakly_directed(p: Poset) -> bool:
    """True iff every pair with a common lower bound has a common upper bound."""
    below = p._below
    above = p._above_masks()
    n = len(below)
    for i in range(n):
        for j in range(i + 1, n):
            if below[i] & below[j] and not (above[i] & above[j]):
                return False
    return True


def _beat_point(p: Poset, i: int, above: list[int]) -> bool:
    """Upbeat: strict up-set has a minimum.  Downbeat: strict down-set has a maximum."""
    up = above[i] ^ (1 << i)
    if up:
        for m in _bits(up):
            if up & ~above[m] == 0:
                return True
    down = p._below[i] ^ (1 << i)
    if down:
        for m in _bits(down):
            if down & ~p._below[m] == 0:
                return True
    return False


def core(p: Poset, *, reverse: bool = False) -> Poset:
    """Iterated beat-point deletion until no upbeat or downbeat element remains.

    ``reverse`` flips the scan order, giving an independent deletion order;
    the resulting cores are always isomorphic.
    """
    q = p
    while True:
        above = q._above_masks()
        order = range(len(q.elements) - 1, -1, -1) if reverse else range(len(q.elements))
        victim = None
        for i in order:
            if _beat_point(q, i, above):
                victim = q.elements[i]
                break
        if victim is None:
            return q
        q = q.restrict([e for e in q.elements if e != victim])


def poset_isomorphic(p: Poset, q: Poset) -> bool:
    """Order isomorphism, as isomorphism at h = 0 of the comparability graphs."""
    return indexed_isomorphic_within(_comparability_graph(p), _comparability_graph(q), 0.0)


def _comparability_graph(p: Poset) -> tuple[list[float], list[tuple[int, int, float]]]:
    """Comparable pairs of elements as edges on element indices, each
    element born at the size of its down-set and every edge at the element
    count.  Of two comparable elements the lower has the strictly smaller
    down-set, so a weight-preserving isomorphism is exactly an order
    isomorphism."""
    n = float(len(p))
    edges = [(i, j, n) for j, mask in enumerate(p._below) for i in _bits(mask) if i != j]
    return [float(mask.bit_count()) for mask in p._below], edges


# Clique subobject posets are enumerated whole and compared pairwise, so the
# work grows with the square of their size: K5 at clique:2 has 968 states and
# its poset and weak-directedness test take 0.4 s, K6 minus an edge at
# clique:3 has 1,933 and takes 1.6 s, K6 at clique:3 has 5,549 and takes
# 16 s, and K6 at clique:2 does not finish.  Past this many states the
# enumeration stops with CapExceeded.
STATE_CAP = 2000


def _clique_state_graphs(g: SimpleGraph, k: int) -> list[SimpleGraph]:
    """All subgraphs that are unions of chains of adjacent k-cliques; raises
    CapExceeded past ``STATE_CAP`` of them."""
    cliques, _, _ = clique_percolation([(u, v, 0.0) for u, v in sorted(g.edges)], k)
    clique_graphs = [simple_graph(c, combinations(c, 2)) for c in sorted(cliques)]
    adjacent: list[list[int]] = [[] for _ in clique_graphs]
    for i, j in combinations(range(len(clique_graphs)), 2):
        if len(clique_graphs[i].vertices & clique_graphs[j].vertices) == k - 1:
            adjacent[i].append(j)
            adjacent[j].append(i)
    states = dict.fromkeys(clique_graphs)
    frontier = list(states)
    while frontier:
        u = frontier.pop()
        # with k >= 2 a clique's edges cover its vertices
        for i in [i for i, cg in enumerate(clique_graphs) if cg.edges <= u.edges]:
            for j in adjacent[i]:
                nxt = u.union(clique_graphs[j])
                if nxt not in states:
                    if len(states) >= STATE_CAP:
                        raise CapExceeded(f"clique subobject poset limited to {STATE_CAP} elements")
                    states[nxt] = None
                    frontier.append(nxt)
    return sorted(states, key=lambda s: (len(s.vertices), len(s.edges), s.sorted_vertices()))


def subobject_poset(g: SimpleGraph, spec: PropertySpec, size_cap: int = 7) -> Poset:
    """Poset of all property-satisfying subgraphs of g, ordered by inclusion.

    Exhaustive enumeration, guarded by a vertex cap.  Induced subgraphs
    suffice for components and blocks (maximal elements agree); clique
    communities need genuine unions of cliques.
    """
    if len(g.vertices) > size_cap:
        raise CapExceeded(
            f"subobject poset limited to {size_cap} vertices, got {len(g.vertices)}"
        )
    elements: list[SimpleGraph]
    if spec.kind == "clique":
        elements = _clique_state_graphs(g, spec.k)
    else:
        vs = g.sorted_vertices()
        elements = []
        for r in range(1, len(vs) + 1):
            for subset in combinations(vs, r):
                h = g.induced(subset)
                if is_property_connected(h, spec):
                    elements.append(h)
    below = []
    for a in elements:
        mask = 0
        for i, b in enumerate(elements):
            if a.includes(b):
                mask |= 1 << i
        below.append(mask)
    return Poset._from_masks(elements, below)


def t_n(p: Poset, n: int) -> SimpleGraph:
    """Comparability blow-up: vertices are element copies 'e@i' for i < n,
    with an edge whenever the underlying elements are comparable (or equal)."""
    return t_n_filtration(PosetFiltration((0.0,), (p,)), n).graph


def parse_poset(text: str) -> Poset:
    """Text format: 'el <name>' lines then 'le <a> <b>' covering relations."""
    elements: list[str] = []
    relations: list[tuple[str, str]] = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "el" and len(parts) == 2:
            elements.append(parts[1])
        elif parts[0] == "le" and len(parts) == 3:
            relations.append((parts[1], parts[2]))
        else:
            raise PosetError(f"line {ln}: bad poset record {line!r}")
    return Poset(elements, relations)


def serialize_poset(p: Poset) -> str:
    lines = [f"el {e}" for e in sorted(str(e) for e in p.elements)]
    lines += [f"le {a} {b}" for a, b in sorted((str(a), str(b)) for a, b in p.covers())]
    return "".join(line + "\n" for line in lines)


@dataclass(frozen=True)
class PosetFiltration:
    """Nested posets over critical values; elements appear, relations grow."""

    criticals: tuple[float, ...]
    levels: tuple[Poset, ...]

    def __post_init__(self):
        if len(self.criticals) != len(self.levels):
            raise PosetError("criticals and levels must align")
        if any(b <= a for a, b in zip(self.criticals, self.criticals[1:])):
            raise PosetError("criticals must be strictly increasing")
        for small, big in zip(self.levels, self.levels[1:]):
            if not set(small.elements) <= set(big.elements):
                raise PosetError("levels must be nested")
            for a, b in small.relation_pairs():
                if not big.leq(a, b):
                    raise PosetError("relations may only grow along the filtration")

    def top(self) -> Poset:
        return self.levels[-1]


def poset_persistence(pf: PosetFiltration) -> PersistenceFunction:
    """Count images of maximal elements between levels: the table of the
    elder rule on a merge forest of elements.

    The components of a level are its maximal elements, and containment
    at level j is level j's order.  Every element that is maximal at some
    level must lie below exactly one maximal element t of each later level;
    a failure means the level is not weakly directed and raises PosetError.
    As relations only grow, an element that stops being maximal never is
    again.  So each element is a node born at the first level where it is
    maximal, and at level j it merges into its t, when t is another element.
    """
    if not pf.criticals:
        raise PosetError("empty poset filtration")
    node: dict = {}  # once-maximal element -> its index in births
    births: list[float] = []
    merges: list[tuple[int, int, float]] = []
    for c, level in zip(pf.criticals, pf.levels):
        maximals = level.maximal_elements()
        for e in maximals:
            if e not in node:
                node[e] = len(births)
                births.append(c)
        for d in node:
            ups = [t for t in maximals if level.leq(d, t)]
            if len(ups) != 1:
                raise PosetError(
                    f"maximal element {d!r} has {len(ups)} maximal successors at "
                    f"level {c!r}; the level is not weakly directed"
                )
            if ups[0] != d:
                merges.append((node[d], node[ups[0]], c))
    return diagram_table(pf.criticals, elder_rule(births, merges))


def _single_infinite_birth(d: Diagram) -> float:
    infs = d.infinite_points()
    if len(infs) != 1 or infs[0].multiplicity != 1:
        raise PosetError("the construction needs exactly one cornerpoint at infinity")
    return infs[0].birth


def _halfline_filtration(coords: list[tuple[float, float]]) -> PosetFiltration:
    """Filtration with elements p0..pm; pi < p0 once the level reaches pi's death."""
    x0 = coords[0][0]
    names = [f"p{i}" for i in range(len(coords))]
    values = {x for x, _ in coords} | {y for _, y in coords if math.isfinite(y)}
    criticals = tuple(sorted(values))
    levels = []
    for c in criticals:
        present = [names[i] for i, (x, _) in enumerate(coords) if x <= c]
        relations = [
            (names[i], names[0])
            for i, (x, y) in enumerate(coords)
            if i > 0 and x <= c and y <= c and x0 <= c
        ]
        levels.append(Poset(present, relations, closed=True))
    return PosetFiltration(criticals, tuple(levels))


def build_universal_pair(d1: Diagram, d2: Diagram) -> tuple[PosetFiltration, PosetFiltration]:
    """Poset filtrations H, H' realizing d1, d2 with pseudodistance equal to
    their bottleneck distance.

    Both diagrams need exactly one cornerpoint at infinity.  Elements are the
    matched cornerpoints, padded with diagonal points where the optimal
    matching uses the diagonal; element 'pi' of H corresponds to 'pi' of H'.
    Every element must be born no earlier than its side's infinite
    cornerpoint, otherwise the construction cannot reproduce the diagrams
    and a PosetError is raised.
    """
    x0 = _single_infinite_birth(d1)
    x0p = _single_infinite_birth(d2)
    dist, pairs = optimal_matching(d1, d2)
    if math.isinf(dist):
        raise PosetError("no admissible matching between the diagrams")
    coords1: list[tuple[float, float]] = [(x0, math.inf)]
    coords2: list[tuple[float, float]] = [(x0p, math.inf)]
    for p, q in pairs:
        if p is not None and math.isinf(p[1]):
            continue
        if p is None:
            mid = q[0] / 2.0 + q[1] / 2.0  # halved first: the sum may overflow
            p = (mid, mid)
        if q is None:
            mid = p[0] / 2.0 + p[1] / 2.0  # halved first: the sum may overflow
            q = (mid, mid)
        coords1.append(p)
        coords2.append(q)
    for coords, x in ((coords1, x0), (coords2, x0p)):
        bad = [c for c in coords if c[0] < x]
        if bad:
            raise PosetError(
                "diagram is not realizable by a single half-line filtration: "
                f"element born at {bad[0][0]!r} precedes the half-line birth {x!r}"
            )
    return _halfline_filtration(coords1), _halfline_filtration(coords2)


def t_n_filtration(pf: PosetFiltration, n: int) -> WeightedGraph:
    """Weighted graph whose sublevel filtration is the comparability blow-up
    of the poset filtration: vertices enter at their element's birth, edges
    when both endpoints exist and the elements have become comparable."""
    if n < 1:
        raise PosetError("t_n needs n >= 1")
    top = pf.top()
    labels = [str(e) for e in top.elements]
    if len(set(labels)) != len(labels):
        raise PosetError("element labels must stringify uniquely")
    birth: dict = {}
    for c, lvl in zip(pf.criticals, pf.levels):
        for e in lvl.elements:
            if e not in birth:
                birth[e] = c
    comparable_at: dict[tuple, float] = {}
    els = top.elements
    for ai, a in enumerate(els):
        for b in els[ai:]:
            if a == b:
                comparable_at[(a, b)] = birth[a]
                continue
            for c, lvl in zip(pf.criticals, pf.levels):
                if a in lvl and b in lvl and (lvl.leq(a, b) or lvl.leq(b, a)):
                    comparable_at[(a, b)] = c
                    break
    edges: dict[tuple[str, str], float] = {}
    explicit: dict[str, float] = {}
    for ai, a in enumerate(els):
        for i in range(n):
            explicit[f"{labels[ai]}@{i}"] = birth[a]
    for ai, a in enumerate(els):
        for bi in range(ai, len(els)):
            b = els[bi]
            when = comparable_at.get((a, b))
            if when is None:
                continue
            for i in range(n):
                for j in range(n):
                    if ai == bi and j <= i:
                        continue
                    u, v = f"{labels[ai]}@{i}", f"{labels[bi]}@{j}"
                    edges[(u, v)] = when
    return weighted_graph(edges, explicit)
