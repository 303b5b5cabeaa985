"""Weighted simple graphs and their sublevel filtrations.

Vertices are arbitrary strings.  Edges are unordered pairs of distinct
vertices, stored sorted.  A weighted graph assigns a finite real weight to
every edge; each vertex weight defaults to the minimum weight over its
incident edges and may be lowered (never raised) by an explicit value.
Isolated vertices must carry an explicit weight.

The text format is line oriented::

    # comment (blank lines are ignored too)
    e <u> <v> <weight>
    v <u> <weight>

One reader, ``read_graph_records``, checks each record in one pass and
gives the vertex names with the indexed form ``(births, edges)``; the
``components`` command reads both.  ``parse_indexed_graph`` keeps the
indexed form, which ``persistence.index_diagram`` sweeps directly with no
list of critical values and ``metrics.indexed_pseudodistance`` searches as
is; ``parse_weighted_graph`` builds the WeightedGraph, for commands that
tabulate every critical value.  ``indexed_graph`` gives a WeightedGraph's
indexed form.

Serialization is canonical: explicit vertex lines sorted by vertex id,
then edge lines sorted by endpoint pair.  Weights are rendered with the
shortest representation that round-trips exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping


class GraphError(ValueError):
    """Invalid graph construction or query."""


class FormatError(GraphError):
    """Malformed text input; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class CapExceeded(GraphError):
    """A brute-force size guard was exceeded."""


def edge_key(u: str, v: str) -> tuple[str, str]:
    """Normalize an unordered edge to a sorted pair; rejects self-loops."""
    if u == v:
        raise GraphError(f"self-loop at {u!r}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SimpleGraph:
    """Finite simple graph: no loops, no parallel edges."""

    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise GraphError(f"self-loop at {u!r}")
            if v < u:
                raise GraphError(f"edge ({u!r}, {v!r}) is not normalized")
            if u not in self.vertices or v not in self.vertices:
                raise GraphError(f"edge ({u!r}, {v!r}) has a missing endpoint")

    def sorted_vertices(self) -> list[str]:
        return sorted(self.vertices)

    def adjacency(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def induced(self, vs: Iterable[str]) -> "SimpleGraph":
        keep = frozenset(vs)
        if not keep <= self.vertices:
            raise GraphError("induced subgraph on vertices outside the graph")
        return SimpleGraph(keep, frozenset(e for e in self.edges if e[0] in keep and e[1] in keep))

    def union(self, other: "SimpleGraph") -> "SimpleGraph":
        return SimpleGraph(self.vertices | other.vertices, self.edges | other.edges)

    def includes(self, other: "SimpleGraph") -> bool:
        return other.vertices <= self.vertices and other.edges <= self.edges


def simple_graph(vertices: Iterable[str] = (), edges: Iterable[tuple[str, str]] = ()) -> SimpleGraph:
    """Build a SimpleGraph from loose vertex/edge iterables, normalizing edges."""
    vs = set(vertices)
    es = set()
    for u, v in edges:
        e = edge_key(u, v)
        es.add(e)
        vs.add(u)
        vs.add(v)
    return SimpleGraph(frozenset(vs), frozenset(es))


@dataclass(frozen=True)
class WeightedGraph:
    """Simple graph with edge weights, derived/explicit vertex weights.

    ``vertex_weights`` is the full map (explicit value where present,
    otherwise the minimum incident edge weight).  ``explicit`` records
    which vertices carry an explicit value; it drives serialization and
    perturbation.  Instances are immutable by convention.
    """

    graph: SimpleGraph
    edge_weights: dict[tuple[str, str], float]
    vertex_weights: dict[str, float]
    explicit: frozenset[str]


def weighted_graph(
    edge_weights: Mapping[tuple[str, str], float] | Iterable[tuple[tuple[str, str], float]] = (),
    vertex_weights: Mapping[str, float] | Iterable[tuple[str, float]] = (),
    vertices: Iterable[str] = (),
) -> WeightedGraph:
    """Assemble a WeightedGraph, deriving vertex weights and validating invariants.

    ``vertices`` may add extra vertex names; any of them without an incident
    edge must appear in ``vertex_weights``.  Errors come in input order: each
    edge, each explicit weight, each explicit weight against its incident
    minimum, then each extra vertex for a weight.
    """
    ew: dict[tuple[str, str], float] = {}
    vw: dict[str, float] = {}
    items = edge_weights.items() if isinstance(edge_weights, Mapping) else edge_weights
    for (u, v), w in items:
        e = edge_key(u, v)
        w = float(w)
        if not math.isfinite(w):
            raise GraphError(f"edge {e} has non-finite weight {w!r}")
        if e in ew:
            raise GraphError(f"duplicate edge {e}")
        ew[e] = w = w + 0.0  # -0.0 becomes 0.0, so equal graphs print alike
        for x in e:
            if w < vw.get(x, math.inf):
                vw[x] = w
    explicit_items = vertex_weights.items() if isinstance(vertex_weights, Mapping) else vertex_weights
    explicit: dict[str, float] = {}
    for v, w in explicit_items:
        w = float(w)
        if not math.isfinite(w):
            raise GraphError(f"vertex {v!r} has non-finite weight {w!r}")
        if v in explicit:
            raise GraphError(f"duplicate vertex weight for {v!r}")
        explicit[v] = w + 0.0
    for v, w in explicit.items():
        derived = vw.get(v)
        if derived is not None and w > derived:
            raise GraphError(f"explicit weight {w!r} of vertex {v!r} exceeds the incident minimum {derived!r}")
        vw[v] = w
    for v in vertices:
        if v not in vw:
            raise GraphError(f"isolated vertex {v!r} needs an explicit weight")
    return _assemble(ew, vw, explicit)


def _assemble(ew: dict[tuple[str, str], float], vw: dict[str, float], explicit: Iterable[str]) -> WeightedGraph:
    """The WeightedGraph of checked edge and vertex weights.  Every edge is
    normalized and its endpoints are keys of ``vw``, so the SimpleGraph
    invariants hold without checking each edge again."""
    g = object.__new__(SimpleGraph)
    object.__setattr__(g, "vertices", frozenset(vw))
    object.__setattr__(g, "edges", frozenset(ew))
    return WeightedGraph(g, ew, vw, frozenset(explicit))


def indexed_graph(wg: WeightedGraph) -> tuple[list[float], list[tuple[int, int, float]]]:
    """A weighted graph on vertex indices, in the order of its vertex
    weights: the vertex births and the (u, v, w) edges."""
    index = {v: i for i, v in enumerate(wg.vertex_weights)}
    edges = [(index[u], index[v], w) for (u, v), w in wg.edge_weights.items()]
    return list(wg.vertex_weights.values()), edges


def critical_values(wg: WeightedGraph) -> list[float]:
    """Distinct weight values, sorted ascending; sublevels only change here."""
    return sorted(set(wg.edge_weights.values()) | set(wg.vertex_weights.values()))


@dataclass(frozen=True)
class Filtration:
    """Sublevel filtration of a weighted graph, tabulated on critical values."""

    source: WeightedGraph
    criticals: tuple[float, ...]

    def sublevel(self, x: float) -> SimpleGraph:
        vw = self.source.vertex_weights
        ew = self.source.edge_weights
        vs = frozenset(v for v, w in vw.items() if w <= x)
        es = frozenset(e for e, w in ew.items() if w <= x)
        return SimpleGraph(vs, es)

    def sublevel_at(self, i: int) -> SimpleGraph:
        return self.sublevel(self.criticals[i])

    def limit(self) -> SimpleGraph:
        """The stable final graph: every vertex and edge present."""
        return self.source.graph


def build_filtration(wg: WeightedGraph) -> Filtration:
    return Filtration(wg, tuple(critical_values(wg)))


def format_weight(x: float) -> str:
    """Shortest decimal string that parses back to exactly ``x``; -0.0
    prints as 0, as every reader reads it, so equal values print alike."""
    s = repr(float(x) + 0.0)
    return s[:-2] if s.endswith(".0") else s


def read_graph_records(text: str):
    """One pass over the graph text, checking each record where it stands.

    Returns ``(index, births, edges, explicit)``: vertex name -> index, in
    first-seen order of each normalized edge's endpoints, then the vertices
    with only a ``v`` record; each vertex's incident minimum, lowered by its
    explicit weight; the ``(u, v, w)`` edges on indices, normalized, in file
    order; and name -> (weight, line) of the ``v`` records.  Weights get
    ``+ 0.0``, so -0.0 reads as 0.0.  The per-line checks come in file
    order, then each explicit weight against its incident minimum.
    """
    index: dict[str, int] = {}
    births: list[float] = []
    edges: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    explicit: dict[str, tuple[float, int]] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if len(parts) == 4 and parts[0] == "e":
            _, u, v, ws = parts
        elif not parts or parts[0].startswith("#"):
            continue
        elif parts[0] == "e":
            raise FormatError("edge record must be 'e <u> <v> <weight>'", ln)
        elif parts[0] != "v":
            raise FormatError(f"unknown record type {parts[0]!r}", ln)
        elif len(parts) != 3:
            raise FormatError("vertex record must be 'v <u> <weight>'", ln)
        else:
            _, u, ws = parts
            v = None
        try:
            w = float(ws) + 0.0
        except ValueError:
            raise FormatError(f"bad weight {ws!r}", ln) from None
        if not math.isfinite(w):
            raise FormatError(f"non-finite weight {ws!r}", ln)
        if v is None:
            if u in explicit:
                raise FormatError(f"duplicate vertex weight for {u!r}", ln)
            explicit[u] = (w, ln)
            continue
        if u == v:
            raise FormatError(f"self-loop at {u!r}", ln)
        if v < u:
            u, v = v, u
        a = index.get(u)
        if a is None:
            a = index[u] = len(births)
            births.append(w)
        elif w < births[a]:
            births[a] = w
        b = index.get(v)
        if b is None:
            b = index[v] = len(births)
            births.append(w)
        elif w < births[b]:
            births[b] = w
        key = a, b
        if key in seen:
            raise FormatError(f"duplicate edge {u} {v}", ln)
        seen.add(key)
        edges.append((a, b, w))
    for u, (w, ln) in explicit.items():
        a = index.get(u)
        if a is None:
            index[u] = len(births)
            births.append(w)
        elif w > births[a]:
            raise FormatError(f"explicit weight {w!r} of vertex {u!r} exceeds the incident minimum {births[a]!r}", ln)
        else:
            births[a] = w
    return index, births, edges, explicit


def parse_indexed_graph(text: str) -> tuple[list[float], list[tuple[int, int, float]]]:
    """Parse the edge-list format to ``(births, edges)``: the vertex weights
    and the ``(u, v, w)`` edges on vertex indices.  Raises FormatError with
    line numbers."""
    _, births, edges, _ = read_graph_records(text)
    return births, edges


def parse_weighted_graph(text: str) -> WeightedGraph:
    """Parse the edge-list format into a WeightedGraph; raises FormatError
    with line numbers.  The records are those of ``parse_indexed_graph``."""
    index, births, edges, explicit = read_graph_records(text)
    names = list(index)
    ew = {(names[a], names[b]): w for a, b, w in edges}
    return _assemble(ew, dict(zip(names, births)), explicit)


def serialize_weighted_graph(wg: WeightedGraph) -> str:
    """Canonical text form; parse(serialize(wg)) == wg."""
    lines = [f"v {v} {format_weight(wg.vertex_weights[v])}" for v in sorted(wg.explicit)]
    lines += [f"e {u} {v} {format_weight(w)}" for (u, v), w in sorted(wg.edge_weights.items())]
    return "".join(line + "\n" for line in lines)
