"""Persistence functions of component filtrations and their diagrams.

The value p(c_i, c_j) is the number of maximal components of the level at
c_j that contain some maximal component of the level at c_i.  By the union
property each maximal component of one level lies in exactly one maximal
component of the next, so the components of all levels form a forest.

Diagrams come from one elder-rule sweep over such a forest: a union-find
whose root is the eldest node of its class, where a union at value
w ends the younger class's bar (birth, w) and every class left at the end
gives (birth, inf).  One engine feeds it from a filtered graph on integer
vertices, ``index_diagram``: the CLI calls it on the indexed form, vertex
births and weighted edges with no list of critical values, that
``graphs.parse_indexed_graph`` reads straight from the text, and
``graph_diagram`` (on a Filtration) and ``quivers.gq_persistence`` (on the
weighted orbit graph of a G-quiver) call it too.  It sweeps the merge
forest that ``connectivity.merge_forest`` picks for each property: the
vertices, the edges or the k-cliques (sequential clique percolation,
Kumpula et al. 2008), merged in weight order.  Blocks at k >= 3 merge
level by level (``connectivity.edge_block_merges`` and
``vertex_block_merges``): a block that absorbs others at c_j ends all of
them but the eldest there, exactly as in the successor forest of the
per-level blocks.  Like every other sweep they walk the weight-sorted
edges, so each distinct edge weight is one of their levels, and no other
value needs one: where no edge enters, no block grows or merges.  Poset
filtrations feed the same sweep (``posets.poset_persistence``): each
element is a node born at the first level where it is maximal, and it
merges into the one maximal element above it wherever that is another.
No path lists the sets of each level.

Births and deaths are always critical values of the filtration.

A class of the level at c_j holds one of the level at c_i exactly when
its eldest node is born by c_i, so p(c_i, c_j) counts the diagram's points
born by c_i that die after c_j: ``diagram_table`` counts every table,
``verify``'s, the quivers' and the posets' included, off its diagram.
Values are tabulated on critical values only, because between
consecutive criticals the filtration is constant, and the value at
(u, infinity) equals the value at (u, last critical) because filtrations
stabilize.  The grid holds about m^2/2 values, so ``persistence_function``
refuses a filtration with more than ``GRID_CAP`` critical values with
CapExceeded.
``extract_diagram`` reads the cornerpoints back by inclusion-exclusion: the
multiplicity of a proper cornerpoint (c_i, c_j) is

    p(c_i, c_{j-1}) - p(c_{i-1}, c_{j-1}) - p(c_i, c_j) + p(c_{i-1}, c_j)

with a zero row before the first critical value, and the multiplicity at
infinity for birth c_i is p(c_i, inf) - p(c_{i-1}, inf).  Every tabulated
function is reconstructed exactly from its diagram at off-critical points.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from .connectivity import merge_forest
from .graphs import CapExceeded, Filtration, FormatError, format_weight, indexed_graph


# Most critical values ``persistence_function`` tabulates.  Verify grows as
# m^2: at m = 2,000 on a 2-core Xeon (n = 1,000, 2n edges, distinct weights)
# it takes 0.8-0.9 s of CPU for components, clique:3 and blocks at k = 2,
# 2.0-2.3 s for blocks at k = 3, and 51-152 MiB.
GRID_CAP = 2000


class PersistenceAxiomError(ValueError):
    """A tabulated function violates the persistence axioms (provider bug)."""


@dataclass(frozen=True)
class Cornerpoint:
    """Birth-death pair with positive integer multiplicity; death may be inf."""

    birth: float
    death: float
    multiplicity: int = 1

    def __post_init__(self):
        if not math.isfinite(self.birth):
            raise ValueError(f"cornerpoint birth must be finite, got {self.birth!r}")
        if not self.birth < self.death:
            raise ValueError(f"cornerpoint needs birth < death, got ({self.birth!r}, {self.death!r})")
        if not isinstance(self.multiplicity, int) or isinstance(self.multiplicity, bool) or self.multiplicity < 1:
            raise ValueError(f"multiplicity must be a positive integer, got {self.multiplicity!r}")

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.death)


@dataclass(frozen=True)
class Diagram:
    """Finite multiset of cornerpoints, one entry per (birth, death) pair."""

    points: tuple[Cornerpoint, ...]

    def finite_points(self) -> list[Cornerpoint]:
        return [p for p in self.points if not p.is_infinite]

    def infinite_points(self) -> list[Cornerpoint]:
        return [p for p in self.points if p.is_infinite]

    def __iter__(self):
        return iter(self.points)


def diagram(points: Iterable[Cornerpoint]) -> Diagram:
    """Canonical diagram: multiplicities aggregated, sorted by (birth, death)."""
    acc: dict[tuple[float, float], int] = {}
    for p in points:
        key = (p.birth, p.death)
        acc[key] = acc.get(key, 0) + p.multiplicity
    pts = tuple(Cornerpoint(b, d, m) for (b, d), m in sorted(acc.items()))
    return Diagram(pts)


@dataclass(frozen=True)
class PersistenceFunction:
    """Integer persistence values tabulated on the critical grid.

    ``rows[i][j - i]`` holds p(c_i, c_j) for i <= j; ``inf_column[i]``
    holds p(c_i, inf).
    """

    criticals: tuple[float, ...]
    rows: tuple[tuple[int, ...], ...]
    inf_column: tuple[int, ...]

    @property
    def grid_size(self) -> int:
        return len(self.criticals)

    def value(self, i: int, j: int) -> int:
        """p(c_i, c_j) for grid indices i <= j; i == -1 means below the grid."""
        if i < 0 or j < 0:
            return 0
        return self.rows[i][j - i]

    def at(self, beta: float, gamma: float) -> int:
        """p(beta, gamma) for real arguments, beta <= gamma; constant between criticals."""
        if beta > gamma:
            raise ValueError("persistence queries need beta <= gamma")
        i = bisect_right(self.criticals, beta) - 1
        if i < 0:
            return 0
        j = bisect_right(self.criticals, gamma) - 1
        return self.value(i, j)


def persistence_function(filt: Filtration, spec) -> PersistenceFunction:
    """Tabulate the persistence function of a graph filtration under a
    property: the table of its diagram (``index_diagram``); CapExceeded,
    before the graph is swept, past GRID_CAP critical values."""
    if len(filt.criticals) > GRID_CAP:
        raise CapExceeded(f"persistence grid limited to {GRID_CAP} critical values, got {len(filt.criticals)}")
    return diagram_table(filt.criticals, index_diagram(*indexed_graph(filt.source), spec))


def elder_rule(births: Sequence[float], merges: Iterable[tuple[int, int, float]]) -> Diagram:
    """Diagram of a merge forest by the elder rule.

    Node i is born at ``births[i]``.  Each merge (a, b, w) joins the classes
    of a and b at value w; merges come in nondecreasing order of w, each at
    or after the births of its two nodes.  When two classes meet, the one
    with the later earliest birth ends: its bar (birth, w) is kept when
    birth < w.  Every class left at the end gives (birth, inf).  The root
    of each class is its eldest node: the younger root hangs under the
    elder, and finds halve their paths (Tarjan and van Leeuwen, JACM 1984).
    """
    parent = list(range(len(births)))
    bars: dict[tuple[float, float], int] = {}
    for a, b, w in merges:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            continue
        if births[a] > births[b]:
            a, b = b, a
        if births[b] < w:
            bar = (births[b], w)
            bars[bar] = bars.get(bar, 0) + 1
        parent[b] = a
    for a, p in enumerate(parent):
        if a == p:
            bar = (births[a], math.inf)
            bars[bar] = bars.get(bar, 0) + 1
    return Diagram(tuple(Cornerpoint(b, d, n) for (b, d), n in sorted(bars.items())))


def index_diagram(births: Sequence[float], edges, spec) -> Diagram:
    """Persistence diagram of a filtered graph on vertices 0..n-1, by one
    elder-rule sweep of ``connectivity.merge_forest`` for ``spec`` (see the
    module docstring).

    Vertex i is born at ``births[i]``; each (u, v, w) edge enters at w, no
    earlier than its ends.  Every forest merges at the edge weights, so a
    critical value that only a vertex reaches ends no bar: blocks at k >= 3
    change only where an edge enters (the locality lemma in the
    ``connectivity`` docstring).
    """
    return elder_rule(*merge_forest(births, edges, spec)[:2])


def graph_diagram(filt: Filtration, spec) -> Diagram:
    """Persistence diagram of a graph filtration under a property: the
    weighted graph on vertex indices, swept by ``index_diagram``."""
    return index_diagram(*indexed_graph(filt.source), spec)


def check_axioms(pf: PersistenceFunction) -> str | None:
    """First violated persistence axiom as a message, or None if all hold.

    Checks nonnegativity, monotonicity in each argument, and the jump
    superadditivity p(u2,v1) - p(u1,v1) >= p(u2,v2) - p(u1,v2) over the
    grid including the infinity column.  The superadditivity direction is
    the one that makes every cornerpoint multiplicity nonnegative.  Each
    axiom is checked on adjacent cells only; the checks on all quadruples
    follow by telescoping sums of adjacent ones.
    """
    m = pf.grid_size
    # cols[i][j - i] = p(c_i, c_j) for i <= j <= m; column m is infinity
    cols = [row + (inf,) for row, inf in zip(pf.rows, pf.inf_column)]

    def label(j: int) -> str:
        return "inf" if j == m else format_weight(pf.criticals[j])

    def at(i: int, j: int) -> str:
        return f"p({format_weight(pf.criticals[i])}, {label(j)})"

    for i, col in enumerate(cols):
        for k, a in enumerate(col):
            if a < 0:
                return f"negative value {at(i, i + k)}"
    for i, col in enumerate(cols):
        # nxt[k - 1] = p(c_{i+1}, c_{i+k}); the last row has none
        nxt = cols[i + 1] if i + 1 < m else ()
        for k, a in enumerate(col):
            j = i + k
            if j < m and col[k + 1] > a:
                return (
                    "non-increasing in the second argument violated: "
                    f"{at(i, j + 1)} = {col[k + 1]} > {at(i, j)} = {a}"
                )
            if k == 0 or not nxt:
                continue
            b = nxt[k - 1]
            if a > b:
                return (
                    "non-decreasing in the first argument violated: "
                    f"{at(i, j)} = {a} > {at(i + 1, j)} = {b}"
                )
            if j < m:
                c, d = col[k + 1], nxt[k]
                if b - a < d - c:
                    return (
                        "jump superadditivity violated at "
                        f"u1={format_weight(pf.criticals[i])}, u2={format_weight(pf.criticals[i + 1])}, "
                        f"v1={label(j)}, v2={label(j + 1)}: {b}-{a} < {d}-{c}"
                    )
    return None


def extract_diagram(pf: PersistenceFunction) -> Diagram:
    """Cornerpoints with their multiplicities from the tabulated grid."""
    m = pf.grid_size
    pts: list[Cornerpoint] = []
    # prev[k] = p(c_{i-1}, c_{i-1+k}), and prev_inf = p(c_{i-1}, inf); a zero
    # row lies below the grid
    prev, prev_inf = (0,) * (m + 1), 0
    for i, (row, inf) in enumerate(zip(pf.rows, pf.inf_column)):
        for k in range(1, m - i):
            mu = row[k - 1] - prev[k] - row[k] + prev[k + 1]
            if mu < 0:
                raise PersistenceAxiomError(
                    f"negative multiplicity {mu} at ({pf.criticals[i]!r}, {pf.criticals[i + k]!r})"
                )
            if mu > 0:
                pts.append(Cornerpoint(pf.criticals[i], pf.criticals[i + k], mu))
        mu_inf = inf - prev_inf
        if mu_inf < 0:
            raise PersistenceAxiomError(
                f"negative multiplicity {mu_inf} at ({pf.criticals[i]!r}, inf)"
            )
        if mu_inf > 0:
            pts.append(Cornerpoint(pf.criticals[i], math.inf, mu_inf))
        prev, prev_inf = row, inf
    return diagram(pts)


def diagram_table(criticals: Sequence[float], d: Diagram) -> PersistenceFunction:
    """The function ``d`` gives on the grid: p(c_i, c_j) is the multiplicity
    of the points born at or before c_i that die after c_j.  Cells are
    decided by grid index, never by evaluating between floats, and running
    counts per row make the table O(m^2 + |d|)."""
    m = len(criticals)
    deaths_by_birth: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for p in d.points:
        b = bisect_left(criticals, p.birth)
        if b < m:
            deaths_by_birth[b].append((bisect_left(criticals, p.death), p.multiplicity))
    # alive[k]: multiplicity born at or before c_i whose death index is k (m: none)
    alive = [0] * (m + 1)
    rows = []
    for i in range(m):
        for k, mult in deaths_by_birth[i]:
            alive[k] += mult
        row = [0] * (m - i)
        count = alive[m]
        for j in range(m - 1, i - 1, -1):
            row[j - i] = count
            count += alive[j]
        rows.append(tuple(row))
    return PersistenceFunction(tuple(criticals), tuple(rows), tuple(r[-1] for r in rows))


def check_reconstruction(pf: PersistenceFunction, d: Diagram) -> str | None:
    """First grid cell where ``d`` does not give back ``pf``, as a message,
    or None: the rows of ``diagram_table`` against those of ``pf``, each
    from its last cell down."""
    for i, (row, want) in enumerate(zip(diagram_table(pf.criticals, d).rows, pf.rows)):
        for j in range(len(row) - 1, -1, -1):
            if row[j] != want[j]:
                return (
                    f"reconstruction mismatch at p({format_weight(pf.criticals[i])}, "
                    f"{format_weight(pf.criticals[i + j])}): the diagram gives {row[j]}, "
                    f"the function {want[j]}"
                )
    return None


def serialize_diagram(d: Diagram) -> str:
    """One 'birth death multiplicity' record per cornerpoint, 'inf' for infinity."""
    lines = []
    for p in d.points:
        death = "inf" if p.is_infinite else format_weight(p.death)
        lines.append(f"{format_weight(p.birth)} {death} {p.multiplicity}")
    return "".join(line + "\n" for line in lines)


def parse_diagram_records(text: str) -> dict[tuple[float, float], int]:
    """Parse 'birth death multiplicity' records to (birth, death) ->
    multiplicity, in first-seen order; raises FormatError with line numbers.
    Each record is checked once, and repeated (birth, death) pairs add up
    their multiplicities; -0 reads as 0, whatever the line order."""
    records: dict[tuple[float, float], int] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if len(parts) != 3:
            if not parts or parts[0].startswith("#"):
                continue
            raise FormatError("diagram record must be '<birth> <death> <multiplicity>'", ln)
        b, d, m = parts
        if b.startswith("#"):
            continue
        try:
            birth = float(b) + 0.0  # -0.0 becomes 0.0, so one key holds both zeros
            death = math.inf if d == "inf" else float(d) + 0.0
            mult = int(m)
        except ValueError:
            raise FormatError(f"bad diagram record {raw.strip()!r}", ln) from None
        if not math.isfinite(birth):
            raise FormatError(f"cornerpoint birth must be finite, got {birth!r}", ln)
        if not birth < death:
            raise FormatError(f"cornerpoint needs birth < death, got ({birth!r}, {death!r})", ln)
        if mult < 1:
            raise FormatError(f"multiplicity must be a positive integer, got {mult!r}", ln)
        key = (birth, death)
        records[key] = records.get(key, 0) + mult
    return records


def parse_diagram(text: str) -> Diagram:
    """The canonical Diagram of the records of ``parse_diagram_records``."""
    return Diagram(tuple(Cornerpoint(b, d, m) for (b, d), m in sorted(parse_diagram_records(text).items())))
