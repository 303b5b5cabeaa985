"""Layer tracing from outside the program.

The tracer replaces every binding of each layer function in the loaded
``perconn`` modules with a timing wrapper, so a call through any import
path is seen.  A layer's busy time is self time: the time spent in wrapped
children is subtracted, so the busy times of one job add up to its
``cli.main`` duration.  A layer whose function no longer exists is
reported absent.  Timed runs never install the wrappers.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _grid_counts(counts, args, kwargs, result) -> None:
    m = len(args[0])
    sizes = [len(level) for level in args[1]]
    total = sum(sizes)
    counts["persistence.grid_cells"] += m * (m + 1) // 2
    # sum over i <= j of c_i * c_j
    counts["persistence.pair_checks_bound"] += (total * total + sum(c * c for c in sizes)) // 2


def _diagram_points(d) -> int:
    return sum(p.multiplicity for p in d.points)


# (module, qualified name, counter hook).  A hook adds the layer's work
# counts from the call's arguments and result.
LAYERS = (
    ("perconn.cli", "main", None),
    ("perconn.graphs", "parse_weighted_graph",
     lambda c, a, k, r: c.update({"graphs.vertices": len(r.graph.vertices)})),
    ("perconn.graphs", "build_filtration",
     lambda c, a, k, r: c.update({"graphs.levels": len(r.criticals)})),
    ("perconn.graphs", "Filtration.sublevel_at", None),
    ("perconn.connectivity", "property_components",
     lambda c, a, k, r: c.update({"connectivity.components_out": len(r),
                                  "connectivity.level_edges": len(a[0].edges)})),
    ("perconn.cuts", "k_cliques", lambda c, a, k, r: c.update({"cuts.k_cliques.cliques": len(r)})),
    ("perconn.cuts", "stoer_wagner", None),
    ("perconn.cuts", "vertex_cut_below",
     lambda c, a, k, r: c.update({"cuts.vertex_cut_below.hits": r is not None})),
    ("perconn.persistence", "tabulate_persistence", _grid_counts),
    ("perconn.persistence", "extract_diagram",
     lambda c, a, k, r: c.update({"persistence.cornerpoints": len(r.points)})),
    ("perconn.persistence", "serialize_diagram", None),
    ("perconn.persistence", "parse_diagram", None),
    ("perconn.metrics", "bottleneck_distance",
     lambda c, a, k, r: c.update({"metrics.bottleneck_distance.points":
                                  _diagram_points(a[0]) + _diagram_points(a[1])})),
    ("perconn.metrics", "natural_pseudodistance", None),
    ("perconn.quivers", "parse_gquiver", None),
    ("perconn.quivers", "orbit_filtration", None),
    ("perconn.quivers", "gq_components", None),
    ("perconn.quivers", "restrict_gquiver", None),
)


COUNTERS = (
    "graphs.vertices", "graphs.levels", "connectivity.components_out", "connectivity.level_edges",
    "cuts.k_cliques.cliques", "cuts.vertex_cut_below.hits", "persistence.grid_cells",
    "persistence.pair_checks_bound", "persistence.cornerpoints", "metrics.bottleneck_distance.points",
)


def layer_name(module: str, qualname: str) -> str:
    """'perconn.graphs', 'Filtration.sublevel_at' -> 'graphs.sublevel_at'."""
    return f"{module.split('.', 1)[1]}.{qualname.rsplit('.', 1)[-1]}"


class Tracer:
    """Self-time and call counts per layer, plus work counters."""

    def __init__(self):
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter(dict.fromkeys(COUNTERS, 0))
        self.absent: list[str] = []
        self.broken_hooks: set[str] = set()
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, hook):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.busy[name] += elapsed - frame[0]
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None and name not in self.broken_hooks:
                try:
                    hook(self.counts, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    # The layer changed shape; its counters are reported absent.
                    self.broken_hooks.add(name)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "perconn" or n.startswith("perconn."))]
        for module_name, qualname, hook in LAYERS:
            name = layer_name(module_name, qualname)
            owner = sys.modules.get(module_name)
            parts = qualname.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, parts[-1], None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, hook)
            holders = [owner] if len(parts) > 1 else modules
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, attr, value))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._undo):
            setattr(holder, attr, value)
        self._undo.clear()
