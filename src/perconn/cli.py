"""Command-line frontend.

Commands: diagram, components, distance, pseudodistance, verify,
quiver-diagram, plot.  Exit codes: 0 success, 1 input parse error,
2 invalid configuration, 3 verification failure.  Outputs are
byte-deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys

from .connectivity import PropertySpec, top_components
from .graphs import (
    CapExceeded,
    FormatError,
    GraphError,
    build_filtration,
    parse_indexed_graph,
    parse_weighted_graph,
    read_graph_records,
)
from .metrics import VERTEX_CAP, bottleneck_of_records, indexed_pseudodistance
from .persistence import (
    Diagram,
    PersistenceFunction,
    check_axioms,
    check_reconstruction,
    extract_diagram,
    index_diagram,
    parse_diagram,
    parse_diagram_records,
    persistence_function,
    serialize_diagram,
)
from .posets import is_weakly_directed, subobject_poset
from .quivers import EquivariantClass, parse_orbit_graph

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3

SVG_SIZE = 420  # width and height of a ``plot``, in pixels


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise GraphError(f"cannot write {path}: {exc.strerror}") from exc


def _property_spec(args) -> PropertySpec:
    kind = args.property.replace("-", "_")
    return PropertySpec(kind, args.k)


def _diagram_json(d: Diagram, descriptor: str, digest: str) -> str:
    doc = {
        "births": [p.birth for p in d.points],
        "deaths": ["inf" if p.is_infinite else p.death for p in d.points],
        "multiplicities": [p.multiplicity for p in d.points],
        "property": descriptor,
        "input_digest": digest,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def render_diagram_svg(d: Diagram) -> str:
    """Standalone SVG: diagonal, one circle per proper cornerpoint, a vertical
    half-line glyph per infinite point, multiplicity labels when > 1."""
    margin = 40.0
    span_lo = 0.0
    span_hi = 1.0
    values = [p.birth for p in d.points] + [p.death for p in d.points if not p.is_infinite]
    if values:
        span_lo = min(values)
        span_hi = max(values)
        # one value, or subnormals that quarter to one, get a unit span; past
        # 2**53 adding 1 changes nothing, so the span reaches half the value
        if span_hi / 4.0 == span_lo / 4.0:
            span_hi = span_lo + 1.0
            if span_hi == span_lo:
                span_lo, span_hi = sorted((span_lo, span_lo / 2.0))
    # drawn in quarters, so the padded span, up to 2.32 times the largest
    # float, stays finite; quartering is exact for normal floats, so every
    # coordinate is what it would be unquartered
    pad = 0.08 * (span_hi / 4.0 - span_lo / 4.0)
    lo, hi = span_lo / 4.0 - pad, span_hi / 4.0 + pad
    size = SVG_SIZE
    left, bottom = margin, size - margin  # where lo lands
    reach = size - 2 * margin  # from there to where hi lands

    # each coordinate goes by its share of the span, at most 1, so a span
    # only a few subnormals wide overflows no factor
    def px(x: float) -> float:
        return margin + (x / 4.0 - lo) / (hi - lo) * reach

    def py(y: float) -> float:
        return size - margin - (y / 4.0 - lo) / (hi - lo) * reach

    def fmt(x: float) -> str:
        return f"{x:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="white"/>',
        f'<line class="axis" x1="{fmt(left)}" y1="{fmt(bottom)}" x2="{fmt(left + reach)}" '
        f'y2="{fmt(bottom)}" stroke="black"/>',
        f'<line class="axis" x1="{fmt(left)}" y1="{fmt(bottom)}" x2="{fmt(left)}" '
        f'y2="{fmt(bottom - reach)}" stroke="black"/>',
        f'<line class="diagonal" x1="{fmt(left)}" y1="{fmt(bottom)}" x2="{fmt(left + reach)}" '
        f'y2="{fmt(bottom - reach)}" stroke="gray" stroke-dasharray="4 3"/>',
    ]
    for p in d.points:
        if p.is_infinite:
            x = fmt(px(p.birth))
            parts.append(
                f'<line class="halfline" x1="{x}" y1="{fmt(py(p.birth))}" x2="{x}" '
                f'y2="{fmt(margin / 2)}" stroke="crimson" stroke-width="2"/>'
            )
            parts.append(
                f'<path class="halfline-tip" d="M {fmt(px(p.birth) - 4)} {fmt(margin / 2 + 6)} '
                f'L {x} {fmt(margin / 2)} L {fmt(px(p.birth) + 4)} {fmt(margin / 2 + 6)} Z" '
                f'fill="crimson"/>'
            )
            if p.multiplicity > 1:
                parts.append(
                    f'<text x="{fmt(px(p.birth) + 6)}" y="{fmt(margin / 2 + 10)}" '
                    f'font-size="11">{p.multiplicity}</text>'
                )
        else:
            parts.append(
                f'<circle class="cornerpoint" cx="{fmt(px(p.birth))}" cy="{fmt(py(p.death))}" '
                f'r="4" fill="steelblue"/>'
            )
            if p.multiplicity > 1:
                parts.append(
                    f'<text x="{fmt(px(p.birth) + 6)}" y="{fmt(py(p.death) - 6)}" '
                    f'font-size="11">{p.multiplicity}</text>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_diagram(args) -> int:
    spec = _property_spec(args)
    text = _read(args.input)
    d = index_diagram(*parse_indexed_graph(text), spec)
    if args.format == "json":
        out = _diagram_json(d, spec.label(), _digest(text))
    else:
        out = serialize_diagram(d)
    _write_output(out, args.output)
    return EXIT_OK


def _cmd_components(args) -> int:
    spec = _property_spec(args)
    index, births, edges, _ = read_graph_records(_read(args.input))
    names = list(index)
    comps = sorted(sorted(names[i] for i in vs) for vs, _ in top_components(births, edges, spec))
    _write_output("".join(" ".join(c) + "\n" for c in comps), args.output)
    return EXIT_OK


def _cmd_distance(args) -> int:
    r1 = parse_diagram_records(_read(args.first))
    r2 = parse_diagram_records(_read(args.second))
    dist = bottleneck_of_records(r1, r2)
    print("inf" if math.isinf(dist) else f"{dist:.12g}")
    return EXIT_OK


def _cmd_pseudodistance(args) -> int:
    if args.cap < 0:
        raise GraphError(f"--cap must be >= 0, got {args.cap}")
    g1 = parse_indexed_graph(_read(args.first))
    g2 = parse_indexed_graph(_read(args.second))
    dist = indexed_pseudodistance(g1, g2, vertex_cap=args.cap)
    print("inf" if math.isinf(dist) else f"{dist:.12g}")
    return EXIT_OK


def _corrupted(pf: PersistenceFunction, spec_text: str) -> PersistenceFunction:
    try:
        i_s, j_s, delta_s = spec_text.split(",")
        i, j, delta = int(i_s), int(j_s), int(delta_s)
    except ValueError:
        raise GraphError(f"--corrupt wants 'i,j,delta', got {spec_text!r}") from None
    if not 0 <= i <= j < pf.grid_size:
        raise GraphError(f"--corrupt wants 0 <= i <= j < {pf.grid_size}, got {spec_text!r}")
    rows = [list(r) for r in pf.rows]
    rows[i][j - i] += delta
    inf_column = list(pf.inf_column)
    if j == pf.grid_size - 1:
        inf_column[i] += delta
    return PersistenceFunction(pf.criticals, tuple(tuple(r) for r in rows), tuple(inf_column))


def _cmd_verify(args) -> int:
    if args.poset_cap < 0:
        raise GraphError(f"--poset-cap must be >= 0, got {args.poset_cap}")
    spec = _property_spec(args)
    filt = build_filtration(parse_weighted_graph(_read(args.input)))
    if not filt.criticals:
        print("PASS empty filtration: nothing to verify")
        return EXIT_OK
    pf = persistence_function(filt, spec)
    if args.corrupt:
        pf = _corrupted(pf, args.corrupt)
    failures = []
    message = check_axioms(pf)
    if message is None:
        print("PASS axioms: monotonicity and jump superadditivity hold")
    else:
        print(f"FAIL axioms: {message}")
        failures.append(message)
    try:
        message = check_reconstruction(pf, extract_diagram(pf))
    except ValueError as exc:
        message = str(exc)
    if message is None:
        print("PASS reconstruction: diagram reproduces the function off-grid")
    else:
        print(f"FAIL reconstruction: {message}")
        failures.append(message)
    try:
        poset = subobject_poset(filt.limit(), spec, size_cap=args.poset_cap)
    except CapExceeded as exc:  # over --poset-cap, or a clique poset past posets.STATE_CAP
        print(f"SKIP weak directedness: {exc}")
    else:
        if is_weakly_directed(poset):
            print("PASS weak directedness: subobject poset of the final graph")
        else:
            msg = "subobject poset of the final graph is not weakly directed"
            print(f"FAIL weak directedness: {msg}")
            failures.append(msg)
    return EXIT_VERIFY if failures else EXIT_OK


def _cmd_quiver_diagram(args) -> int:
    cls = EquivariantClass(args.cls.replace("-", "_"), args.k)
    text = _read(args.input)
    d = index_diagram(*parse_orbit_graph(text, cls))
    if args.format == "json":
        out = _diagram_json(d, cls.label(), _digest(text))
    else:
        out = serialize_diagram(d)
    _write_output(out, args.output)
    return EXIT_OK


def _cmd_plot(args) -> int:
    d = parse_diagram(_read(args.input))
    _write_output(render_diagram_svg(d), args.output)
    return EXIT_OK


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The CLI parser and each command's subparser by name, built on first
    use and shared by every later call.

    parse_args keeps no state between calls: each makes a fresh namespace
    and looks up stdout, stderr and the terminal width when it prints.
    """
    parser = argparse.ArgumentParser(
        prog="perconn",
        description="Persistence diagrams of weighted graphs and G-quivers "
        "under pluggable connectivity notions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_property(p):
        p.add_argument(
            "--property",
            required=True,
            choices=["components", "clique", "vertex-block", "edge-block"],
            help="connectivity notion",
        )
        p.add_argument("--k", type=int, default=1, help="parameter k (>= 2 for clique)")

    p = sub.add_parser("diagram", help="persistence diagram of a weighted graph")
    add_property(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--output", default=None, help="output path (default: stdout)")
    p.add_argument("input")
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("components", help="maximal components of the final graph")
    add_property(p)
    p.add_argument("--output", default=None)
    p.add_argument("input")
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("distance", help="bottleneck distance between two diagram files")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("pseudodistance", help="natural pseudodistance between two weighted graphs")
    p.add_argument("--cap", type=int, default=VERTEX_CAP, help="vertex cap for isomorphism search")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_pseudodistance)

    p = sub.add_parser("verify", help="axiom, reconstruction and weak-directedness checks")
    add_property(p)
    p.add_argument("--poset-cap", type=int, default=7)
    p.add_argument("--corrupt", default=None, help="testing hook: 'i,j,delta' grid corruption")
    p.add_argument("input")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("quiver-diagram", help="orbit-filtration diagram of a G-quiver")
    p.add_argument(
        "--class",
        dest="cls",
        required=True,
        choices=["isomorphisms", "orbit-deletion", "fixed-vertex-deletion"],
    )
    p.add_argument("--k", type=int, default=2, help="deletion budget (fewer than k units)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--output", default=None)
    p.add_argument("input")
    p.set_defaults(func=_cmd_quiver_diagram)

    p = sub.add_parser("plot", help="render a diagram file as SVG")
    p.add_argument("--output", default=None)
    p.add_argument("input")
    p.set_defaults(func=_cmd_plot)

    return parser, sub.choices


def main(argv=None) -> int:
    """Run one command.  An argv that starts with a command name goes
    straight to that command's subparser, whose leftovers become the top
    parser's 'unrecognized arguments' error, just as the top parser would
    report them; any other argv goes through the top parser."""
    parser, commands = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error("unrecognized arguments: " + " ".join(extras))
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GraphError as exc:  # a CapExceeded too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
