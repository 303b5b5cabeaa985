import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import random

import pytest

import oracles
import perconn as pc
from corpus import (
    DIAGRAM_ERRORS,
    GRAPH_ERRORS,
    corrupt_graph_text,
    covered_k4,
    cycles_at_one_vertex,
    k4_star,
    k5_chain,
    random_graph_text,
    six_clusters,
    triangle_bridge_chain,
    weigh,
)
from perconn import cli, graphs, persistence, quivers
from perconn.persistence import GRID_CAP

GRAPH = "e a b 1\ne c d 1\ne b c 2\n"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_cli(*args, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "perconn", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def test_explicit_weight_error_names_the_first_v_record(tmp_path):
    # every v record exceeds its incident minimum; the first one is reported
    src = tmp_path / "g.txt"
    src.write_text("e a b 1\ne c d 1\ne a c 1\ne b d 1\nv d 2\nv b 2\nv a 2\nv c 2\n")
    want = "error: line 5: explicit weight 2.0 of vertex 'd' exceeds the incident minimum 1.0\n"
    for seed in ("0", "1"):
        res = run_cli("diagram", "--property", "components", str(src), env={**os.environ, "PYTHONHASHSEED": seed})
        assert (res.returncode, res.stdout, res.stderr) == (1, "", want), seed


# Runs each argv of argv[1] (JSON) through cli.main in this one process.
IN_PROCESS = """
import contextlib, io, json, sys
from perconn import cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([out.getvalue(), err.getvalue(), code])
print(json.dumps(results))
"""


def test_one_parser_serves_every_call_alike(tmp_path):
    good = tmp_path / "g.txt"
    good.write_text(GRAPH)
    bad = tmp_path / "bad.txt"
    bad.write_text("e a b 1\ne b b 2\n")
    argvs = [
        ["diagram", "--property", "components", str(good)],
        ["diagram", "--property", "banana", str(good)],
        ["diagram", "--property", "components", str(bad)],
        ["--help"],
        ["diagram", "--help"],
        ["distance", str(good)],
        ["diagram", "--property", "components", str(good), "extra"],
        ["diagram", "--property", "components", "--", str(good)],
        ["frobnicate", str(good)],
        [],
        ["diagram", "-h"],
        ["diagram", "--property", "components", str(good)],
    ]
    res = subprocess.run(
        [sys.executable, "-c", IN_PROCESS, json.dumps(argvs)], capture_output=True, text=True
    )
    assert (res.returncode, res.stderr) == (0, "")
    shared = json.loads(res.stdout)
    fresh = [[r.stdout, r.stderr, r.returncode] for r in (run_cli(*argv) for argv in argvs)]
    assert shared == fresh
    assert [code for _, _, code in shared] == [0, 2, 1, 0, 0, 2, 2, 0, 2, 2, 0, 0]
    assert shared[0] == shared[7] == shared[-1] == ["1 2 1\n1 inf 1\n", "", 0]
    assert shared[6][1].endswith("perconn: error: unrecognized arguments: extra\n")
    assert "invalid choice: 'frobnicate'" in shared[8][1]
    assert shared[9][1].endswith("perconn: error: the following arguments are required: command\n")
    assert shared[10][0] == shared[4][0] and shared[10][0].startswith("usage: perconn diagram [-h]")


# What the top parser prints for leftovers after a command's own arguments,
# at 80 columns.
UNRECOGNIZED = """\
usage: perconn [-h]
               {diagram,components,distance,pseudodistance,verify,quiver-diagram,plot}
               ...
perconn: error: unrecognized arguments: extra1 --bogus
"""


def test_leftovers_after_a_command_are_the_top_parsers_error(tmp_path):
    good = tmp_path / "g.txt"
    good.write_text(GRAPH)
    env = {**os.environ, "COLUMNS": "80"}
    res = run_cli("diagram", "--property", "components", str(good), "extra1", "--bogus", env=env)
    assert (res.returncode, res.stdout, res.stderr) == (2, "", UNRECOGNIZED)
    res = run_cli("quiver-diagram", "--class", "isomorphisms", str(good), "extra1", "--bogus", env=env)
    assert (res.returncode, res.stdout, res.stderr) == (2, "", UNRECOGNIZED)


def test_a_diagram_job_skips_the_top_parser(tmp_path, monkeypatch, capsys):
    # a command's argv goes straight to its subparser: one parse per job
    src = tmp_path / "g.txt"
    src.write_text(GRAPH)
    calls = []
    parse = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    assert cli.main(["diagram", "--property", "components", str(src)]) == 0
    assert capsys.readouterr().out == "1 2 1\n1 inf 1\n"
    assert calls == ["perconn diagram"]


# Counts ArgumentParser constructions: after import, after one call, after three.
COUNT_PARSERS = """
import argparse, sys
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import perconn.cli
counts = [len(built)]
for _ in range(3):
    perconn.cli.main(["diagram", "--property", "components", sys.argv[1]])
    counts.append(len(built))
print(*counts, file=sys.stderr)
"""


def test_parser_is_built_once_and_not_at_import(tmp_path):
    src = tmp_path / "g.txt"
    src.write_text(GRAPH)
    res = subprocess.run([sys.executable, "-c", COUNT_PARSERS, str(src)], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    counts = [int(x) for x in res.stderr.split()]
    assert counts[0] == 0
    assert counts[1] == counts[2] == counts[3] > 0
    assert res.stdout == "1 2 1\n1 inf 1\n" * 3


def test_diagram_text_output(tmp_path):
    src = tmp_path / "g.txt"
    src.write_text(GRAPH)
    res = run_cli("diagram", "--property", "components", str(src))
    assert res.returncode == 0
    assert res.stdout == "1 2 1\n1 inf 1\n"


def test_diagram_empty_for_missing_cliques(tmp_path):
    src = tmp_path / "edge.txt"
    src.write_text("e a b 1\n")
    res = run_cli("diagram", "--property", "clique", "--k", "3", str(src))
    assert res.returncode == 0
    assert res.stdout == ""


def test_diagram_vertex_block_bowtie(tmp_path):
    src = tmp_path / "bowtie.txt"
    src.write_text("e a b 1\ne a c 1\ne b c 1\ne c d 1\ne c e 1\ne d e 1\n")
    res = run_cli("diagram", "--property", "vertex-block", "--k", "2", str(src))
    assert res.returncode == 0
    assert res.stdout == "1 inf 2\n"


def test_diagram_ignores_line_order_and_signed_zero(tmp_path):
    outputs = []
    for i, text in enumerate(["e c d -0\ne a b 0\ne b c 1\n", "e a b 0\ne b c 1\ne c d -0\n"]):
        src = tmp_path / f"g{i}.txt"
        src.write_text(text)
        res = run_cli("diagram", "--property", "components", str(src))
        assert res.returncode == 0
        outputs.append(res.stdout)
    assert outputs[0] == outputs[1] == "0 1 1\n0 inf 1\n"


def test_outputs_are_byte_identical(tmp_path):
    src = tmp_path / "g.txt"
    src.write_text(GRAPH)
    runs = [
        run_cli("diagram", "--property", "components", "--format", "json", str(src)).stdout
        for _ in range(3)
    ]
    assert runs[0] == runs[1] == runs[2]
    doc = json.loads(runs[0])
    assert doc["deaths"] == [2.0, "inf"]
    assert doc["property"] == "components"
    assert doc["input_digest"].startswith("sha256:")


def test_benchmark_outputs_match_their_digests(tmp_path, monkeypatch):
    # every job of the benchmark's pools at the digest seed, run in process:
    # a changed output fails here, not first in a benchmark run
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    digests = json.loads((PERFBENCH / "digests.json").read_text())
    checked = 0
    for name in workloads.WORKLOADS:
        jobs = workloads.build_pool(name, digests["seed"])
        for job, argv in zip(jobs, workloads.write_pool(jobs, str(tmp_path / name))):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(argv) == 0, job.id
            digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
            assert digest == digests["workloads"][name][job.id]["sha256"], (name, job.id)
            checked += 1
    assert checked == sum(map(len, digests["workloads"].values()))


def test_distance_outputs(tmp_path):
    d1 = tmp_path / "d1.txt"
    d2 = tmp_path / "d2.txt"
    d1.write_text("1 2 1\n")
    d2.write_text("")
    same = run_cli("distance", str(d1), str(d1))
    assert same.returncode == 0 and same.stdout == "0\n"
    diag = run_cli("distance", str(d1), str(d2))
    assert diag.returncode == 0 and diag.stdout == "0.5\n"
    d3 = tmp_path / "d3.txt"
    d3.write_text("0 inf 1\n")
    inf = run_cli("distance", str(d1), str(d3))
    assert inf.returncode == 0 and inf.stdout == "inf\n"


def test_distance_takes_a_half_persistence_past_the_largest_float(tmp_path):
    # the point's persistence, 3.4e308, overflows; half of it does not, and
    # retiring it to the diagonal is the only admissible matching
    d1 = tmp_path / "d1.txt"
    d2 = tmp_path / "d2.txt"
    d1.write_text("-1.7e308 1.7e308 1\n0 inf 1\n")
    d2.write_text("0 inf 1\n")
    res = run_cli("distance", str(d1), str(d2))
    assert res.returncode == 0 and res.stdout == "1.7e+308\n"


def test_pseudodistance_output(tmp_path):
    g1 = tmp_path / "g1.txt"
    g2 = tmp_path / "g2.txt"
    g1.write_text("e a b 1\ne b c 2\n")
    g2.write_text("e a b 1.3\ne b c 2\n")
    res = run_cli("pseudodistance", str(g1), str(g2))
    assert res.returncode == 0
    assert res.stdout == "0.3\n"


def test_components_output(tmp_path):
    src = tmp_path / "g.txt"
    src.write_text(GRAPH)
    res = run_cli("components", "--property", "edge-block", "--k", "1", str(src))
    assert res.returncode == 0
    assert res.stdout == "a b c d\n"


def test_components_match_the_per_graph_oracle(tmp_path, capsys):
    # every kind at k = 1-4 prints, byte for byte, the vertex sets that the
    # per-graph providers find on the whole graph
    rng = random.Random(89)
    texts = [random_graph_text(rng, max_vertices=12) for _ in range(20)]
    shapes = [six_clusters(rng), covered_k4(), weigh(rng, cycles_at_one_vertex(3, 5), False)]
    shapes += [weigh(rng, edges, True) for edges in (k5_chain(3), triangle_bridge_chain(6), k4_star(4))]
    texts += [pc.serialize_weighted_graph(wg) for wg in shapes]
    specs = [pc.PropertySpec("components")] + [
        pc.PropertySpec(kind, k) for kind in ("clique", "vertex_block", "edge_block") for k in (1, 2, 3, 4)
        if (kind, k) != ("clique", 1)
    ]
    src = tmp_path / "g.txt"
    shared = dict.fromkeys((spec.label() for spec in specs), 0)
    for text in texts:
        src.write_text(text)
        g = oracles.oracle_parse_weighted_graph(text).graph
        for spec in specs:
            argv = ["components", "--property", spec.kind.replace("_", "-"), "--k", str(spec.k), str(src)]
            assert cli.main(argv) == 0
            comps = oracles.oracle_property_components(g, spec)
            assert capsys.readouterr() == ("".join(" ".join(sorted(c.vertices)) + "\n" for c in comps), ""), argv
            shared[spec.label()] += sum(len(c.vertices) > 1 for c in comps)
    assert min(shared.values()) > 5, shared


def test_components_reports_each_reader_error_as_diagram_does(tmp_path, capsys):
    # one reader serves both commands: the same exit code and one-line message
    rng = random.Random(91)
    texts = [text for text, _, _ in GRAPH_ERRORS]
    texts += [corrupt_graph_text(rng, random_graph_text(rng)) for _ in range(40)]
    src = tmp_path / "g.txt"
    failed = 0
    for text in texts:
        src.write_text(text)
        for prop, k in (("components", "1"), ("vertex-block", "3"), ("clique", "1")):
            runs = []
            for command in ("diagram", "components"):
                code = cli.main([command, "--property", prop, "--k", k, str(src)])
                runs.append((code, capsys.readouterr().err))
            assert runs[0] == runs[1], (text, prop)
            failed += runs[0][0] != 0
    for command in ("diagram", "components"):
        assert cli.main([command, "--property", "components", str(tmp_path / "nope.txt")]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {tmp_path / 'nope.txt'}: ")
    assert failed > 100


def test_components_builds_no_graph_objects(tmp_path, monkeypatch, capsys):
    # the command reads its text straight to the vertex indices the sweep
    # takes: no WeightedGraph is assembled and no SimpleGraph built
    def refuse(*args):
        raise AssertionError("built a graph object")

    monkeypatch.setattr(graphs, "_assemble", refuse)
    monkeypatch.setattr(graphs.SimpleGraph, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        graphs.simple_graph(["a"])
    src = tmp_path / "g.txt"
    src.write_text("v z 0.5\ne a b 1\ne b c 2\ne a c 1\ne c d 3\n")
    for prop, k, out in [
        ("components", 1, "a b c d\nz\n"),
        ("clique", 3, "a b c\n"),
        ("vertex-block", 2, "a b c\nc d\n"),
        ("vertex-block", 3, "a b c\n"),
        ("edge-block", 2, "a b c\nd\nz\n"),
        ("edge-block", 3, "a\nb\nc\nd\nz\n"),
    ]:
        assert cli.main(["components", "--property", prop, "--k", str(k), str(src)]) == 0
        assert capsys.readouterr() == (out, "")


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("e a a 1\n")
    res = run_cli("diagram", "--property", "components", str(bad))
    assert res.returncode == 1
    assert "self-loop" in res.stderr
    missing = run_cli("diagram", "--property", "components", str(tmp_path / "nope.txt"))
    assert missing.returncode == 1


def test_exit_code_config_error(tmp_path):
    src = tmp_path / "g.txt"
    src.write_text(GRAPH)
    res = run_cli("diagram", "--property", "clique", "--k", "1", str(src))
    assert res.returncode == 2
    res = run_cli("diagram", "--property", "banana", str(src))
    assert res.returncode == 2  # argparse choice failure


def test_verify_pass_and_corrupt(tmp_path):
    src = tmp_path / "g.txt"
    src.write_text(GRAPH)
    ok = run_cli("verify", "--property", "components", str(src))
    assert ok.returncode == 0
    assert ok.stdout.count("PASS") == 3
    bad = run_cli("verify", "--property", "components", "--corrupt", "0,1,5", str(src))
    assert bad.returncode == 3
    assert "FAIL axioms" in bad.stdout


def test_verify_decides_cells_by_index(tmp_path):
    # The float midpoint of 1.0 and the next float is one of them, and
    # c + 1.0 == c near the largest float: no point between or past these
    # criticals exists, yet the reconstruction holds on every grid cell.
    passed = (
        "PASS axioms: monotonicity and jump superadditivity hold\n"
        "PASS reconstruction: diagram reproduces the function off-grid\n"
        "PASS weak directedness: subobject poset of the final graph\n"
    )
    for text in ("e x y 1.0\ne y z 1.0000000000000002\n", "e x y 1e308\ne y z 1.7976931348623157e308\n"):
        src = tmp_path / "g.txt"
        src.write_text(text)
        for prop in ("components", "edge-block"):
            res = run_cli("verify", "--property", prop, str(src))
            assert (res.returncode, res.stdout, res.stderr) == (0, passed, ""), (text, prop)


def test_verify_skips_poset_check_over_cap(tmp_path):
    src = tmp_path / "g.txt"
    src.write_text(GRAPH)
    res = run_cli("verify", "--property", "components", "--poset-cap", "2", str(src))
    assert res.returncode == 0
    assert "SKIP weak directedness" in res.stdout


def _complete_graph_text(n):
    return "".join(f"e v{i} v{j} {i + j + 1}\n" for i in range(n) for j in range(i + 1, n))


def test_verify_refuses_a_clique_poset_past_its_state_cap(tmp_path):
    # K6 at clique:2 has far more states than STATE_CAP; its enumeration
    # ran unbounded before the cap, and the refused check is skipped, not
    # failed
    src = tmp_path / "k6.txt"
    src.write_text(_complete_graph_text(6))
    start = time.perf_counter()
    res = run_cli("verify", "--property", "clique", "--k", "2", str(src))
    assert time.perf_counter() - start < 5.0
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.count("PASS") == 2
    assert "SKIP weak directedness: clique subobject poset limited to 2000 elements\n" in res.stdout


def test_verify_k5_clique_poset_under_the_state_cap(tmp_path):
    # 968 states, under the cap
    src = tmp_path / "k5.txt"
    src.write_text(_complete_graph_text(5))
    res = run_cli("verify", "--property", "clique", "--k", "2", str(src))
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.count("PASS") == 3
    assert "PASS weak directedness" in res.stdout


def test_quiver_diagram(tmp_path):
    src = tmp_path / "q.txt"
    src.write_text(
        "v x\nv p\nv q\ng\nmap v p q\nmap v q p\n"
    )
    res = run_cli("quiver-diagram", "--class", "isomorphisms", str(src))
    assert res.returncode == 0
    assert res.stdout == "1 inf 1\n2 inf 1\n"


def test_quiver_reader_errors_name_the_second_record(tmp_path):
    # a second map record for one item would silently override the first
    cases = [
        ("a e1 x y\na e2 y x\na e1 y y\n", "error: line 3: duplicate arrow name 'e1'\n"),
        (
            "v a\nv b\ng\nmap v a b\nmap v b a\nmap v a a\nmap v b b\n",
            "error: line 6: vertex 'a' is mapped twice in one generator\n",
        ),
    ]
    src = tmp_path / "q.txt"
    for text, want in cases:
        src.write_text(text)
        res = run_cli("quiver-diagram", "--class", "isomorphisms", str(src))
        assert (res.returncode, res.stdout, res.stderr) == (1, "", want)


def test_quiver_diagram_builds_no_quiver_objects(tmp_path, capsys, monkeypatch):
    # the text goes straight to the weighted orbit graph: no Quiver,
    # GroupAction or GQuiver, no frozenset orbit lists, no union-find
    src = tmp_path / "q.txt"
    src.write_text("a p x c\na q y c\na r c c\nv z\ng\nmap v x y\nmap v y x\nmap a p q\nmap a q p\n")
    runs = [
        [*cls, "--k", k, "--format", fmt, str(src)]
        for cls in (["--class", "isomorphisms"], ["--class", "orbit-deletion"], ["--class", "fixed-vertex-deletion"])
        for k in ("1", "2", "3")
        for fmt in ("text", "json")
    ]
    want = []
    for argv in runs:
        assert cli.main(["quiver-diagram", *argv]) == 0
        want.append(capsys.readouterr().out)

    def refuse(*args, **kwargs):
        raise AssertionError("the quiver-diagram path built a quiver object")

    for name in ("Quiver", "GroupAction", "GQuiver"):
        monkeypatch.setattr(getattr(quivers, name), "__init__", refuse)
    monkeypatch.setattr(quivers, "orbits", refuse)
    assert "UnionFind" not in vars(quivers)
    for argv, out in zip(runs, want):
        assert cli.main(["quiver-diagram", *argv]) == 0, argv
        assert capsys.readouterr() == (out, ""), argv
    src.write_text("a e x y\ng\nmap v x y\n")
    assert cli.main(["quiver-diagram", "--class", "isomorphisms", str(src)]) == 1
    assert capsys.readouterr().err == "error: vertex map is not a permutation\n"


def test_quiver_deletion_classes_past_sixteen_orbits(tmp_path):
    src = tmp_path / "q.txt"
    src.write_text("".join(f"v x{i:02d}\n" for i in range(17)))
    for cls in ("orbit-deletion", "fixed-vertex-deletion"):
        res = run_cli("quiver-diagram", "--class", cls, "--k", "2", str(src))
        assert (res.returncode, res.stdout, res.stderr) == (0, "", ""), cls
    res = run_cli("quiver-diagram", "--class", "isomorphisms", str(src))
    assert res.returncode == 0
    assert res.stdout == "1 inf 17\n"
    cycle = tmp_path / "cycle.txt"
    cycle.write_text("".join(f"a e{i:02d} x{i:02d} x{(i + 1) % 17:02d}\n" for i in range(17)))
    for cls in ("orbit-deletion", "fixed-vertex-deletion"):
        res = run_cli("quiver-diagram", "--class", cls, "--k", "2", str(cycle))
        assert (res.returncode, res.stdout, res.stderr) == (0, "1 inf 1\n", ""), cls


def test_quiver_deletion_budget_past_every_unit(tmp_path):
    # a swapped pair joined to a fixed vertex: two orbits, one fixed vertex.
    # A budget past every deletable unit answers at once, as the smallest
    # such budget does.
    src = tmp_path / "q.txt"
    src.write_text("a p x c\na q y c\ng\nmap v x y\nmap v y x\nmap a p q\nmap a q p\n")
    for cls, k_all, want in (("orbit-deletion", "3", ""), ("fixed-vertex-deletion", "2", "2 inf 1\n")):
        small = run_cli("quiver-diagram", "--class", cls, "--k", k_all, str(src))
        start = time.perf_counter()
        huge = run_cli("quiver-diagram", "--class", cls, "--k", "100000", str(src))
        assert time.perf_counter() - start < 10.0, cls
        assert (small.returncode, small.stdout, small.stderr) == (0, want, ""), cls
        assert (huge.returncode, huge.stdout, huge.stderr) == (0, want, ""), cls


def test_pseudodistance_cap_is_a_config_error(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text("e a b 1\n")
    res = run_cli("pseudodistance", "--cap", "1", str(g), str(g))
    assert res.returncode == 2
    assert res.stderr == "error: pseudodistance limited to 1 vertices, got 2\n"
    assert res.stdout == ""


def test_negative_caps_are_config_errors(tmp_path, capsys):
    # refused before the input is read: the missing file is never opened
    missing = str(tmp_path / "missing.txt")
    for argv, flag in (
        (["verify", "--property", "components", "--poset-cap", "-1", missing], "--poset-cap"),
        (["pseudodistance", "--cap", "-1", missing, missing], "--cap"),
    ):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: {flag} must be >= 0, got -1\n")


def test_distance_point_cap_counts_both_files(tmp_path):
    # 2,500 + 2,501 points, each file under the cap alone, made by
    # multiplicities; refused with the same line whichever file comes first
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("1 2 2500\n")
    b.write_text("0 3 2000\n0.5 inf 1\n0 5 500\n")
    for first, second in ((a, b), (b, a)):
        res = run_cli("distance", str(first), str(second))
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == "error: bottleneck distance limited to 5000 points, got 5001\n"


def test_distance_reports_each_reader_error_on_either_side(tmp_path):
    # every malformed diagram gives exit 1 and the reader's one line, as the
    # first file or the second; with both files bad, the first is reported
    good = tmp_path / "good.txt"
    good.write_text("0 1 1\n0.5 inf 2\n")
    bad = []
    for k, (text, _) in enumerate(DIAGRAM_ERRORS):
        bad.append(tmp_path / f"bad{k}.txt")
        bad[-1].write_text(text)
    argvs, wants = [], []
    for k, (_, message) in enumerate(DIAGRAM_ERRORS):
        other = bad[(k + 1) % len(bad)]
        argvs += [["distance", str(bad[k]), str(good)], ["distance", str(good), str(bad[k])],
                  ["distance", str(bad[k]), str(other)]]
        wants += [["", f"error: {message}\n", 1]] * 3
    res = subprocess.run(
        [sys.executable, "-c", IN_PROCESS, json.dumps(argvs)], capture_output=True, text=True
    )
    assert (res.returncode, res.stderr) == (0, "")
    assert json.loads(res.stdout) == wants


def test_distance_and_pseudodistance_build_no_objects(tmp_path, monkeypatch, capsys):
    # both commands read the text straight to their kernels' arrays: no
    # Cornerpoint is validated and no WeightedGraph assembled
    def refuse(*args):
        raise AssertionError("built an intermediate object")

    monkeypatch.setattr(persistence.Cornerpoint, "__post_init__", refuse)
    monkeypatch.setattr(graphs, "_assemble", refuse)
    with pytest.raises(AssertionError):
        persistence.parse_diagram("1 2 1\n")
    with pytest.raises(AssertionError):
        graphs.parse_weighted_graph("e a b 1\n")
    d1 = tmp_path / "d1.txt"
    d2 = tmp_path / "d2.txt"
    d1.write_text("0 inf 1\n1 2 2\n3 3.25 1\n")
    d2.write_text("0.25 inf 1\n1 2.5 1\n")
    g1 = tmp_path / "g1.txt"
    g2 = tmp_path / "g2.txt"
    g1.write_text("v z 0.5\ne a b 1\ne b c 2\n")
    g2.write_text("e x y 2.25\ne y w 1\nv q 0.5\n")
    assert cli.main(["distance", str(d1), str(d2)]) == 0
    assert capsys.readouterr() == ("0.5\n", "")
    assert cli.main(["pseudodistance", str(g1), str(g2)]) == 0
    assert capsys.readouterr() == ("0.25\n", "")


def test_distance_point_cap_is_a_config_error(tmp_path):
    # one line that expands to 10**8 points; refused before any is built
    d = tmp_path / "d.txt"
    d.write_text("1 2 100000000\n")
    start = time.perf_counter()
    res = run_cli("distance", str(d), str(d))
    assert time.perf_counter() - start < 10.0
    assert res.returncode == 2
    assert res.stderr == "error: bottleneck distance limited to 5000 points, got 200000000\n"
    assert res.stdout == ""


def test_plot_svg(tmp_path):
    d = tmp_path / "d.txt"
    d.write_text("1 2 1\n0 inf 1\n1 2.5 3\n")
    out = tmp_path / "plot.svg"
    res = run_cli("plot", "--output", str(out), str(d))
    assert res.returncode == 0
    root = ET.fromstring(out.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    circles = root.findall(f"{ns}circle")
    lines = root.findall(f"{ns}line")
    assert len(circles) == 2  # proper cornerpoints
    assert any(l.get("class") == "halfline" for l in lines)
    assert any(l.get("class") == "diagonal" for l in lines)
    texts = root.findall(f"{ns}text")
    assert any(t.text == "3" for t in texts)


def test_plot_spans_past_the_largest_float(tmp_path):
    # the span, 3.4e308, overflows; every coordinate must still be finite
    d = tmp_path / "d.txt"
    d.write_text("1e308 inf 1\n-1.7e308 1.7e308 1\n")
    out = tmp_path / "plot.svg"
    assert run_cli("plot", "--output", str(out), str(d)).returncode == 0
    root = ET.fromstring(out.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    (circle,) = root.findall(f"{ns}circle")
    (halfline,) = [l for l in root.findall(f"{ns}line") if l.get("class") == "halfline"]
    coords = [float(circle.get(a)) for a in ("cx", "cy")] + [float(halfline.get(a)) for a in ("x1", "y1")]
    assert all(40 <= x <= 380 for x in coords), coords
    # the point at (-1.7e308, 1.7e308) is in the upper left, 1e308 right of centre
    assert coords[0] < 210 and coords[1] < 210 and coords[2] > 210, coords


def test_plot_of_one_value_past_two_to_the_53(tmp_path):
    # adding 1 to such a value changes nothing, so the span stayed 0
    ns = "{http://www.w3.org/2000/svg}"
    for text in ("1e17 inf 1\n", "-1e17 inf 1\n", "9007199254740992 inf 1\n", "1.7976931348623157e308 inf 1\n"):
        d = tmp_path / "d.txt"
        d.write_text(text)
        out = tmp_path / "plot.svg"
        res = run_cli("plot", "--output", str(out), str(d))
        assert (res.returncode, res.stderr) == (0, ""), text
        (halfline,) = [l for l in ET.fromstring(out.read_text()).findall(f"{ns}line") if l.get("class") == "halfline"]
        coords = [float(halfline.get(a)) for a in ("x1", "y1", "x2", "y2")]
        assert all(20 <= x <= 380 for x in coords), (text, coords)


def test_plot_of_a_span_a_few_subnormals_wide(tmp_path):
    # one over such a span overflows to inf, and inf times 0 is nan
    ns = "{http://www.w3.org/2000/svg}"
    for text in ("0 2e-323 1\n", "0 4e-323 1\n1e-323 3e-323 2\n"):
        d = tmp_path / "d.txt"
        d.write_text(text)
        out = tmp_path / "plot.svg"
        res = run_cli("plot", "--output", str(out), str(d))
        assert (res.returncode, res.stderr) == (0, ""), text
        circles = ET.fromstring(out.read_text()).findall(f"{ns}circle")
        coords = [float(c.get(a)) for c in circles for a in ("cx", "cy")]
        assert len(circles) == text.count("\n") and all(40 <= x <= 380 for x in coords), (text, coords)
        assert "nan" not in out.read_text() and "inf" not in out.read_text(), text


def test_non_utf8_input_is_a_parse_error(tmp_path):
    src = tmp_path / "bad.txt"
    src.write_bytes(b"\xff\xfe e a b 1")
    res = run_cli("components", "--property", "components", str(src))
    assert res.returncode == 1
    assert res.stderr.startswith(f"error: cannot read {src}: ")
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr


def test_unwritable_output_is_a_config_error(tmp_path):
    src = tmp_path / "g.txt"
    src.write_text(GRAPH)
    out = tmp_path / "missing" / "out.txt"
    for cmd in (("components", "--property", "components"), ("diagram", "--property", "components")):
        res = run_cli(*cmd, "--output", str(out), str(src))
        assert res.returncode == 2
        assert res.stderr == f"error: cannot write {out}: No such file or directory\n"
        assert res.stdout == ""


def test_verify_corrupt_outside_the_grid(tmp_path):
    src = tmp_path / "g.txt"
    src.write_text(GRAPH)  # two critical values
    for spec in ("99,99,1", "1,0,1", "-1,0,1", "0,2,1", "2,2,1"):
        res = run_cli("verify", "--property", "components", f"--corrupt={spec}", str(src))
        assert res.returncode == 2, spec
        assert res.stderr == f"error: --corrupt wants 0 <= i <= j < 2, got '{spec}'\n"
        assert res.stdout == ""
    # the last cell of the grid is inside it
    res = run_cli("verify", "--property", "components", "--corrupt=1,1,1", str(src))
    assert (res.returncode, res.stderr) == (0, "")


def _triangle_chain(n):
    """n triangles in a row, each sharing a vertex with the next.  Returns
    the graph text and the sorted triangles."""
    lines, triangles = [], []
    for i in range(n):
        a, b, c = f"a{i:04d}", f"b{i:04d}", f"a{i + 1:04d}"
        lines += [f"e {a} {b} 1\n", f"e {b} {c} 1\n", f"e {a} {c} 1\n"]
        triangles.append(" ".join(sorted((a, b, c))))
    return "".join(lines), sorted(triangles)


def test_blocks_of_long_triangle_chains(tmp_path):
    n = 2000
    shared, triangles = _triangle_chain(n)
    src = tmp_path / "shared.txt"
    src.write_text(shared)
    res = run_cli("components", "--property", "vertex-block", "--k", "2", str(src))
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.splitlines() == triangles
    res = run_cli("components", "--property", "edge-block", "--k", "2", str(src))
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.splitlines() == [" ".join(sorted({v for t in triangles for v in t.split()}))]


def test_verify_refuses_a_grid_past_its_cap(tmp_path, capsys):
    # a path whose distinct weights give GRID_CAP + 1 critical values
    src = tmp_path / "path.txt"
    src.write_text("".join(f"e p{i} p{i + 1} {i + 1}\n" for i in range(GRID_CAP + 1)))
    start = time.perf_counter()
    code = cli.main(["verify", "--property", "components", str(src)])
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: persistence grid limited to {GRID_CAP} critical values, got {GRID_CAP + 1}\n"
