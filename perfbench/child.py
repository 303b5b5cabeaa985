"""One workload in its own process: set up, run jobs back to back, check.

Usage (from the repository root, with ``src`` on PYTHONPATH)::

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop: a single client runs the pool's jobs one after
another, cycling through the pool until the time is up; the first pass
always completes.  Prints one JSON line with every metric the parent may
ask for, the execution counts and the check results.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter

import references
from tracer import LAYERS, Tracer, layer_name
from workloads import (
    TAIL_PERCENTILE, WORK_ROOT, WORKLOADS, build_pool, remove_workdir, warmup_job, write_pool,
)

SETUP_REPEATS = 5
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
# distance jobs checked against the networkx reference in each run (smallest first)
DISTANCE_SAMPLE = 4


def fresh_cli():
    """Import perconn anew, as a new process would."""
    for name in [n for n in sys.modules if n == "perconn" or n.startswith("perconn.")]:
        del sys.modules[name]
    return importlib.import_module("perconn.cli")


def run_job(cli, argv: list[str]) -> tuple[str | None, str | None]:
    """(stdout, None) on success, (None, reason) on any failure."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        return None, f"SystemExit {exc.code}: {err.getvalue().strip()}"
    except Exception as exc:  # any crash of the program is a failed job
        return None, f"{type(exc).__name__}: {exc}"
    if code != 0:
        return None, f"exit code {code}: {err.getvalue().strip()}"
    return out.getvalue(), None


class Outcomes:
    """First output of every job, execution counts and failure reasons."""

    def __init__(self, size: int):
        self.first: list[str | None] = [None] * size
        self.runs = [0] * size
        self.problems: dict[int, str] = {}

    def record(self, j: int, output: str | None, error: str | None) -> None:
        self.runs[j] += 1
        if error is not None:
            self.problems.setdefault(j, error)
        elif self.first[j] is None:
            self.first[j] = output
        elif output != self.first[j]:
            self.problems.setdefault(j, "output differs between executions")

    def failed(self) -> int:
        return sum(self.runs[j] for j in self.problems)


def closed_loop(cli, argvs, seconds: float, outcomes: Outcomes) -> tuple[list[float], float]:
    """Run jobs back to back until ``seconds`` pass, the whole pool at least once."""
    times = []
    start = perf_counter()
    deadline = start + seconds
    i = 0
    while i < len(argvs) or perf_counter() < deadline:
        j = i % len(argvs)
        t0 = perf_counter()
        output, error = run_job(cli, argvs[j])
        times.append(perf_counter() - t0)
        outcomes.record(j, output, error)
        i += 1
    return times, perf_counter() - start


def tail(times: list[float], percentile: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of executions beyond it."""
    ordered = sorted(times)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, y in points if x > 0 and y > 0]
    ys = [math.log(y) for x, y in points if x > 0 and y > 0]
    if len(set(xs)) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def traced_pass(cli, argvs, outcomes: Outcomes) -> tuple[Tracer, list[tuple[float, int, int]], float]:
    """Every job once under the tracer: (tracer, [(seconds, m, n)], elapsed)."""
    tracer = Tracer()
    tracer.install()
    jobs = []
    start = perf_counter()
    try:
        for j, argv in enumerate(argvs):
            before = tracer.counts.copy()
            t0 = perf_counter()
            output, error = run_job(cli, argv)
            elapsed = perf_counter() - t0
            outcomes.record(j, output, error)
            m = tracer.counts["graphs.levels"] - before["graphs.levels"]
            n = tracer.counts["graphs.vertices"] - before["graphs.vertices"]
            jobs.append((elapsed, m, n))
    finally:
        total = perf_counter() - start
        tracer.uninstall()
    return tracer, jobs, total


def layer_metrics(workload: str, tracer: Tracer, jobs, traced_rate: float, untraced_rate: float) -> dict:
    values: dict[str, float] = {}
    for module, qualname, _ in LAYERS:
        name = layer_name(module, qualname)
        key = "cli.main.self_s" if name == "cli.main" else f"{name}.busy_s"
        values[key] = tracer.busy.get(name, 0.0)
        values[f"{name}.calls"] = tracer.calls.get(name, 0)
    values.update(tracer.counts)
    calls = tracer.calls.get("cuts.vertex_cut_below", 0)
    hits = tracer.counts.get("cuts.vertex_cut_below.hits", 0)
    values["cuts.vertex_cut_below.hit_ratio"] = hits / calls if calls else 0.0
    diagram_jobs = [(t, m, n) for t, m, n in jobs if m > 0]
    values["scaling.m_exponent"] = (
        slope([(m, t) for t, m, n in diagram_jobs]) if workload == "deep-filtration" else 0.0
    )
    values["scaling.n_exponent"] = (
        slope([(n, t) for t, m, n in diagram_jobs]) if workload == "cut-blocks" else 0.0
    )
    values["trace.overhead_ratio"] = traced_rate / untraced_rate - 1.0
    return values


def check_references(jobs, outputs: list[str | None], distance_sample: int | None = DISTANCE_SAMPLE):
    """Compare outputs with independent references.

    Returns ({job index: problem}, {job index: reference used}).  Only the
    ``distance_sample`` smallest distance jobs are checked (all when None)."""
    problems: dict[int, str] = {}
    used: dict[int, str] = {}
    distance_jobs = sorted(
        (j for j, job in enumerate(jobs) if job.kind == "distance"),
        key=lambda j: (jobs[j].points, j),
    )
    skipped = set(distance_jobs[distance_sample:]) if distance_sample is not None else set()
    for j, job in enumerate(jobs):
        out = outputs[j]
        if job.reference is None or out is None or j in skipped:
            continue
        what = job.reference[0]
        if what == "components-diagram":
            used[j] = "union-find"
            if out != references.components_diagram(job.reference[1]):
                problems[j] = "differs from the union-find elder-rule diagram"
        elif what == "edge-blocks":
            used[j] = "networkx.k_edge_subgraphs"
            got = {frozenset(line.split()) for line in out.splitlines()}
            if got != references.edge_blocks(job.reference[1], job.reference[2]):
                problems[j] = "differs from networkx.k_edge_subgraphs"
        elif what == "bottleneck":
            p1, p2 = job.reference[1], job.reference[2]
            used[j] = "brute-force" if len(p1) + len(p2) <= 8 else "networkx.hopcroft_karp"
            want = references.bottleneck(p1, p2)
            got = float(out)
            if not (got == want or abs(got - want) <= 1e-9 * max(1.0, abs(want))):
                problems[j] = f"distance {got!r}, reference {want!r}"
    return problems, used


def check_digests(workload: str, seed: int, jobs, outputs) -> tuple[dict[int, str], bool]:
    """Compare with the committed digests when they were made for this seed."""
    with open(DIGESTS, encoding="utf-8") as fh:
        doc = json.load(fh)
    if seed != doc["seed"]:
        return {}, False
    want = doc["workloads"].get(workload, {})
    problems = {}
    for j, job in enumerate(jobs):
        out = outputs[j]
        entry = want.get(job.id)
        if out is not None and (entry is None or entry["sha256"] != sha256(out)):
            problems[j] = "output digest differs from the committed digest"
    return problems, True


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outputs_digest(jobs, outputs) -> str:
    h = hashlib.sha256()
    for job, out in zip(jobs, outputs):
        h.update(f"{job.id}\0{out}\0".encode("utf-8"))
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            cli = fresh_cli()
            jobs = build_pool(args.workload, args.seed)
            argvs = write_pool(jobs, workdir)
            warmup = write_pool([warmup_job(args.workload)], os.path.join(workdir, "warm-up"))[0]
            _, warmup_error = run_job(cli, warmup)
            setup.append(perf_counter() - t0)
        # The pool and its reference data live for the whole run; keep them
        # out of the collections that the jobs' own allocations trigger.
        gc.collect()
        gc.freeze()

        outcomes = Outcomes(len(jobs))
        loop_seconds = args.seconds / 2 if args.trace else args.seconds
        times, elapsed = closed_loop(cli, argvs, loop_seconds, outcomes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rate = len(times) / elapsed
        tail_value, beyond = tail(times, TAIL_PERCENTILE[args.workload])
        metrics = {
            "jobs_per_s": rate,
            "job_p50_ms": statistics.median(times) * 1000.0,
            "job_tail_ms": tail_value * 1000.0,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        info = {
            "executions": len(times),
            "measured_s": elapsed,
            "pool_jobs": len(jobs),
            "tail_percentile": TAIL_PERCENTILE[args.workload],
            "executions_beyond_tail": beyond,
            "setup_runs_s": setup,
        }
        if args.trace:
            tracer, traced_jobs, traced_s = traced_pass(cli, argvs, outcomes)
            metrics.update(layer_metrics(args.workload, tracer, traced_jobs, len(argvs) / traced_s, rate))
            info["traced_s"] = traced_s
            info["absent_layers"] = tracer.absent
            info["absent_counters_of"] = sorted(tracer.broken_hooks)

        ref_problems, used = check_references(jobs, outcomes.first)
        info["reference_checks"] = dict(Counter(used.values()))
        digest_problems, info["digest_checked"] = check_digests(args.workload, args.seed, jobs, outcomes.first)
        for problems in (ref_problems, digest_problems):
            for j, reason in problems.items():
                outcomes.problems.setdefault(j, reason)
        info["outputs_sha256"] = outputs_digest(jobs, outcomes.first)
        info["problems"] = {jobs[j].id: reason for j, reason in sorted(outcomes.problems.items())}
        if warmup_error is not None:
            info["problems"]["warm-up"] = warmup_error
        attempted = sum(outcomes.runs)
        failed = outcomes.failed()
        metrics["fail_ratio"] = failed / attempted
        result = {
            "correct": not info["problems"],
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            "info": info,
        }
    finally:
        remove_workdir(workdir)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
