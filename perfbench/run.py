"""perconn benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload deep-filtration --seed 1 --seconds 20 --trace 0

The workload runs in a child process (``perfbench/child.py``) with a
hermetic environment: ``PYTHONPATH`` is ``src`` only, ``PERCONN_WORKERS``
is removed and ``PYTHONHASHSEED`` is fixed.  This script prints a table
of every metric with its unit, a line of run information (host, load,
commit, output digest, check results) and, last, one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics that
``BENCHMARK.json`` lists for the mode: ``end_to_end`` with ``--trace 0``,
``per_layer`` with ``--trace 1``.  It exits non-zero, printing no result,
when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 170
HASH_SEED = "0"

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PERCONN_WORKERS", "PYTHONPATH")}
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not os.path.isfile(os.path.join(ROOT, "src", "perconn", "cli.py")):
        print("error: src/perconn is missing; run from a perconn checkout", file=sys.stderr)
        return 2

    load_before = loadavg()
    cmd = [
        sys.executable, os.path.join("perfbench", "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"error: workload process exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 2
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        print(f"error: workload process exited with code {done.returncode}", file=sys.stderr)
        return 2
    child = json.loads(done.stdout.strip().splitlines()[-1])

    values = child["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: the workload reported no value for {missing}", file=sys.stderr)
        return 2

    info = child["info"]
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
        "pythonhashseed": HASH_SEED,
        "git_commit": git_commit(),
    })
    print(f"# {args.workload} seed {args.seed}: {info['executions']} executions of "
          f"{info['pool_jobs']} jobs in {info['measured_s']:.2f} s; tail is "
          f"p{info['tail_percentile']} ({info['executions_beyond_tail']} executions beyond)")
    shown = spec["end_to_end"] + spec["per_layer"] if args.trace else spec["end_to_end"]
    for m in shown:
        print(f"{m['name']:<42} {values[m['name']]:>16.6g} {m['unit']}")
    print(f"{'fail_ratio':<42} {values['fail_ratio']:>16.6g} ratio")
    print("# info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
