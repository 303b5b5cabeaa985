"""Rewrite perfbench/digests.json: the SHA-256 of every job's output for the
digest seed, each workload's pool run once.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/record_digests.py

Every job with an independent reference is checked against it first (all
distance jobs, not a sample), and the file records which reference
confirmed each digest.  Nothing is written if any job fails or disagrees.
Regenerate only when the pools change; a program change that alters an
output must show up as a digest mismatch instead.
"""

from __future__ import annotations

import json
import os
import sys

from child import DIGESTS, check_references, fresh_cli, run_job, sha256
from workloads import WORK_ROOT, WORKLOADS, build_pool, remove_workdir, write_pool

SEED = 1


def main() -> int:
    cli = fresh_cli()
    doc = {"seed": SEED, "workloads": {}}
    workdir = os.path.join(WORK_ROOT, f"digests-{os.getpid()}")
    try:
        for workload in WORKLOADS:
            jobs = build_pool(workload, SEED)
            argvs = write_pool(jobs, workdir)
            outputs = []
            for job, argv in zip(jobs, argvs):
                out, error = run_job(cli, argv)
                if error is not None:
                    print(f"{workload} {job.id}: {error}", file=sys.stderr)
                    return 1
                outputs.append(out)
            problems, used = check_references(jobs, outputs, distance_sample=None)
            for j, reason in problems.items():
                print(f"{workload} {jobs[j].id}: {reason}", file=sys.stderr)
            if problems:
                return 1
            doc["workloads"][workload] = {
                job.id: {"kind": job.kind, "reference": used.get(j), "sha256": sha256(outputs[j])}
                for j, job in enumerate(jobs)
            }
            print(f"{workload}: {len(jobs)} digests, {len(used)} confirmed by a reference")
    finally:
        remove_workdir(workdir)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
